"""QMatch outputs stay byte-identical to the frozen golden snapshots.

The fixtures under ``tests/fixtures/qmatch_golden/`` were recorded from
the node-keyed pair loop before the pair loop moved onto the engine's
interned per-pair tables (see :mod:`tests.qmatch_golden`).  Every case
re-runs the matcher untraced and traced and must reproduce the matrix
rows and their order, the categories, ``tree_qom``, the correspondences,
the config fingerprint, ``explain`` breakdowns, the engine-cache hit and
miss counters in their recorded order, and the trace JSON lines.
"""

import pytest

from tests.qmatch_golden import CONFIGS, PAIRS, load_fixture, snapshot


@pytest.mark.parametrize("pair", PAIRS)
def test_fixture_holds_exactly_the_configs(pair):
    # A config dropped from CONFIGS must leave the fixtures too, or its
    # snapshot lingers unread.
    assert tuple(load_fixture(pair)) == CONFIGS


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("pair", PAIRS)
def test_matches_golden_snapshot(pair, config):
    expected = load_fixture(pair)[config]
    actual = snapshot(pair, config)
    assert actual["traced_rows_equal"]
    for key in expected:
        assert actual[key] == expected[key], f"{pair}/{config}: {key} differs"
    assert actual.keys() == expected.keys()
