"""The Fig. 4 baselines stay byte-identical to their frozen snapshots.

The fixtures under ``tests/fixtures/baseline_golden/`` were recorded
before the ``linguistic`` and ``structural`` matchers moved onto the
engine's interned per-side tables (see :mod:`tests.baseline_golden`).
Every builtin task, Protein included, must reproduce the matrix rows in
their order, the correspondences, the fingerprint and the engine
counters.
"""

import pytest

from tests.baseline_golden import ALGORITHMS, TASKS, load_fixture, snapshot


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("task_name", TASKS)
def test_matches_golden_snapshot(task_name, algorithm):
    expected = load_fixture(task_name)[algorithm]
    actual = snapshot(task_name, algorithm)
    for key in expected:
        assert actual[key] == expected[key], (
            f"{task_name}/{algorithm}: {key} differs"
        )
    assert actual.keys() == expected.keys()
