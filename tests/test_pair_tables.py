"""The engine's interned per-pair tables and the work they save.

The QMatch pair loop addresses nodes through the context's
:class:`~repro.engine.context.SideTable` arrays and memoizes label and
property comparisons by interned id pairs.  These tests pin the tables'
contents and the amount of work: every distinct label pair is compared
exactly once, every distinct signature pair exactly once.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.qmatch import QMatchMatcher
from repro.datasets import registry
from repro.engine.context import (
    LABEL_CACHE,
    LABEL_IDS_COUNTER,
    PROPERTY_CACHE,
    SIGNATURE_IDS_COUNTER,
    MatchContext,
)
from repro.linguistic.matcher import LinguisticMatcher
from repro.properties.matcher import PropertyMatcher
from repro.xsd.serializer import to_xsd
from tests.qmatch_golden import PAIRS, load_pair

#: (compare_labels, PropertyMatcher.compare) calls of a default match.
CALLS = {
    "PO": (90, 72),
    "Book": (98, 80),
    "DCMD": (1878, 1376),
    "Inventory": (345, 221),
    "PIR-PDB50": (11550, 5320),
}


@pytest.fixture(scope="module")
def dcmd():
    task = registry.task("DCMD")
    return task.source, task.target


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkCounters:
    def test_each_distinct_pair_compared_once(self, dcmd, monkeypatch):
        source, target = dcmd
        label_calls = _count_calls(monkeypatch, LinguisticMatcher,
                                   "compare_labels")
        property_calls = _count_calls(monkeypatch, PropertyMatcher, "compare")
        matcher = QMatchMatcher()
        ctx = matcher.make_context(source, target)
        matcher.match(source, target, context=ctx)

        label_pairs = {
            tuple(sorted((s.name, t.name))) for s in source for t in target
        }
        signature_pairs = {
            (PropertyMatcher.signature(s), PropertyMatcher.signature(t))
            for s in source for t in target
        }
        assert len(label_calls) == len(label_pairs) == (
            ctx.stats.cache(LABEL_CACHE).misses
        )
        assert len(property_calls) == len(signature_pairs) == (
            ctx.stats.cache(PROPERTY_CACHE).misses
        )
        # DCMD's figures, as recorded before the pair loop moved onto
        # the interned tables.
        assert (len(label_calls), len(property_calls)) == (1878, 1376)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_calls_equal_cache_misses(self, pair, monkeypatch):
        # A default match calls the label and property services exactly
        # once per memo miss, so the engine's miss counts measure the
        # work perfbench's wrapped call counts measure.
        source, target = load_pair(pair, "default")
        label_calls = _count_calls(monkeypatch, LinguisticMatcher,
                                   "compare_labels")
        property_calls = _count_calls(monkeypatch, PropertyMatcher, "compare")
        stats = QMatchMatcher().match(source, target).stats
        assert len(label_calls) == stats.cache(LABEL_CACHE).misses
        assert len(property_calls) == stats.cache(PROPERTY_CACHE).misses
        assert (len(label_calls), len(property_calls)) == CALLS[pair]

    @pytest.mark.parametrize("pair,block,recursive", [
        ("DCMD", 1972, 42),
        ("PO", 84, 6),
        ("PIR-PDB50", 10990, 560),
    ])
    def test_pairs_by_path(self, pair, block, recursive):
        # Leaf x leaf and leaf x interior pairs are scored as blocks;
        # only interior x interior pairs recurse into their children.
        source, target = load_pair(pair, "default")
        counters = QMatchMatcher().match(source, target).stats.counters
        assert (counters["qmatch.pairs.block"],
                counters["qmatch.pairs.recursive"]) == (block, recursive)
        assert block + recursive == counters["qmatch.pairs"]

    def test_table_size_counters(self, dcmd):
        source, target = dcmd
        result = QMatchMatcher().match(source, target)
        nodes = list(source) + list(target)
        counters = result.stats.counters
        assert counters[LABEL_IDS_COUNTER] == len({n.name for n in nodes})
        assert counters[SIGNATURE_IDS_COUNTER] == len(
            {PropertyMatcher.signature(n) for n in nodes}
        )
        assert (counters[LABEL_IDS_COUNTER],
                counters[SIGNATURE_IDS_COUNTER]) == (74, 61)

    def test_tables_counted_once_per_context(self, dcmd):
        source, target = dcmd
        matcher = QMatchMatcher()
        ctx = matcher.make_context(source, target)
        matcher.match_context(ctx)
        matcher.match_context(ctx)
        assert ctx.stats.counters[LABEL_IDS_COUNTER] == 74

    def test_stats_flag_prints_table_sizes(self, tmp_path, dcmd, capsys):
        source, target = dcmd
        paths = []
        for tree in (source, target):
            path = tmp_path / f"{tree.name}.xsd"
            path.write_text(to_xsd(tree), encoding="utf-8")
            paths.append(str(path))
        assert main(["match", *paths, "--stats", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert f"{LABEL_IDS_COUNTER:<24} 74" in err
        assert f"{SIGNATURE_IDS_COUNTER:<24} 61" in err


class TestSideTable:
    def test_arrays_mirror_the_postorder_nodes(self, dcmd):
        source, target = dcmd
        ctx = MatchContext(source, target)
        for tree, table in ((source, ctx.source_table),
                            (target, ctx.target_table)):
            nodes = list(tree.root.iter_postorder())
            assert table.nodes == nodes
            assert table.paths == [node.path for node in nodes]
            assert table.levels == [node.level for node in nodes]
            assert table.leaves == [node.is_leaf for node in nodes]
            for index, node in enumerate(nodes):
                assert [table.nodes[c] for c in table.children[index]] == (
                    node.children
                )
                assert all(c < index for c in table.children[index])
                assert table.index[id(node)] == index

    def test_equal_ids_exactly_for_equal_inputs(self, dcmd):
        source, target = dcmd
        ctx = MatchContext(source, target)
        tables = (ctx.source_table, ctx.target_table)
        by_label, by_signature = {}, {}
        for table in tables:
            for node, label_id, signature_id in zip(
                table.nodes, table.label_ids, table.signature_ids
            ):
                assert by_label.setdefault(label_id, node.name) == node.name
                signature = PropertyMatcher.signature(node)
                assert by_signature.setdefault(signature_id, signature) == (
                    signature
                )
        assert len(set(by_label.values())) == len(by_label)
        assert len(set(by_signature.values())) == len(by_signature)
