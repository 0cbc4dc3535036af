"""Tests for the engine layer: MatchContext caching and EngineStats.

The load-bearing guarantee is cache *transparency*: every comparison the
context's memos serve equals what a cold service instance computes for
that node pair, and a matcher scores bit-identically through a context
other matchers already filled as through its own -- checked
property-based over random schema trees and exhaustively over the
bundled paper datasets.
"""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.qmatch import QMatchMatcher
from repro.cupid.matcher import CupidMatcher
from repro.datasets import registry as datasets
from repro.engine.context import LABEL_CACHE, PROPERTY_CACHE, MatchContext
from repro.engine.stats import EngineStats
from repro.linguistic.matcher import LinguisticMatcher
from repro.properties.matcher import PropertyMatcher
from repro.xsd.builder import element, tree
from repro.xsd.generator import GeneratorConfig, SchemaGenerator
from tests.qmatch_golden import load_pair


@st.composite
def schema_trees(draw, max_nodes=30):
    """Random schema trees via the seeded generator (as in
    test_property_based.py)."""
    max_depth = draw(st.integers(min_value=1, max_value=4))
    n_nodes = draw(st.integers(min_value=max_depth + 1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    config = GeneratorConfig(n_nodes=n_nodes, max_depth=max_depth, seed=seed)
    return SchemaGenerator(config).generate()


MATCHERS = (LinguisticMatcher, CupidMatcher, QMatchMatcher)


def assert_grids_match_cold_services(source, target):
    """Every cell of the node grids is what a fresh service instance
    computes for that node pair."""
    ctx = MatchContext(source, target)
    names, name_codes = ctx.node_label_grids()
    props, prop_codes = ctx.node_property_grids()
    for i, s_node in enumerate(ctx.source_table.nodes):
        for j, t_node in enumerate(ctx.target_table.nodes):
            label = LinguisticMatcher().compare_labels(s_node.name,
                                                       t_node.name)
            assert (names[i, j], name_codes[i, j]) == (
                label.score, label.strength.value
            )
            prop = PropertyMatcher()._compare_uncached(s_node, t_node)
            assert (props[i, j], prop_codes[i, j]) == (
                prop.score, prop.strength.value
            )


def assert_same_through_shared_context(matcher_factory, source, target):
    """``matcher_factory()`` scores bit-identically through its own
    context and through one the other matchers filled first."""
    matcher = matcher_factory()
    own = matcher.match_context(matcher.make_context(source, target))
    shared = MatchContext(source, target)
    for other in MATCHERS:
        if other is not matcher_factory:
            other().match_context(shared)
    through_shared = matcher_factory().match_context(shared)
    assert repr(list(through_shared.items())) == repr(list(own.items()))


class TestCacheTransparency:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=schema_trees(), target=schema_trees())
    def test_qmatch_scores_identical_property_based(self, source, target):
        assert_grids_match_cold_services(source, target)
        assert_same_through_shared_context(QMatchMatcher, source, target)

    @pytest.mark.parametrize("task_name", ["PO", "Book", "DCMD", "Inventory"])
    def test_grids_match_cold_services_on_datasets(self, task_name):
        task = datasets.task(task_name)
        assert_grids_match_cold_services(task.source, task.target)

    @pytest.mark.parametrize("task_name", ["PO", "Book", "DCMD", "Inventory"])
    @pytest.mark.parametrize("matcher_factory", MATCHERS)
    def test_scores_identical_on_datasets(self, task_name, matcher_factory):
        task = datasets.task(task_name)
        assert_same_through_shared_context(matcher_factory, task.source,
                                           task.target)


class TestMatchContext:
    @pytest.fixture()
    def pair(self):
        source = tree(element(
            "PO",
            element("OrderNo", type_name="string"),
            element("Date", type_name="date"),
            element("OrderNumber", type_name="string"),
        ))
        target = tree(element(
            "Order",
            element("OrderNo", type_name="string"),
            element("ShipDate", type_name="date"),
        ))
        return source, target

    def test_node_lists_cover_both_trees(self, pair):
        source, target = pair
        ctx = MatchContext(source, target)
        assert len(ctx.source_postorder) == source.size
        assert len(ctx.target_postorder) == target.size
        assert set(map(id, ctx.source_preorder)) == set(
            map(id, ctx.source_postorder)
        )
        assert ctx.pair_count == source.size * target.size

    def test_label_comparison_is_memoized(self, pair, monkeypatch):
        source, target = pair
        ctx = MatchContext(source, target, stats=EngineStats())
        calls = []
        compare = ctx.linguistic.compare_labels
        monkeypatch.setattr(ctx.linguistic, "compare_labels",
                            lambda *args: calls.append(args) or compare(*args))
        first = ctx.label_comparison("OrderNo", "OrderNo")
        second = ctx.label_comparison("OrderNo", "OrderNo")
        assert first == second
        assert len(calls) == 1
        counts = ctx.stats.cache(LABEL_CACHE)
        assert (counts.misses, counts.hits) == (1, 1)
        assert ctx.stats.hit_rate(LABEL_CACHE) > 0.0

    def test_label_comparison_is_symmetric(self, pair):
        source, target = pair
        ctx = MatchContext(source, target)
        forward = ctx.label_comparison("ShipDate", "Date")
        backward = ctx.label_comparison("Date", "ShipDate")
        assert forward.score == backward.score

    def test_repeated_labels_hit_the_cache(self):
        # "Date" labels two source nodes and "ShipDate" two target
        # nodes, so the 4 x 4 node pairs share 3 x 3 label cells: each
        # cell is filled once (a miss) and every other node pair on it
        # is a hit.  A node pair counts once, whatever revisits it.
        source = tree(element(
            "PO",
            element("Date", type_name="date"),
            element("Billing", element("Date", type_name="date")),
        ))
        target = tree(element(
            "Order",
            element("ShipDate", type_name="date"),
            element("Shipping", element("ShipDate", type_name="date")),
        ))
        matcher = QMatchMatcher()
        ctx = matcher.make_context(source, target)
        matcher.match_context(ctx)
        labels = ctx.stats.cache(LABEL_CACHE)
        assert (labels.hits, labels.misses) == (7, 9)
        assert labels.hits + labels.misses == ctx.pair_count
        assert ctx.stats.total_cache_hit_rate() > 0.0

    def test_property_comparison_memoized_by_signature(self, pair):
        source, target = pair
        ctx = MatchContext(source, target, stats=EngineStats())
        s_node = source.root.children[0]
        t_node = target.root.children[0]
        ctx.property_comparison(s_node, t_node)
        ctx.property_comparison(s_node, t_node)
        assert ctx.stats.cache(PROPERTY_CACHE).hits >= 1

    def test_shared_context_across_matchers(self, pair):
        # The second matcher's label lookups land in the first's cache.
        source, target = pair
        linguistic = LinguisticMatcher()
        ctx = MatchContext(source, target, linguistic=linguistic)
        LinguisticMatcher().match_context(ctx)
        misses_after_first = ctx.stats.cache(LABEL_CACHE).misses
        QMatchMatcher(linguistic=linguistic).match_context(ctx)
        assert ctx.stats.cache(LABEL_CACHE).misses == misses_after_first


class TestLabelMemoValues:
    def test_memo_values_leave_the_cyclic_collector(self):
        # The label memo holds one entry per distinct label pair (~11.5k
        # here, ~865k on Protein); as tuples of atomic values they stop
        # being tracked, so full collections do not walk them.
        source, target = load_pair("PIR-PDB50", "default")
        matcher = QMatchMatcher()
        ctx = matcher.make_context(source, target)
        matcher.match(source, target, context=ctx)
        gc.collect()
        memo = ctx._label_memo
        assert len(memo) == ctx.stats.cache(LABEL_CACHE).misses > 10_000
        assert not any(gc.is_tracked(value) for value in memo.values())
        # Read back, a value is the comparison it was made from.
        texts = ctx._label_texts
        for left, right in list(memo)[::500]:
            assert ctx.label_pair(left, right) == (
                matcher.linguistic.compare_labels(texts[left], texts[right])
            )


class TestEngineStats:
    def test_stage_timing_accumulates(self):
        stats = EngineStats()
        with stats.stage("phase"):
            pass
        with stats.stage("phase"):
            pass
        assert stats.stages["phase"].calls == 2
        assert stats.stage_seconds("phase") >= 0.0

    def test_counters(self):
        stats = EngineStats()
        stats.count("pairs", 10)
        stats.count("pairs", 5)
        assert stats.counters["pairs"] == 15

    def test_cache_hit_rate(self):
        stats = EngineStats()
        stats.record_hit("c")
        stats.record_hit("c")
        stats.record_miss("c")
        assert stats.cache("c").lookups == 3
        assert stats.hit_rate("c") == pytest.approx(2 / 3)

    def test_merge(self):
        left, right = EngineStats(), EngineStats()
        left.count("pairs", 1)
        right.count("pairs", 2)
        right.record_hit("c")
        left.merge(right)
        assert left.counters["pairs"] == 3
        assert left.cache("c").hits == 1

    def test_render_mentions_stages_and_caches(self):
        stats = EngineStats()
        with stats.stage("score:qmatch"):
            pass
        stats.record_hit("context.labels")
        stats.record_miss("context.labels")
        text = stats.render()
        assert "score:qmatch" in text
        assert "context.labels" in text

    def test_as_dict_round_trip(self):
        stats = EngineStats()
        stats.count("pairs", 4)
        stats.record_hit("c")
        payload = stats.as_dict()
        assert payload["counters"]["pairs"] == 4
        assert payload["caches"]["c"]["hits"] == 1


class TestMatchResultCarriesStats:
    def test_match_populates_stats(self):
        task = datasets.task("PO")
        result = QMatchMatcher().match(task.source, task.target)
        assert result.stats is not None
        assert result.stats.stage_seconds("score:qmatch") > 0.0
        assert result.stats.counters["qmatch.pairs"] == (
            task.source.size * task.target.size
        )
