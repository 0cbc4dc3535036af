"""The block path scores exactly like the scalar reference loop.

An untraced QMatch run scores leaf x leaf and leaf x interior pairs as
numpy blocks and walks only the interior x interior pairs in Python
(``QMatchMatcher._score_blocks``).  The scalar per-pair loop
(``_score_row``) stays the reference: it runs traced runs, ``explain``
and incremental re-matching.  These tests pin that the two produce the
same matrix (in order, compared by ``repr``), the same categories and
the same ``tree_qom`` on generated, mutated schema pairs under every
golden configuration, and that a QoM outside [0, 1] fails on the block
path with the scalar path's message.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import QMatchConfig
from repro.core.qmatch import QMatchMatcher
from repro.matching.classes import MatchStrength
from repro.matching.result import ScoreMatrix
from repro.properties.matcher import PropertyComparison, PropertyMatcher
from repro.xsd.generator import GeneratorConfig, SchemaGenerator
from repro.xsd.mutations import MutationConfig, SchemaMutator
from tests.qmatch_golden import (
    CONFIGS,
    _attach_documentation,
    _attach_instance_profiles,
    load_pair,
    make_config,
)


@st.composite
def schema_pairs(draw):
    """A generated schema and a seeded mutation of it (renames, retypes,
    shuffles, drops, additions and wraps)."""
    max_depth = draw(st.integers(min_value=1, max_value=4))
    n_nodes = draw(st.integers(min_value=max_depth + 1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    source = SchemaGenerator(GeneratorConfig(
        n_nodes=n_nodes, max_depth=max_depth, seed=seed,
    )).generate()
    target, _ = SchemaMutator(MutationConfig(
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        rename_probability=0.3, retype_probability=0.2,
        drop_probability=0.1, add_probability=0.1,
        shuffle_probability=0.3, wrap_probability=0.1,
    )).mutate(source)
    return source, target


def scalar_matrix(matcher, source, target):
    """The reference: ``_score_row`` over every row of a fresh context."""
    ctx = matcher.make_context(source, target)
    width = len(ctx.target_table)
    grid = [0.0] * (len(ctx.source_table) * width)
    categories = (
        [None] * len(grid) if matcher.config.record_categories else None
    )
    for s_index in range(len(ctx.source_table)):
        matcher._score_row(s_index, grid, categories, ctx)
    return ScoreMatrix(ctx.source, ctx.target, "postorder", grid, categories)


def outputs(matrix):
    """Everything a matrix exposes, floats as their ``repr``."""
    return (
        [(key, repr(score)) for key, score in matrix.items()],
        matrix.categories,
        repr(matrix.get(matrix.source.root, matrix.target.root)),
    )


def _row_by_row(*args):
    raise AssertionError("the block path scored a row pair by pair")


def assert_block_equals_scalar(matcher, source, target):
    scalar = scalar_matrix(matcher, source, target)
    matcher._score_row = _row_by_row
    try:
        block = matcher.match_context(matcher.make_context(source, target))
    finally:
        del matcher._score_row
    assert outputs(block) == outputs(scalar)


def prepare(source, target, config):
    if config == "documentation":
        _attach_documentation(source)
        _attach_documentation(target)
    if config == "instance":
        _attach_instance_profiles(source, 11)
        _attach_instance_profiles(target, 23)


class TestBlockEqualsScalar:
    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pair=schema_pairs())
    def test_generated_pairs(self, config, pair):
        source, target = pair
        prepare(source, target, config)
        matcher = QMatchMatcher(config=make_config(config))
        assert_block_equals_scalar(matcher, source, target)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pair=schema_pairs(),
           aggregation=st.sampled_from(("best_match", "all_pairs")))
    def test_without_categories(self, pair, aggregation):
        source, target = pair
        matcher = QMatchMatcher(config=QMatchConfig(
            record_categories=False, children_aggregation=aggregation,
        ))
        assert_block_equals_scalar(matcher, source, target)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_protein_sample(self, config):
        source, target = load_pair("PIR-PDB50", config)
        matcher = QMatchMatcher(config=make_config(config))
        assert_block_equals_scalar(matcher, source, target)


class _BrokenProperties(PropertyMatcher):
    """Scores the pairs whose (source type, target type) is in
    ``broken`` far outside [0, 1]: a malformed model, keyed on the
    types, which equal signatures share."""

    def __init__(self, broken):
        super().__init__()
        self.broken = broken

    def compare(self, source, target):
        types = (source.properties.get("type"), target.properties.get("type"))
        if types in self.broken:
            return PropertyComparison(9.0, MatchStrength.EXACT)
        return super().compare(source, target)


class TestOutOfRange:
    # PO's postorder rows and columns put (OrderNo, Items), a leaf x
    # interior pair, at index 6 and (Lines, Items), an interior pair, at
    # index 60; a (date, date) leaf pair comes later, at index 79.
    @pytest.mark.parametrize("broken,first_bad", [
        ({("integer", None), (None, None)},
         "(PO/OrderNo, PurchaseOrder/Items)"),
        ({(None, None), ("date", "date")},
         "(PO/PurchaseInfo/Lines, PurchaseOrder/Items)"),
    ], ids=["block-pair-first", "interior-pair-first"])
    def test_block_path_raises_the_scalar_message(self, broken, first_bad):
        source, target = load_pair("PO", "default")

        def error(score):
            matcher = QMatchMatcher(property_matcher=_BrokenProperties(broken))
            with pytest.raises(ValueError) as raised:
                score(matcher)
            return str(raised.value)

        message = error(lambda matcher: matcher.match_context(
            matcher.make_context(source, target)))
        assert message == error(
            lambda matcher: scalar_matrix(matcher, source, target))
        assert first_bad in message
        assert "is outside [0, 1]" in message
