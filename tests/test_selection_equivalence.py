"""Array selection equals the frozen per-pair reference.

The strategies in :mod:`repro.matching.selection` threshold, order and
walk a score matrix as numpy arrays; ``tests/selection_reference.py``
keeps the per-pair tuple implementation they replaced.  On generated
matrices (both node orders, many tied scores, unset cells, no-match
categories) every strategy, ``refine`` under accept/reject feedback and
``top_candidates`` must return exactly what the reference returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matching.classes import MatchCategory
from repro.matching.refine import refine
from repro.matching.result import MatchResult, ScoreMatrix
from repro.matching.selection import STRATEGY_NAMES, select_correspondences
from repro.xsd.model import SchemaNode, SchemaTree
from tests.selection_reference import (
    STRATEGIES,
    refine_reference,
    top_candidates_reference,
)

#: Few distinct values, so most thresholded cells tie with another.
TIED_SCORES = (0.0, 0.25, 0.5, 0.6, 0.6000000000000001, 0.75, 0.8, 1.0)
THRESHOLDS = (0.0, 0.5, 0.6, 0.75)
NAMES = ("a", "b", "B", "ab", "name", "x_y", "z")


@st.composite
def trees(draw):
    """A random tree of 1-9 nodes with unique sibling names."""
    size = draw(st.integers(min_value=1, max_value=9))
    nodes = [SchemaNode(draw(st.sampled_from(NAMES)))]
    for index in range(1, size):
        parent = nodes[draw(st.integers(min_value=0, max_value=index - 1))]
        # The index suffix keeps sibling names unique; its digits also
        # make string order differ from tree order ("a10" < "a2").
        child = SchemaNode(f"{draw(st.sampled_from(NAMES))}{index}")
        parent.add_child(child)
        nodes.append(child)
    return SchemaTree(nodes[0])


@st.composite
def matrices(draw):
    """A matrix over two random trees in a random node order, with
    tied scores, some unset cells and (maybe) categories."""
    source, target = draw(trees()), draw(trees())
    order = draw(st.sampled_from(("preorder", "postorder")))
    shape = (source.size, target.size)
    cells = shape[0] * shape[1]
    scores = np.array(draw(st.lists(
        st.one_of(st.sampled_from(TIED_SCORES), st.just(np.nan)),
        min_size=cells, max_size=cells,
    )), dtype=np.float64)
    codes = None
    if draw(st.booleans()):
        # -1 (unset) and no-match weighted in with every category.
        codes = draw(st.lists(
            st.integers(min_value=-1, max_value=len(MatchCategory) - 1)
            | st.just(list(MatchCategory).index(MatchCategory.NO_MATCH)),
            min_size=cells, max_size=cells,
        ))
    return ScoreMatrix(source, target, order, scores, codes)


def plain(categories):
    return None if categories is None else dict(categories)


class TestStrategies:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(matrix=matrices(), threshold=st.sampled_from(THRESHOLDS))
    def test_every_strategy_matches_reference(self, matrix, threshold):
        categories = matrix.categories
        for strategy in STRATEGY_NAMES:
            expected = STRATEGIES[strategy](matrix, threshold,
                                            plain(categories))
            assert select_correspondences(
                matrix, strategy, threshold, categories,
            ) == expected, strategy
            # A plain dict of categories selects the same.
            assert select_correspondences(
                matrix, strategy, threshold, plain(categories),
            ) == expected, strategy

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(matrix=matrices(), data=st.data())
    def test_top_candidates_match_reference(self, matrix, data):
        source_path = data.draw(st.sampled_from(matrix.source_paths))
        k = data.draw(st.integers(min_value=1, max_value=12))
        assert matrix.top_candidates(source_path, k) == (
            top_candidates_reference(matrix, source_path, k)
        )


class TestRefine:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(matrix=matrices(), data=st.data(),
           threshold=st.sampled_from(THRESHOLDS),
           strategy=st.sampled_from(STRATEGY_NAMES))
    def test_feedback_matches_reference(self, matrix, data, threshold,
                                        strategy):
        pairs = [pair for pair, _ in matrix.items()]
        accepted, sources, targets = [], set(), set()
        for s_path, t_path in data.draw(st.lists(
                st.sampled_from(pairs), max_size=3)) if pairs else ():
            if s_path not in sources and t_path not in targets:
                accepted.append((s_path, t_path))
                sources.add(s_path)
                targets.add(t_path)
        rejected = [
            pair for pair in (data.draw(st.lists(
                st.sampled_from(pairs), max_size=4)) if pairs else ())
            if pair not in accepted
        ]
        result = MatchResult("test", matrix, strategy=strategy)
        refined = refine(result, accepted=accepted, rejected=rejected,
                         threshold=threshold)
        assert refined.correspondences == refine_reference(
            matrix, plain(matrix.categories), accepted, rejected,
            threshold, strategy,
        )

    def test_accepted_parent_still_gives_context(self):
        """Masked pairs stay readable as parent context: the accepted
        parent pair steers its child's tie to the aligned target."""
        source = SchemaTree(SchemaNode("R", children=[
            SchemaNode("p", children=[SchemaNode("n")]),
        ]))
        target = SchemaTree(SchemaNode("R", children=[
            SchemaNode("a", children=[SchemaNode("n")]),
            SchemaNode("p", children=[SchemaNode("n")]),
        ]))
        matrix = ScoreMatrix(source, target)
        for t_path, parent_score in (("R/a", 0.1), ("R/p", 0.9)):
            matrix.set(source.find("R/p"), target.find(t_path), parent_score)
            matrix.set(source.find("R/p/n"), target.find(f"{t_path}/n"), 0.8)
        refined = refine(MatchResult("test", matrix), strategy="hierarchical",
                         accepted=[("R/p", "R/p")])
        assert ("R/p/n", "R/p/n") in refined.pairs
        assert refined.correspondences == refine_reference(
            matrix, None, [("R/p", "R/p")], [], 0.5, "hierarchical",
        )


def _flat_pair():
    root = SchemaNode("R")
    for name in ("c", "a", "b"):
        root.add_child(SchemaNode(name))
    return SchemaTree(root)


class TestTies:
    def test_top_candidates_ties_by_target_path(self):
        tree = _flat_pair()
        matrix = ScoreMatrix(tree, tree)
        for target in ("R/c", "R/a", "R/b"):
            matrix.set(tree.find("R/a"), tree.find(target), 0.7)
        matrix.set(tree.find("R/a"), tree.root, 0.9)
        assert matrix.top_candidates("R/a", 3) == [
            ("R", 0.9), ("R/a", 0.7), ("R/b", 0.7),
        ]

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_unset_cells_are_never_selected(self, strategy):
        tree = _flat_pair()
        matrix = ScoreMatrix(tree, tree)
        matrix.set(tree.find("R/b"), tree.find("R/c"), 0.9)
        selected = select_correspondences(matrix, strategy, threshold=0.0)
        assert [c.as_tuple() for c in selected] == [("R/b", "R/c")]
