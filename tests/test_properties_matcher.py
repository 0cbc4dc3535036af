"""Unit tests for the property matcher (the QoM properties axis)."""

import pytest

from repro.matching.classes import MatchStrength
from repro.properties.matcher import (
    PropertyConfig,
    PropertyMatcher,
    occurs_range_overlaps,
)
from repro.xsd.model import NodeKind, SchemaNode, UNBOUNDED


def leaf_pair(type_a="integer", type_b="integer", order_a=1, order_b=1,
              min_a=1, min_b=1, max_a=1, max_b=1,
              kind_a=NodeKind.ELEMENT, kind_b=NodeKind.ELEMENT):
    source = SchemaNode("S", kind=kind_a, type_name=type_a,
                        min_occurs=min_a, max_occurs=max_a)
    target = SchemaNode("T", kind=kind_b, type_name=type_b,
                        min_occurs=min_b, max_occurs=max_b)
    source.properties["order"] = order_a
    target.properties["order"] = order_b
    return source, target


@pytest.fixture(scope="module")
def matcher():
    return PropertyMatcher()


class TestExactMatch:
    def test_identical_everything_is_exact(self, matcher):
        comparison = matcher.compare(*leaf_pair())
        assert comparison.strength is MatchStrength.EXACT
        assert comparison.score == pytest.approx(1.0)

    def test_paper_example(self, matcher):
        """type=integer, order=1, minOccurs=1 on both -> exact (Section 2.1)."""
        source, target = leaf_pair(type_a="integer", type_b="integer",
                                   order_a=1, order_b=1, min_a=1, min_b=1)
        assert matcher.compare(source, target).strength is MatchStrength.EXACT


class TestRelaxedMatch:
    def test_order_difference_is_relaxed(self, matcher):
        comparison = matcher.compare(*leaf_pair(order_a=1, order_b=3))
        assert comparison.strength is MatchStrength.RELAXED
        assert comparison.per_property["order"] is MatchStrength.RELAXED

    def test_min_occurs_generalization_is_relaxed(self, matcher):
        """minOccurs=0 is a generalization of minOccurs=1 (paper)."""
        comparison = matcher.compare(*leaf_pair(min_a=0, min_b=1))
        assert comparison.per_property["min_occurs"] is MatchStrength.RELAXED
        assert comparison.strength is MatchStrength.RELAXED

    def test_max_occurs_unbounded_is_relaxed(self, matcher):
        comparison = matcher.compare(*leaf_pair(max_a=1, max_b=UNBOUNDED))
        assert comparison.per_property["max_occurs"] is MatchStrength.RELAXED

    def test_type_generalization_is_relaxed(self, matcher):
        comparison = matcher.compare(*leaf_pair(type_a="integer", type_b="decimal"))
        assert comparison.per_property["type"] is MatchStrength.RELAXED
        assert comparison.strength is MatchStrength.RELAXED

    def test_kind_difference_is_relaxed(self, matcher):
        comparison = matcher.compare(*leaf_pair(kind_b=NodeKind.ATTRIBUTE))
        assert comparison.per_property["kind"] is MatchStrength.RELAXED


class TestNoMatch:
    def test_incompatible_types_fail_the_axis(self, matcher):
        comparison = matcher.compare(*leaf_pair(type_a="integer", type_b="string"))
        assert comparison.per_property["type"] is MatchStrength.NONE
        assert comparison.strength is MatchStrength.NONE


class TestScores:
    def test_relaxed_scores_between_zero_and_one(self, matcher):
        comparison = matcher.compare(*leaf_pair(order_a=1, order_b=2))
        assert 0.0 < comparison.score < 1.0

    def test_more_relaxations_lower_score(self, matcher):
        one = matcher.compare(*leaf_pair(order_a=1, order_b=2)).score
        two = matcher.compare(*leaf_pair(order_a=1, order_b=2,
                                         min_a=0, min_b=1)).score
        assert two < one

    def test_score_bounded(self, matcher):
        for type_b in ("integer", "decimal", "string", None):
            comparison = matcher.compare(*leaf_pair(type_b=type_b, order_b=5,
                                                    min_b=0, max_b=UNBOUNDED))
            assert 0.0 <= comparison.score <= 1.0


class TestConfig:
    def test_order_comparison_can_be_disabled(self):
        matcher = PropertyMatcher(PropertyConfig(compare_order=False))
        comparison = matcher.compare(*leaf_pair(order_a=1, order_b=9))
        assert "order" not in comparison.per_property
        assert comparison.strength is MatchStrength.EXACT

    def test_relaxed_credit_controls_score(self):
        generous = PropertyMatcher(PropertyConfig(relaxed_credit=0.9))
        stingy = PropertyMatcher(PropertyConfig(relaxed_credit=0.1))
        pair = leaf_pair(order_a=1, order_b=2)
        assert generous.compare(*pair).score > stingy.compare(*pair).score

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            PropertyMatcher(PropertyConfig(weights={}))

    def test_weights_of_uncompared_properties_do_not_count(self):
        config = PropertyConfig(weights={"order": 1.0}, compare_order=False)
        with pytest.raises(ValueError, match="sum to zero"):
            PropertyMatcher(config)


class TestOccursOverlap:
    @pytest.mark.parametrize("a,b,expected", [
        ((1, 1), (1, 1), True),
        ((0, 1), (1, 2), True),
        ((0, UNBOUNDED), (5, 9), True),
        ((2, 3), (4, 5), False),
        ((4, 5), (2, 3), False),
        ((0, 0), (0, UNBOUNDED), True),
    ])
    def test_cases(self, a, b, expected):
        assert occurs_range_overlaps(a[0], a[1], b[0], b[1]) is expected
