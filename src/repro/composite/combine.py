"""Combining similarity matrices (COMA's aggregation step).

A :class:`CompositeMatcher` runs each constituent matcher over the input
pair and folds the resulting matrices into one, per node pair, using an
aggregation strategy:

- ``max`` -- optimistic: any matcher's confidence carries the pair
  (COMA's default for complementary matchers);
- ``min`` -- pessimistic: every matcher must agree;
- ``average`` -- the arithmetic mean;
- ``weighted`` -- a weighted mean with per-matcher weights.

The composite is itself a :class:`~repro.matching.base.Matcher`, so
selection, evaluation and benchmarking treat it like any other
algorithm.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.matching.base import Matcher
from repro.matching.result import ScoreMatrix


def _aggregate_max(scores, weights):
    return max(scores)


def _aggregate_min(scores, weights):
    return min(scores)


def _aggregate_average(scores, weights):
    return sum(scores) / len(scores)


def _aggregate_weighted(scores, weights):
    total = sum(weights)
    return sum(s * w for s, w in zip(scores, weights)) / total


AGGREGATIONS = {
    "max": _aggregate_max,
    "min": _aggregate_min,
    "average": _aggregate_average,
    "weighted": _aggregate_weighted,
}


def aggregate_scores(scores: Sequence[float], strategy: str = "max",
                     weights: Optional[Sequence[float]] = None) -> float:
    """Fold one pair's per-matcher scores into a single similarity."""
    if not scores:
        raise ValueError("need at least one score to aggregate")
    try:
        aggregate = AGGREGATIONS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {strategy!r}; "
            f"expected one of {sorted(AGGREGATIONS)}"
        ) from None
    if strategy == "weighted":
        if weights is None or len(weights) != len(scores):
            raise ValueError(
                "weighted aggregation needs one weight per score"
            )
        if sum(weights) <= 0:
            raise ValueError("weights must sum to a positive value")
    return aggregate(scores, weights)


class CompositeMatcher(Matcher):
    """A COMA-style combination of matchers.

    Parameters
    ----------
    matchers:
        The constituent :class:`Matcher` instances (at least one).
    aggregation:
        One of :data:`AGGREGATIONS`.
    weights:
        Per-matcher weights, required for ``weighted``.
    name:
        Report label; defaults to ``composite(<members>)``.
    """

    def __init__(self, matchers: Sequence[Matcher], aggregation: str = "max",
                 weights: Optional[Sequence[float]] = None, name=None):
        if not matchers:
            raise ValueError("composite needs at least one matcher")
        # Validate eagerly so configuration errors surface at build time.
        aggregate_scores([0.0] * len(matchers), aggregation,
                         weights if aggregation == "weighted" else None)
        self.matchers = list(matchers)
        self.aggregation = aggregation
        self.weights = list(weights) if weights is not None else None
        self.name = name or (
            "composite(" + "+".join(m.name for m in self.matchers) + ")"
        )

    def resident_entries(self) -> int:
        return sum(matcher.resident_entries() for matcher in self.matchers)

    def match_context(self, ctx) -> ScoreMatrix:
        """Run every constituent under the *shared* context.

        Constituents reuse one :class:`MatchContext`, so a label pair
        analysed by one matcher is a cache hit for the next -- the
        composite pays the linguistic bill once, not once per member.
        """
        matrices = []
        for matcher in self.matchers:
            with ctx.stats.stage(f"composite:{matcher.name}"):
                matrices.append(matcher.match_context(ctx))
        combined = ScoreMatrix(ctx.source, ctx.target)
        t_nodes = ctx.target_preorder
        for s_node in ctx.source_preorder:
            for t_node in t_nodes:
                scores = [matrix.get(s_node, t_node) for matrix in matrices]
                combined.set(
                    s_node, t_node,
                    aggregate_scores(scores, self.aggregation, self.weights),
                )
        return combined
