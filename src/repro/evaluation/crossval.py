"""Threshold selection by leave-one-task-out cross-validation.

Every matcher has an acceptance threshold, and tuning it on the same
pairs it is evaluated on overstates quality.  This module provides the
honest protocol: for each held-out task, pick the threshold that
maximizes mean Overall on the *remaining* tasks, then score the held-out
task at that threshold.  The gap between the tuned-on-everything score
and the cross-validated score measures how much the threshold choice
overfits the evaluation set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.evaluation.harness import MatchTask
from repro.evaluation.metrics import evaluate_against_gold
from repro.matching.base import Matcher

DEFAULT_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class FoldResult:
    """One leave-one-out fold."""

    held_out: str
    chosen_threshold: float
    train_overall: float
    test_overall: float


@dataclass(frozen=True)
class CrossValidationResult:
    """The full protocol's outcome."""

    folds: tuple
    #: Mean held-out Overall (the honest number).
    mean_test_overall: float
    #: Best achievable mean Overall with one threshold tuned on all
    #: tasks at once (the optimistic number).
    oracle_overall: float
    oracle_threshold: float

    @property
    def overfit_gap(self) -> float:
        return self.oracle_overall - self.mean_test_overall


def cross_validate_threshold(
    matcher: Matcher,
    tasks: Sequence[MatchTask],
    grid: Sequence[float] = DEFAULT_GRID,
) -> CrossValidationResult:
    """Run leave-one-task-out threshold selection for ``matcher``.

    Every task needs a gold mapping; at least two tasks are required
    (with one, there is nothing to train on).
    """
    if len(tasks) < 2:
        raise ValueError("cross-validation needs at least two tasks")
    if any(task.gold is None for task in tasks):
        raise ValueError("every task needs a gold mapping")

    # Score every (task, threshold) cell once; selection is re-done per
    # fold over the cached cells.  The matrix is threshold-independent,
    # so one score_matrix per task serves the whole grid.
    scores: dict[tuple[str, float], float] = {}
    for task in tasks:
        matrix = matcher.score_matrix(task.source, task.target)
        for threshold in grid:
            from repro.matching.selection import select_correspondences

            correspondences = select_correspondences(
                matrix,
                strategy=matcher.default_strategy,
                threshold=threshold,
                categories=matrix.categories,
            )
            pairs = {c.as_tuple() for c in correspondences}
            scores[(task.name, threshold)] = evaluate_against_gold(
                pairs, task.gold
            ).overall

    def mean_overall(task_names, threshold):
        return sum(scores[(name, threshold)] for name in task_names) / len(
            task_names
        )

    names = [task.name for task in tasks]
    folds = []
    for held_out in names:
        train = [name for name in names if name != held_out]
        chosen = max(grid, key=lambda t: (mean_overall(train, t), -t))
        folds.append(FoldResult(
            held_out=held_out,
            chosen_threshold=chosen,
            train_overall=mean_overall(train, chosen),
            test_overall=scores[(held_out, chosen)],
        ))

    oracle_threshold = max(grid, key=lambda t: (mean_overall(names, t), -t))
    return CrossValidationResult(
        folds=tuple(folds),
        mean_test_overall=sum(f.test_overall for f in folds) / len(folds),
        oracle_overall=mean_overall(names, oracle_threshold),
        oracle_threshold=oracle_threshold,
    )
