"""Interactive refinement: re-select under user accept/reject feedback.

Automatic matchers propose; integrators dispose.  After reviewing a
match result, a user typically *accepts* some correspondences (they must
appear in the final mapping), *rejects* others (they must not, nor may
the rejected pairing be re-proposed), and wants the matcher to re-derive
the rest — the workflow LSD/COMA built whole systems around.

:func:`refine` re-runs correspondence selection over an existing score
matrix under those constraints, so no matrix recomputation is needed:

- accepted pairs are seated first (even below the threshold, and even if
  the matcher classified them no-match — the user outranks the model);
- rejected pairs are excluded from selection;
- the remaining nodes are matched by the usual strategy over whatever
  endpoints are still free.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.matching.result import CATEGORY_CODES, Correspondence, MatchResult, ScoreMatrix
from repro.matching.selection import DEFAULT_THRESHOLD, select_correspondences


class RefinementError(ValueError):
    """Raised for inconsistent feedback."""


def refine(result: MatchResult,
           accepted: Iterable[tuple] = (),
           rejected: Iterable[tuple] = (),
           threshold: float = DEFAULT_THRESHOLD,
           strategy: Optional[str] = None) -> MatchResult:
    """Re-select correspondences under accept/reject constraints.

    Returns a new :class:`MatchResult` sharing the original's matrix.
    ``accepted`` and ``rejected`` are iterables of
    ``(source_path, target_path)`` pairs; a pair in both is an error, as
    are two accepted pairs sharing an endpoint.  ``strategy`` defaults to
    whatever strategy produced ``result``.
    """
    strategy = strategy or result.strategy
    matrix = result.matrix
    accepted = [tuple(pair) for pair in accepted]
    rejected_set = {tuple(pair) for pair in rejected}

    overlap = set(accepted) & rejected_set
    if overlap:
        raise RefinementError(
            f"pairs both accepted and rejected: {sorted(overlap)}"
        )
    seen_sources: set[str] = set()
    seen_targets: set[str] = set()
    for source_path, target_path in accepted:
        if source_path in seen_sources:
            raise RefinementError(
                f"two accepted pairs share source {source_path!r}"
            )
        if target_path in seen_targets:
            raise RefinementError(
                f"two accepted pairs share target {target_path!r}"
            )
        seen_sources.add(source_path)
        seen_targets.add(target_path)

    categories = matrix.categories
    forced = [
        Correspondence(
            source_path, target_path,
            matrix.get_by_path(source_path, target_path),
            category=(None if categories is None
                      else categories.get((source_path, target_path))),
        )
        for source_path, target_path in accepted
    ]

    # Rejected pairs and pairs touching an accepted endpoint read as
    # no-match in a copy of the category grid, so no strategy takes them;
    # the scores stay whole (hierarchical reads them as parent context).
    codes = (np.full(matrix.scores.shape, -1, dtype=np.int8)
             if categories is None else matrix.category_codes.copy())
    no_match = CATEGORY_CODES["no-match"]
    rows, columns = matrix.row_index, matrix.column_index
    codes[[rows[path] for path in seen_sources & rows.keys()]] = no_match
    codes[:, [columns[path] for path in seen_targets & columns.keys()]] = no_match
    for cell in filter(None, (matrix.cell(*pair) for pair in rejected_set)):
        codes[cell] = no_match
    masked = ScoreMatrix(matrix.source, matrix.target, matrix.order,
                         matrix.scores, codes)
    remaining = select_correspondences(
        masked, strategy=strategy, threshold=threshold,
        categories=masked.categories,
    )
    correspondences = sorted(
        forced + list(remaining),
        key=lambda c: (-c.score, c.source_path, c.target_path),
    )
    return MatchResult(
        algorithm=f"{result.algorithm}+feedback",
        matrix=matrix,
        correspondences=correspondences,
        tree_qom=result.tree_qom,
        strategy=strategy,
    )
