"""Correspondence selection: score matrix -> one-to-one match set.

The paper's evaluation counts discovered matches P against manual
matches R, which presumes each matcher emits a concrete match set, not
just a matrix.  Three strategies are provided:

- :func:`greedy_one_to_one` -- sort all pairs by descending score, accept
  a pair when both endpoints are still free (the classic stable greedy
  used by Cupid/COMA-style systems).
- :func:`hierarchical_greedy` -- the same greedy, but ranking pairs with
  a parent-context bonus so equal-scoring candidates are broken by how
  well the parents align; the default (schema trees have hierarchy, use
  it).
- :func:`stable_marriage` -- Gale-Shapley over score-derived preference
  lists; produces a stable matching which occasionally differs from the
  greedy one when scores conflict.
- :func:`threshold_all_pairs` -- every pair above threshold (many-to-many);
  useful for recall-oriented inspection.

All strategies drop pairs below ``threshold`` first.
"""

from __future__ import annotations

import numpy as np

from repro.matching.result import (
    CATEGORY_CODES,
    CATEGORY_VALUES,
    CategoryView,
    Correspondence,
    ScoreMatrix,
)

#: Default acceptance threshold; matches the QMatch child-match threshold.
DEFAULT_THRESHOLD = 0.5

#: Qualitative categories that disqualify a pair from selection even
#: when its numeric score clears the threshold.  QMatch's Eq. 2 gives
#: every leaf pair a baseline of WH + WC regardless of label evidence;
#: pairs the taxonomy itself classifies as "no-match" are not matches.
EXCLUDED_CATEGORIES = frozenset({"no-match"})


def _cells(matrix: ScoreMatrix, threshold, categories):
    """The selectable cells (set, at or above ``threshold``, category
    not excluded) as row, column and score arrays sorted by descending
    score, then source path, then target path; and ``categories`` as a
    code grid over the matrix (all -1, unset, for ``None``)."""
    if isinstance(categories, CategoryView) and categories.matrix is matrix:
        codes = matrix.category_codes
    else:
        codes = np.full(matrix.scores.shape, -1, dtype=np.int8)
        for pair, value in (categories or {}).items():
            cell = matrix.cell(*pair)
            if cell is not None:
                codes[cell] = CATEGORY_CODES[value]
    # An unset (NaN) score compares False.
    keep = (matrix.scores >= threshold) & ~np.isin(
        codes, [CATEGORY_CODES[value] for value in EXCLUDED_CATEGORIES])
    rows, columns = np.nonzero(keep)
    scores = matrix.scores[rows, columns]
    # Each path's rank in string order; sorting by ranks sorts by paths.
    s_rank = np.argsort(np.argsort(matrix.source_paths))
    t_rank = np.argsort(np.argsort(matrix.target_paths))
    order = np.lexsort((t_rank[columns], s_rank[rows], -scores))
    return rows[order], columns[order], scores[order], codes


def _first_free(rows, columns, walk) -> list[int]:
    """The cells, in ``walk`` order, a greedy walk accepts: those whose
    source and target are both still free when reached."""
    taken_sources, taken_targets, accepted = set(), set(), []
    rows, columns = rows.tolist(), columns.tolist()
    for position in walk:
        if rows[position] in taken_sources or columns[position] in taken_targets:
            continue
        taken_sources.add(rows[position])
        taken_targets.add(columns[position])
        accepted.append(position)
    return accepted


def _correspondences(matrix, rows, columns, scores, codes, picked=None):
    """Correspondences of the ``picked`` cells (default all), in cell
    order: by descending score, then source path, then target path."""
    if picked is not None:
        picked = np.sort(np.array(picked, dtype=np.intp))
        rows, columns, scores = rows[picked], columns[picked], scores[picked]
    values = [CATEGORY_VALUES[code] for code in codes[rows, columns].tolist()]
    return [
        Correspondence(matrix.source_paths[row], matrix.target_paths[column],
                       score, category=value)
        for row, column, score, value in zip(
            rows.tolist(), columns.tolist(), scores.tolist(), values)
    ]


def greedy_one_to_one(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                      categories=None) -> list[Correspondence]:
    """Greedy descending-score one-to-one selection."""
    rows, columns, scores, codes = _cells(matrix, threshold, categories)
    return _correspondences(matrix, rows, columns, scores, codes,
                            _first_free(rows, columns, range(rows.size)))


def stable_marriage(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                    categories=None) -> list[Correspondence]:
    """Gale-Shapley stable matching (sources propose).

    Within one target, the cell order (descending score, then source
    path) is the target's ranking of its suitors, so a cell's position
    ranks its source: lower is preferred.
    """
    rows, columns, scores, codes = _cells(matrix, threshold, categories)
    row_of, column_of = rows.tolist(), columns.tolist()
    preferences: dict[int, list[int]] = {}  # source -> its cells, best first
    for position, row in enumerate(row_of):
        preferences.setdefault(row, []).append(position)

    free = list(preferences)
    next_proposal = dict.fromkeys(preferences, 0)
    engaged_to: dict[int, int] = {}  # target -> cell
    while free:
        source = free.pop()
        prefs = preferences[source]
        while next_proposal[source] < len(prefs):
            position = prefs[next_proposal[source]]
            next_proposal[source] += 1
            current = engaged_to.get(column_of[position])
            if current is None or position < current:
                engaged_to[column_of[position]] = position
                if current is not None:
                    free.append(row_of[current])
                break
        # else: source stays unmatched.
    return _correspondences(matrix, rows, columns, scores, codes,
                            list(engaged_to.values()))


#: Parent-context weight of the hierarchical strategy.
HIERARCHICAL_PARENT_WEIGHT = 0.2


def hierarchical_greedy(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                        categories=None,
                        parent_weight=HIERARCHICAL_PARENT_WEIGHT
                        ) -> list[Correspondence]:
    """Greedy one-to-one selection with parent-context tie-breaking.

    Schema trees carry context the flat greedy ignores: when two
    candidate targets score alike (``Journal/Name`` vs ``Author/Name``
    for a source ``Author/LastName``), the one whose *parent* aligns
    with the source's parent is the right pick.  Pairs are ranked by
    ``(1 - w) * score + w * parent_pair_score`` (roots use their own
    score as parent context, an unset parent pair counts 0); the
    reported correspondence keeps the original score.  Thresholding
    still applies to the original score.
    """
    if not 0.0 <= parent_weight < 1.0:
        raise ValueError(f"parent_weight must be in [0, 1), got {parent_weight}")
    rows, columns, scores, codes = _cells(matrix, threshold, categories)
    s_parent = np.array([matrix.row_index.get(path.rpartition("/")[0], -1)
                         for path in matrix.source_paths], dtype=np.intp)[rows]
    t_parent = np.array([matrix.column_index.get(path.rpartition("/")[0], -1)
                         for path in matrix.target_paths], dtype=np.intp)[columns]
    context = np.where((s_parent >= 0) & (t_parent >= 0),
                       np.nan_to_num(matrix.scores[s_parent, t_parent]),
                       scores)
    adjusted = (1 - parent_weight) * scores + parent_weight * context
    # A stable sort keeps the cell order among equal adjusted scores.
    walk = np.argsort(-adjusted, kind="stable").tolist()
    return _correspondences(matrix, rows, columns, scores, codes,
                            _first_free(rows, columns, walk))


def threshold_all_pairs(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                        categories=None) -> list[Correspondence]:
    """Every pair at or above threshold (may be many-to-many)."""
    return _correspondences(matrix, *_cells(matrix, threshold, categories))


_STRATEGIES = {
    "greedy": greedy_one_to_one,
    "hierarchical": hierarchical_greedy,
    "stable": stable_marriage,
    "all": threshold_all_pairs,
}

#: The strategy names :func:`select_correspondences` accepts.
STRATEGY_NAMES = tuple(_STRATEGIES)


def select_correspondences(matrix: ScoreMatrix, strategy="greedy",
                           threshold=DEFAULT_THRESHOLD, categories=None):
    """Dispatch by strategy name (``greedy`` / ``stable`` / ``all``)."""
    try:
        select = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown selection strategy {strategy!r}; "
            f"expected one of {sorted(_STRATEGIES)}"
        ) from None
    return select(matrix, threshold=threshold, categories=categories)
