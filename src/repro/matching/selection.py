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

from repro.matching.result import Correspondence, ScoreMatrix

#: Default acceptance threshold; matches the QMatch child-match threshold.
DEFAULT_THRESHOLD = 0.5

#: Qualitative categories that disqualify a pair from selection even
#: when its numeric score clears the threshold.  QMatch's Eq. 2 gives
#: every leaf pair a baseline of WH + WC regardless of label evidence;
#: pairs the taxonomy itself classifies as "no-match" are not matches.
EXCLUDED_CATEGORIES = frozenset({"no-match"})


def _thresholded_pairs(matrix: ScoreMatrix, threshold, categories=None):
    pairs = [
        (score, s_path, t_path)
        for (s_path, t_path), score in matrix.items()
        if score >= threshold
        and (
            categories is None
            or categories.get((s_path, t_path)) not in EXCLUDED_CATEGORIES
        )
    ]
    # Deterministic order: score desc, then paths asc.
    pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
    return pairs


def greedy_one_to_one(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                      categories=None) -> list[Correspondence]:
    """Greedy descending-score one-to-one selection."""
    taken_sources, taken_targets = set(), set()
    selected = []
    for score, s_path, t_path in _thresholded_pairs(matrix, threshold, categories):
        if s_path in taken_sources or t_path in taken_targets:
            continue
        taken_sources.add(s_path)
        taken_targets.add(t_path)
        selected.append(Correspondence(
            s_path, t_path, score,
            category=categories.get((s_path, t_path)) if categories else None,
        ))
    return selected


def stable_marriage(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                    categories=None) -> list[Correspondence]:
    """Gale-Shapley stable matching (sources propose)."""
    preferences: dict[str, list[str]] = {}
    scores: dict[tuple[str, str], float] = {}
    target_prefs: dict[str, dict[str, int]] = {}
    for score, s_path, t_path in _thresholded_pairs(matrix, threshold, categories):
        preferences.setdefault(s_path, []).append(t_path)
        scores[(s_path, t_path)] = score
    for (s_path, t_path), score in scores.items():
        target_prefs.setdefault(t_path, {})
    # Rank sources per target by score (higher is better).
    for t_path, ranking in target_prefs.items():
        suitors = sorted(
            (s for (s, t) in scores if t == t_path),
            key=lambda s: (-scores[(s, t_path)], s),
        )
        for rank, s_path in enumerate(suitors):
            ranking[s_path] = rank

    free = list(preferences)
    next_proposal = {s: 0 for s in preferences}
    engaged_to: dict[str, str] = {}  # target -> source
    while free:
        s_path = free.pop()
        prefs = preferences[s_path]
        while next_proposal[s_path] < len(prefs):
            t_path = prefs[next_proposal[s_path]]
            next_proposal[s_path] += 1
            current = engaged_to.get(t_path)
            if current is None:
                engaged_to[t_path] = s_path
                break
            if target_prefs[t_path][s_path] < target_prefs[t_path][current]:
                engaged_to[t_path] = s_path
                free.append(current)
                break
        # else: source stays unmatched.
    selected = [
        Correspondence(
            s_path, t_path, scores[(s_path, t_path)],
            category=categories.get((s_path, t_path)) if categories else None,
        )
        for t_path, s_path in engaged_to.items()
    ]
    selected.sort(key=lambda c: (-c.score, c.source_path, c.target_path))
    return selected


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
    score as parent context); the reported correspondence keeps the
    original score.  Thresholding still applies to the original score.
    """
    if not 0.0 <= parent_weight < 1.0:
        raise ValueError(f"parent_weight must be in [0, 1), got {parent_weight}")
    ranked = []
    for score, s_path, t_path in _thresholded_pairs(matrix, threshold, categories):
        s_parent = s_path.rpartition("/")[0]
        t_parent = t_path.rpartition("/")[0]
        if s_parent and t_parent:
            context = matrix.get_by_path(s_parent, t_parent)
        else:
            context = score
        adjusted = (1 - parent_weight) * score + parent_weight * context
        ranked.append((adjusted, score, s_path, t_path))
    ranked.sort(key=lambda item: (-item[0], -item[1], item[2], item[3]))
    taken_sources, taken_targets = set(), set()
    selected = []
    for adjusted, score, s_path, t_path in ranked:
        if s_path in taken_sources or t_path in taken_targets:
            continue
        taken_sources.add(s_path)
        taken_targets.add(t_path)
        selected.append(Correspondence(
            s_path, t_path, score,
            category=categories.get((s_path, t_path)) if categories else None,
        ))
    selected.sort(key=lambda c: (-c.score, c.source_path, c.target_path))
    return selected


def threshold_all_pairs(matrix: ScoreMatrix, threshold=DEFAULT_THRESHOLD,
                        categories=None) -> list[Correspondence]:
    """Every pair at or above threshold (may be many-to-many)."""
    return [
        Correspondence(
            s_path, t_path, score,
            category=categories.get((s_path, t_path)) if categories else None,
        )
        for score, s_path, t_path in _thresholded_pairs(matrix, threshold, categories)
    ]


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
