"""Frozen, test-only reference of correspondence selection over pairs.

This is the selection the array strategies in
:mod:`repro.matching.selection` replaced, kept verbatim in behaviour:
every strategy walks ``matrix.items()`` as Python tuples, sorts them by
(-score, source path, target path) and reads categories and parent
context per pair through path lookups.  :func:`refine_reference` is the
matching frozen form of :func:`repro.matching.refine.refine`'s
selection step, which hid constrained pairs behind a masked view.
``tests/test_selection_equivalence.py`` compares the array strategies
against these on generated matrices; do not change them to follow the
shipped code.
"""

from __future__ import annotations

from repro.matching.result import Correspondence

EXCLUDED_CATEGORIES = frozenset({"no-match"})
HIERARCHICAL_PARENT_WEIGHT = 0.2


def _thresholded_pairs(matrix, threshold, categories=None):
    pairs = [
        (score, s_path, t_path)
        for (s_path, t_path), score in matrix.items()
        if score >= threshold
        and (
            categories is None
            or categories.get((s_path, t_path)) not in EXCLUDED_CATEGORIES
        )
    ]
    pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
    return pairs


def greedy_one_to_one(matrix, threshold, categories=None):
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


def stable_marriage(matrix, threshold, categories=None):
    preferences: dict[str, list[str]] = {}
    scores: dict[tuple[str, str], float] = {}
    target_prefs: dict[str, dict[str, int]] = {}
    for score, s_path, t_path in _thresholded_pairs(matrix, threshold, categories):
        preferences.setdefault(s_path, []).append(t_path)
        scores[(s_path, t_path)] = score
    for (s_path, t_path), score in scores.items():
        target_prefs.setdefault(t_path, {})
    for t_path, ranking in target_prefs.items():
        suitors = sorted(
            (s for (s, t) in scores if t == t_path),
            key=lambda s: (-scores[(s, t_path)], s),
        )
        for rank, s_path in enumerate(suitors):
            ranking[s_path] = rank

    free = list(preferences)
    next_proposal = {s: 0 for s in preferences}
    engaged_to: dict[str, str] = {}
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
    selected = [
        Correspondence(
            s_path, t_path, scores[(s_path, t_path)],
            category=categories.get((s_path, t_path)) if categories else None,
        )
        for t_path, s_path in engaged_to.items()
    ]
    selected.sort(key=lambda c: (-c.score, c.source_path, c.target_path))
    return selected


def hierarchical_greedy(matrix, threshold, categories=None,
                        parent_weight=HIERARCHICAL_PARENT_WEIGHT):
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


def threshold_all_pairs(matrix, threshold, categories=None):
    return [
        Correspondence(
            s_path, t_path, score,
            category=categories.get((s_path, t_path)) if categories else None,
        )
        for score, s_path, t_path in _thresholded_pairs(matrix, threshold, categories)
    ]


STRATEGIES = {
    "greedy": greedy_one_to_one,
    "hierarchical": hierarchical_greedy,
    "stable": stable_marriage,
    "all": threshold_all_pairs,
}


class _MaskedMatrix:
    """Read-only view hiding constrained pairs from ``items`` while
    ``get_by_path`` still reads the whole matrix."""

    def __init__(self, matrix, taken_sources, taken_targets, rejected):
        self._matrix = matrix
        self._taken_sources = taken_sources
        self._taken_targets = taken_targets
        self._rejected = rejected

    def items(self):
        for (s_path, t_path), score in self._matrix.items():
            if s_path in self._taken_sources or t_path in self._taken_targets:
                continue
            if (s_path, t_path) in self._rejected:
                continue
            yield (s_path, t_path), score

    def get_by_path(self, source_path, target_path, default=0.0):
        return self._matrix.get_by_path(source_path, target_path, default)


def refine_reference(matrix, categories, accepted, rejected, threshold,
                     strategy):
    """The correspondences ``refine`` returns for consistent feedback
    (``categories`` a plain dict or ``None``)."""
    forced = [
        Correspondence(
            s_path, t_path, matrix.get_by_path(s_path, t_path),
            category=(categories or {}).get((s_path, t_path)),
        )
        for s_path, t_path in accepted
    ]
    masked = _MaskedMatrix(matrix, {s for s, _ in accepted},
                           {t for _, t in accepted}, set(rejected))
    remaining = STRATEGIES[strategy](masked, threshold, categories)
    return sorted(
        forced + remaining,
        key=lambda c: (-c.score, c.source_path, c.target_path),
    )


def top_candidates_reference(matrix, source_path, k):
    candidates = [
        (t_path, score)
        for (s_path, t_path), score in matrix.items()
        if s_path == source_path
    ]
    candidates.sort(key=lambda item: (-item[1], item[0]))
    return candidates[:k]
