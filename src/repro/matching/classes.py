"""Qualitative match strength shared across axes and matchers.

The paper classifies a match along each atomic axis (label, properties,
level) as *exact* or *relaxed*; "no match" is the implicit third value.
:class:`MatchStrength` encodes that three-way outcome with an ordering
(EXACT > RELAXED > NONE) so consensus rules ("relaxed if the consensus of
the individual property matches is relaxed") are simple ``min``s.
"""

from __future__ import annotations

import enum
import functools


@functools.total_ordering
class MatchStrength(enum.Enum):
    """Exact / relaxed / none, ordered by goodness."""

    NONE = 0
    RELAXED = 1
    EXACT = 2

    def __lt__(self, other):
        if not isinstance(other, MatchStrength):
            return NotImplemented
        return self.value < other.value

    def __str__(self):
        # ``_name_`` is the plain attribute behind the ``name`` property;
        # trace recording stringifies strengths once per scored pair.
        return self._name_.lower()

    @property
    def is_match(self) -> bool:
        """True for EXACT and RELAXED."""
        return self is not MatchStrength.NONE


class MatchCategory(enum.Enum):
    """The taxonomy's qualitative match categories, best first:
    :mod:`repro.core.taxonomy` classifies pairs into them, and a score
    matrix codes each by its position here."""

    TOTAL_EXACT = "total-exact"
    TOTAL_RELAXED = "total-relaxed"
    PARTIAL_EXACT = "partial-exact"
    PARTIAL_RELAXED = "partial-relaxed"
    LEAF_EXACT = "leaf-exact"
    LEAF_RELAXED = "leaf-relaxed"
    NO_MATCH = "no-match"

    def __str__(self):
        return self._value_  # the plain attribute behind ``value``

    @property
    def is_match(self):
        return self is not MatchCategory.NO_MATCH

    @property
    def is_exact(self):
        """Categories that count as an *exact* child match when rolling
        the children axis up to the parent (Section 2.2)."""
        return self in (MatchCategory.LEAF_EXACT, MatchCategory.TOTAL_EXACT)


def consensus(strengths) -> MatchStrength:
    """Combine per-item strengths into an axis strength.

    The paper's rule for the properties axis: exact iff *all* items are
    exact; relaxed if all items at least match but some are relaxed; none
    as soon as any item fails to match.  An empty collection is exact
    (nothing to disagree about).
    """
    result = MatchStrength.EXACT
    for strength in strengths:
        if strength is MatchStrength.NONE:
            return MatchStrength.NONE
        if strength is MatchStrength.RELAXED:
            result = strength
    return result
