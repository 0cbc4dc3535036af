"""The XML match taxonomy (paper Section 2).

Qualitative classification of a match between two XML-Schema nodes:

- **leaf matches** compare the label and properties axes and classify as
  *leaf-exact* (both axes exact) or *leaf-relaxed* (label matches but
  something is relaxed);
- **subtree / tree matches** add the children and level axes and
  classify as *total-exact*, *total-relaxed*, *partial-exact* or
  *partial-relaxed*, combining the coverage of the children axis
  (total / partial) with the strength of the atomic axes and of the
  individual child matches, exactly per Section 2.2:

  - *total exact*: exact on label, properties and level, and every child
    of the source has an exact match among the target's children;
  - *total relaxed*: full child coverage, but one or more relaxed
    matches along an atomic axis or among the children;
  - *partial exact*: exact atomic axes, but only some children match
    (all of those exactly);
  - *partial relaxed*: partial child coverage with relaxation anywhere.

``NO_MATCH`` is the fall-through: a label that fails to match for a
leaf, or zero matching children for an interior node whose label also
fails.
"""

from __future__ import annotations

import enum

from repro.matching.classes import MatchCategory, MatchStrength


class CoverageLevel(enum.Enum):
    """Children-axis coverage (paper Section 2.1, "Coverage Match")."""

    TOTAL = "total"
    PARTIAL = "partial"
    NONE = "none"

    def __str__(self):
        return self._value_  # the plain attribute behind ``value``


def classify_leaf(label: MatchStrength, properties: MatchStrength) -> MatchCategory:
    """Classify a leaf-to-leaf match from its label and properties axes.

    The paper defines leaf-exact as exact on both axes and leaf-relaxed
    as "either the label or any of the properties" matching relaxed.  A
    label that does not match at all makes the pair a non-match; a fully
    failed properties axis degrades the pair to relaxed rather than
    killing it (labels dominate leaf identity).
    """
    if label is MatchStrength.NONE:
        return MatchCategory.NO_MATCH
    if label is MatchStrength.EXACT and properties is MatchStrength.EXACT:
        return MatchCategory.LEAF_EXACT
    return MatchCategory.LEAF_RELAXED


def classify_subtree(label: MatchStrength, properties: MatchStrength,
                     level: MatchStrength, coverage: CoverageLevel,
                     children: MatchStrength) -> MatchCategory:
    """Classify an interior-node match per Section 2.2.

    ``children`` is the rolled-up strength of the individual child
    matches: EXACT when every matched child pair is itself exact,
    RELAXED otherwise.  ``level`` is EXACT for equal nesting levels and
    NONE otherwise (the paper: a relaxed level match "is synonymous with
    no match"); for category purposes a failed level axis counts as a
    relaxation, mirroring the paper's walk-through where ``Lines`` /
    ``Items`` stay *total relaxed* despite differing levels.

    A label that does not match at all makes the pair a non-match
    regardless of children coverage: every match category in the paper's
    Section 2 walk-through rests on at least a relaxed label match, and
    without that gate structurally-similar-but-unrelated containers
    (an ``authors`` group vs a ``customer`` group, say) would classify
    as matches.
    """
    if label is MatchStrength.NONE:
        return MatchCategory.NO_MATCH
    if coverage is CoverageLevel.NONE:
        # Label evidence without child coverage: weakest match grade.
        return MatchCategory.PARTIAL_RELAXED
    atomic_all_exact = (
        label is MatchStrength.EXACT
        and properties is MatchStrength.EXACT
        and level is MatchStrength.EXACT
    )
    children_all_exact = children is MatchStrength.EXACT
    if coverage is CoverageLevel.TOTAL:
        if atomic_all_exact and children_all_exact:
            return MatchCategory.TOTAL_EXACT
        return MatchCategory.TOTAL_RELAXED
    if atomic_all_exact and children_all_exact:
        return MatchCategory.PARTIAL_EXACT
    return MatchCategory.PARTIAL_RELAXED
