"""Cupid-style linguistic matcher.

Compares two schema labels and produces both a similarity in ``[0, 1]``
and the qualitative classification the QMatch taxonomy needs
(Section 2.1 of the paper):

- **exact** -- identical normalized strings, or thesaurus synonyms;
- **relaxed** -- related through an acronym, abbreviation or hypernym,
  or sufficiently similar token-by-token;
- **none** -- below the relaxed threshold.

The comparison pipeline per label pair:

1. normalized string equality -> exact / 1.0;
2. whole-label synonym lookup -> exact / 1.0;
3. tokenization (camelCase, delimiters, digits), acronym expansion of
   acronym-shaped tokens, stop-word removal;
4. greedy one-to-one token alignment, each token pair scored through
   (in priority order) exact/stem equality, synonymy, abbreviation,
   hypernymy, then a string-metric blend;
5. coverage-weighted aggregation (Cupid-style: sum of matched-token
   scores from both sides over total token count).

Steps 3-4 and their caches live in the thesaurus's token lexicon for
the matcher's config (:mod:`repro.linguistic.lexicon`), which every
matcher on that thesaurus shares.

Used standalone it is the paper's *linguistic algorithm* baseline; QMatch
calls the same :meth:`LinguisticMatcher.compare_labels` internally for
its label axis, exactly as the paper prescribes ("we use the same
linguistic and structural algorithms internally within the QMatch
algorithm").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.linguistic.lexicon import Lexicon
from repro.linguistic.thesaurus import Thesaurus
from repro.matching.base import Matcher
from repro.matching.classes import MatchStrength
from repro.matching.result import ScoreMatrix

#: Tokens ignored during alignment when other tokens exist.
DEFAULT_STOPWORDS = frozenset(
    {"of", "the", "a", "an", "to", "for", "in", "on", "by", "and", "or"}
)


@dataclass(frozen=True)
class LinguisticConfig:
    """Tunable knobs of the linguistic matcher.

    ``relaxed_threshold`` is the minimum blended similarity for a pair to
    classify as a relaxed label match; scores below it classify as NONE
    (the numeric score is still reported).
    """

    relaxed_threshold: float = 0.5
    synonym_score: float = 1.0
    abbreviation_score: float = 0.9
    acronym_score: float = 0.9
    hypernym_score: float = 0.8
    hypernym_decay: float = 0.15
    max_hypernym_distance: int = 2
    use_stemming: bool = True
    keep_numbers: bool = True
    stopwords: frozenset = DEFAULT_STOPWORDS


@dataclass(frozen=True, slots=True)
class LabelComparison:
    """Outcome of comparing two labels.

    ``mechanism`` names the dominant evidence ("string", "synonym",
    "acronym", "abbreviation", "hypernym", "tokens") -- useful in reports
    and asserted on by the taxonomy tests.  A context's label memo keeps
    each distinct label pair's fields, not this object (~850k pairs on
    Protein), and builds one when a caller reads a pair.
    """

    score: float
    strength: MatchStrength
    mechanism: str

    @property
    def is_exact(self):
        return self.strength is MatchStrength.EXACT

    @property
    def is_relaxed(self):
        return self.strength is MatchStrength.RELAXED


class LinguisticMatcher(Matcher):
    """The linguistic algorithm: label-axis similarity for all node pairs."""

    name = "linguistic"

    def __init__(self, thesaurus=None, config=None):
        self.thesaurus = thesaurus if thesaurus is not None else Thesaurus.default()
        self.config = config or LinguisticConfig()
        # Label pairs are memoized per match in ``MatchContext``, not
        # here: a matcher may stay resident across jobs, and a label
        # memo kept here would grow with every job's n*m label pairs.
        # The per-label and per-token-pair work underneath lives in the
        # thesaurus's lexicon for this config, shared by every matcher
        # on that thesaurus (:mod:`repro.linguistic.lexicon`).

    def lexicon(self) -> Lexicon:
        """The token lexicon this matcher's comparisons use now."""
        return self.thesaurus.lexicon(self.config)

    # ------------------------------------------------------------------
    # Matcher protocol
    # ------------------------------------------------------------------

    @property
    def linguistic(self):
        """The label service of this matcher's contexts: itself."""
        return self

    def match_context(self, ctx) -> ScoreMatrix:
        source, target = ctx.source_table, ctx.target_table
        # Rows and columns in preorder, the matrix's historical order.
        s_order = [source.index[id(node)] for node in ctx.source_preorder]
        t_order = [target.index[id(node)] for node in ctx.target_preorder]
        scores, _ = ctx.node_label_grids()
        matrix = ScoreMatrix(ctx.source, ctx.target, "preorder",
                             scores[np.ix_(s_order, t_order)])
        ctx.stats.count("linguistic.pairs", len(matrix))
        return matrix

    # ------------------------------------------------------------------
    # Label comparison
    # ------------------------------------------------------------------

    def compare_labels(self, left: str, right: str,
                       lexicon: Optional[Lexicon] = None) -> LabelComparison:
        """Compare two labels.

        Not memoized per label pair (``MatchContext.label_comparison``
        is); the per-label and per-token-pair work underneath is, in
        ``lexicon``.  A match passes the one lexicon it fetched when it
        started (:meth:`lexicon`); a lone call fetches the current one.
        """
        if lexicon is None:
            lexicon = self.lexicon()
        config = self.config
        labels = lexicon.labels
        left_norm, left_class, left_tokens, left_acronym, _ = (
            labels.get(left) or lexicon.prepare_label(left)
        )
        right_norm, right_class, right_tokens, right_acronym, best_twos = (
            labels.get(right) or lexicon.prepare_label(right)
        )
        if not left_norm or not right_norm:
            return LabelComparison(0.0, MatchStrength.NONE, "empty")
        if left_norm == right_norm:
            return LabelComparison(1.0, MatchStrength.EXACT, "string")
        # Distinct normalized words are synonyms exactly when they share
        # a thesaurus synonym class.
        if left_class is not None and left_class == right_class:
            return LabelComparison(1.0, MatchStrength.EXACT, "synonym")

        score, all_exact, full_coverage = lexicon.align(
            left_tokens, right_tokens, best_twos
        )
        if left_acronym or right_acronym:
            # An acronym-mediated match is at best relaxed (paper 2.1).
            score = min(score, config.acronym_score)
            if score >= config.relaxed_threshold:
                return LabelComparison(score, MatchStrength.RELAXED, "acronym")
            return LabelComparison(score, MatchStrength.NONE, "acronym")
        if all_exact and full_coverage:
            return LabelComparison(1.0, MatchStrength.EXACT, "tokens")
        if score >= config.relaxed_threshold:
            return LabelComparison(score, MatchStrength.RELAXED, "tokens")
        return LabelComparison(score, MatchStrength.NONE, "tokens")
