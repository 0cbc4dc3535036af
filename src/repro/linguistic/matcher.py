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

Used standalone it is the paper's *linguistic algorithm* baseline; QMatch
calls the same :meth:`LinguisticMatcher.compare_labels` internally for
its label axis, exactly as the paper prescribes ("we use the same
linguistic and structural algorithms internally within the QMatch
algorithm").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linguistic import string_metrics
from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokenizer import normalize, stem, tokenize
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
    and asserted on by the taxonomy tests.  Slotted: a context keeps one
    per distinct label pair, up to ~850k on Protein.
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
        # Token-level caches: schema vocabularies are small, so both the
        # per-label token preparation and the pairwise token similarity
        # are heavily reused across the n*m label comparisons.  Tokens
        # are interned to small ids; the similarity table holds one row
        # per left token id, mapping right token ids to
        # ``(score, mechanism)``, so an alignment fetches each row once
        # and never builds a key tuple.  Every entry is written in both
        # directions (token similarity is symmetric).
        self._token_ids: dict[str, int] = {}
        self._token_texts: list[str] = []
        self._token_rows: dict[int, dict[int, tuple[float, str]]] = {}
        self._prepared_cache: dict[str, list] = {}
        # Per distinct label, everything a comparison needs from one
        # side: (normalized form, synonym class of the normalized form,
        # acronym-expanded token ids, whether an acronym expanded).
        self._label_info: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Matcher protocol
    # ------------------------------------------------------------------

    def make_context(self, source, target, stats=None, cache_enabled=True,
                     tracer=None):
        from repro.engine.context import MatchContext

        return MatchContext(
            source, target, linguistic=self,
            stats=stats, cache_enabled=cache_enabled, tracer=tracer,
        )

    def match_context(self, ctx) -> ScoreMatrix:
        source, target = ctx.source_table, ctx.target_table
        # Rows and columns in preorder, the matrix's historical order.
        s_order = [source.index[id(node)] for node in ctx.source_preorder]
        t_order = [target.index[id(node)] for node in ctx.target_preorder]
        scores, _ = ctx.node_label_grids()
        matrix = ScoreMatrix(ctx.source, ctx.target)
        matrix.set_grid([source.paths[i] for i in s_order],
                        [target.paths[j] for j in t_order],
                        scores[np.ix_(s_order, t_order)].ravel().tolist())
        ctx.stats.count("linguistic.pairs", len(matrix))
        return matrix

    # ------------------------------------------------------------------
    # Label comparison
    # ------------------------------------------------------------------

    def compare_labels(self, left: str, right: str) -> LabelComparison:
        """Compare two labels.

        Not memoized per label pair (``MatchContext.label_comparison``
        is); the per-label and per-token-pair work underneath is.
        """
        config = self.config
        left_norm, left_class, left_tokens, left_acronym = (
            self._label_info.get(left) or self._prepare_label(left)
        )
        right_norm, right_class, right_tokens, right_acronym = (
            self._label_info.get(right) or self._prepare_label(right)
        )
        if not left_norm or not right_norm:
            return LabelComparison(0.0, MatchStrength.NONE, "empty")
        if left_norm == right_norm:
            return LabelComparison(1.0, MatchStrength.EXACT, "string")
        # Distinct normalized words are synonyms exactly when they share
        # a thesaurus synonym class.
        if left_class is not None and left_class == right_class:
            return LabelComparison(1.0, MatchStrength.EXACT, "synonym")

        score, all_exact, full_coverage = self._align_tokens(
            left_tokens, right_tokens
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

    def _prepare_label(self, label):
        """Compute and cache the per-label part of a comparison, so a
        label is normalized, tokenized and acronym-expanded once per
        matcher instead of once per label it is compared with."""
        norm = normalize(label)
        expanded, used_acronym = self._expand_acronyms(
            self._prepare_tokens(label)
        )
        info = (
            norm,
            self.thesaurus.synonym_class(norm) if norm else None,
            tuple(self._token_id(token) for token in expanded),
            used_acronym,
        )
        self._label_info[label] = info
        return info

    # ------------------------------------------------------------------
    # Token machinery
    # ------------------------------------------------------------------

    def _prepare_tokens(self, label):
        tokens = self._prepared_cache.get(label)
        if tokens is None:
            tokens = tokenize(label, keep_numbers=self.config.keep_numbers)
            if len(tokens) > 1:
                filtered = [t for t in tokens if t not in self.config.stopwords]
                if filtered:
                    tokens = filtered
            self._prepared_cache[label] = tokens
        return tokens

    def _expand_acronyms(self, tokens):
        """Replace acronym tokens with their expansions.

        Returns ``(expanded_tokens, any_expansion_happened)``.  A
        thesaurus acronym entry is sufficient evidence on its own (the
        token has already been lower-cased, so shape heuristics no
        longer apply).
        """
        expanded = []
        used = False
        for token in tokens:
            expansion = self.thesaurus.expand_acronym(token)
            if expansion is not None:
                filtered = [w for w in expansion if w not in self.config.stopwords]
                expanded.extend(filtered or expansion)
                used = True
            else:
                expanded.append(token)
        return expanded, used

    def _token_id(self, token):
        token_id = self._token_ids.get(token)
        if token_id is None:
            token_id = self._token_ids[token] = len(self._token_texts)
            self._token_texts.append(token)
        return token_id

    def _align_tokens(self, left_tokens, right_tokens):
        """Greedy one-to-one alignment; returns (score, all_exact, full_coverage).

        ``left_tokens`` / ``right_tokens`` are interned token ids.  Score
        is Cupid-flavoured coverage: matched pairs contribute their
        similarity from *both* sides, normalized by the total token count
        of both labels, so unmatched tokens on either side dilute it.
        """
        if not left_tokens or not right_tokens:
            return 0.0, False, False
        if len(left_tokens) == 1 and len(right_tokens) == 1:
            # One candidate pair: the greedy pass below reduces to it,
            # with the same float operations.
            pair_score, mechanism = self._token_similarity(
                left_tokens[0], right_tokens[0]
            )
            if pair_score > 0:
                all_exact = not (
                    mechanism not in ("exact", "synonym") or pair_score < 1.0
                )
                return 2.0 * pair_score / 2, all_exact, True
            return 0.0, False, False
        candidates = []
        for i, left_token in enumerate(left_tokens):
            row = self._token_row(left_token)
            for j, right_token in enumerate(right_tokens):
                pair_score, mechanism = (
                    row.get(right_token)
                    or self._token_similarity(left_token, right_token)
                )
                if pair_score > 0:
                    candidates.append((-pair_score, i, j, mechanism))
        if not candidates:
            return 0.0, False, False
        # (i, j) is unique per candidate, so this orders by descending
        # score, then i, then j -- never by mechanism.
        candidates.sort()
        taken_left, taken_right = set(), set()
        matched_sum = 0.0
        matched_pairs = 0
        all_exact = True
        for negated_score, i, j, mechanism in candidates:
            if i in taken_left or j in taken_right:
                continue
            taken_left.add(i)
            taken_right.add(j)
            pair_score = -negated_score
            matched_sum += pair_score
            matched_pairs += 1
            if mechanism not in ("exact", "synonym") or pair_score < 1.0:
                all_exact = False
        total_tokens = len(left_tokens) + len(right_tokens)
        score = 2.0 * matched_sum / total_tokens
        full_coverage = (
            matched_pairs == len(left_tokens) == len(right_tokens)
        )
        return score, all_exact, full_coverage

    def _token_row(self, token_id):
        """The similarity row of one token id (created empty)."""
        row = self._token_rows.get(token_id)
        if row is None:
            row = self._token_rows[token_id] = {}
        return row

    def _token_similarity(self, left, right):
        """Score one token-id pair; returns ``(score, mechanism)``.  Cached.

        Scored on the text-ordered pair, so the entry written both ways
        is the same whichever direction a job happened to ask first.
        """
        row = self._token_row(left)
        cached = row.get(right)
        if cached is None:
            texts = self._token_texts
            left_text, right_text = texts[left], texts[right]
            if right_text < left_text:
                left_text, right_text = right_text, left_text
            cached = row[right] = self._token_similarity_uncached(
                left_text, right_text
            )
            self._token_row(right)[left] = cached
        return cached

    def resident_entries(self) -> int:
        """Token similarity entries (a scored pair holds two, one per
        direction), interned tokens, and per-label preparations."""
        return (
            sum(map(len, self._token_rows.values())) + len(self._token_ids)
            + len(self._prepared_cache) + len(self._label_info)
        )

    def _token_similarity_uncached(self, left, right):
        config = self.config
        if left == right:
            return 1.0, "exact"
        if left.isdigit() or right.isdigit():
            # Numeric tokens only ever match exactly.
            return 0.0, "numeric"
        left_stem = stem(left) if config.use_stemming else left
        right_stem = stem(right) if config.use_stemming else right
        if left_stem == right_stem:
            return 1.0, "exact"
        if self.thesaurus.are_synonyms(left_stem, right_stem,
                                       expand_abbreviations=False):
            return config.synonym_score, "synonym"
        if self._abbreviation_related(left, right, left_stem, right_stem):
            return config.abbreviation_score, "abbreviation"
        distance = self.thesaurus.hypernym_distance(
            left_stem, right_stem, max_distance=config.max_hypernym_distance
        )
        if distance is not None:
            score = config.hypernym_score - config.hypernym_decay * (distance - 1)
            return max(score, 0.0), "hypernym"
        blended = string_metrics.blended_similarity(left_stem, right_stem)
        # Cap string-only evidence below thesaurus-backed evidence.
        return min(blended, config.abbreviation_score), "string"

    def _abbreviation_related(self, left, right, left_stem, right_stem):
        expansion_left = self.thesaurus.expand_abbreviation(left)
        expansion_right = self.thesaurus.expand_abbreviation(right)
        if expansion_left and (
            expansion_left == right
            or expansion_left == right_stem
            or self.thesaurus.are_synonyms(expansion_left, right_stem)
        ):
            return True
        if expansion_right and (
            expansion_right == left
            or expansion_right == left_stem
            or self.thesaurus.are_synonyms(expansion_right, left_stem)
        ):
            return True
        return False
