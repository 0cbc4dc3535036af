"""The token lexicon: the linguistic matcher's work below the label pair.

Everything :class:`~repro.linguistic.matcher.LinguisticMatcher` computes
below a label pair -- a label's tokens, normalized form, synonym class
and acronym expansion, and each token pair's similarity -- depends only
on the thesaurus and the :class:`~repro.linguistic.matcher.LinguisticConfig`,
never on which match asked first.  So that work lives in one
:class:`Lexicon` per ``(thesaurus, config)``, owned by the thesaurus
(:meth:`~repro.linguistic.thesaurus.Thesaurus.lexicon`) and shared by
every matcher built on it: ``repro.match``, Cupid, the composites and
every job of a pool worker warm one table.  (The property matcher's
comparisons follow the same rule: :mod:`repro.properties.matcher`.)

A lexicon is bounded: once it holds more than :data:`MAX_LEXICON_ENTRIES`
entries, the thesaurus hands the next match a fresh one, and a thesaurus
keeps at most :data:`MAX_LEXICONS` configs' lexicons.  The check
runs only when a match fetches its lexicon, so one match reads one
lexicon from start to end.  Mutating the thesaurus drops its lexicons.

Matches on threads (the in-process batch runner with ``workers > 1``)
share a lexicon.  Token interning runs under the lexicon's lock, so a
token gets one id, and a raced label keeps its first preparation;
every other entry is a pure function of its key, so two threads that
race to write it write the same value.
"""

from __future__ import annotations

import threading

from repro.linguistic import string_metrics
from repro.linguistic.tokenizer import normalize, stem, tokenize

#: Entries (scored token pairs, one per direction, interned tokens,
#: per-label preparations and best-two entries) one lexicon holds
#: before the next match starts a fresh one.  A ``pair-match`` run
#: (seed 0) leaves ~45k entries, ~40k of them best-two entries, and a
#: ``corpus-rw`` run (seed 0) ~49k, ~23k of them; the full Protein pair
#: leaves ~189k, so the match after it starts afresh.  tracemalloc (Python
#: 3.11) puts a token-pair entry at ~45-80 B, a best-two entry at
#: ~120 B and a label at ~140-270 B, so a full lexicon holds ~10 MB.
MAX_LEXICON_ENTRIES = 100_000

#: Tables (lexicons and the corpus index's feature memos, one per
#: config) one thesaurus keeps; the oldest goes when another config
#: asks.  Every caller in this package uses the default configs, so one
#: lexicon and one feature memo are usual; the bound caps a config sweep.
MAX_LEXICONS = 4

#: The similarity of two different tokens when either is all digits.
#: Never stored: PDB labels carry many unique numbers, and these pairs
#: are ~97% of the token pairs a ``pair-match`` run would store.
NUMERIC_MISMATCH = (0.0, "numeric")


class Lexicon:
    """Per-label and per-token-pair work under one thesaurus and config.

    Tokens are interned to small ids.  The similarity table holds one
    row per token id, mapping other token ids to ``(score,
    mechanism)``, so an alignment fetches each row once and never
    builds a key tuple.  Every entry is written in both directions
    (token similarity is symmetric).

    Each prepared label also keeps its **best-two entries**: a dict
    from a left token id to that token's :meth:`_best_two` scan over
    the label's tokens.  A schema's labels reuse a few tokens (PIR's 231
    labels hold 425 token slots but 47 distinct tokens), so :meth:`align`
    scans each (left token, right label) pair once and reads it back
    afterwards.  A scan reads only token rows, so two threads that
    race write the same value; the entries count toward ``len``.
    """

    def __init__(self, thesaurus, config):
        self.thesaurus = thesaurus
        self.config = config
        self._token_ids: dict[str, int] = {}
        self._token_texts: list[str] = []
        self._token_rows: list[dict[int, tuple[float, str]]] = []
        # Per token id, whether the token is all digits: a row miss
        # between two different tokens, one of them numeric, is a
        # zero the alignment skips without scoring.
        self._numeric: list[bool] = []
        self._prepared_cache: dict[str, list] = {}
        #: Per distinct label, everything a comparison needs from one
        #: side: (normalized form, synonym class of the normalized form,
        #: acronym-expanded token ids, whether an acronym expanded,
        #: best-two entries by left token id).
        #: Read as ``labels.get(label) or prepare_label(label)``.
        self.labels: dict[str, tuple] = {}
        # Row entries and best-two entries, counted under the lock as
        # they are written.
        self._pairs = 0
        self._best_twos = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Entries held: token-pair row entries, tokens, labels and
        best-two entries."""
        return (self._pairs + len(self._token_texts)
                + len(self._prepared_cache) + len(self.labels)
                + self._best_twos)

    def full(self) -> bool:
        """Whether the lexicon holds more than :data:`MAX_LEXICON_ENTRIES`."""
        return len(self) > MAX_LEXICON_ENTRIES

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------

    def prepare_label(self, label):
        """Compute and store ``labels[label]``; a label another thread
        stored first keeps that entry, so its best-two entries live in
        one dict."""
        norm = normalize(label)
        expanded, used_acronym = self._expand_acronyms(
            self.prepared_tokens(label)
        )
        info = (
            norm,
            self.thesaurus.synonym_class(norm) if norm else None,
            tuple(self.token_id(token) for token in expanded),
            used_acronym,
            {},
        )
        return self.labels.setdefault(label, info)

    def prepared_tokens(self, label):
        """Tokenized, stop-word-filtered form of ``label``."""
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

    def token_id(self, token):
        token_id = self._token_ids.get(token)
        if token_id is None:
            with self._lock:
                token_id = self._token_ids.get(token)
                if token_id is None:
                    token_id = len(self._token_texts)
                    self._token_texts.append(token)
                    self._token_rows.append({})
                    self._numeric.append(token.isdigit())
                    # Published last: an id a reader can see already
                    # has its text and its row.
                    self._token_ids[token] = token_id
        return token_id

    # ------------------------------------------------------------------
    # Alignment
    # ------------------------------------------------------------------

    def align(self, left_tokens, right_tokens, best_twos):
        """Greedy one-to-one alignment; returns (score, all_exact, full_coverage).

        ``left_tokens`` / ``right_tokens`` are interned token ids.  Score
        is Cupid-flavoured coverage: matched pairs contribute their
        similarity from *both* sides, normalized by the total token count
        of both labels, so unmatched tokens on either side dilute it.

        A left label of one or two tokens picks the greedy pairs
        directly from each left token's best two pairs, read from
        ``best_twos`` -- the right label's best-two entries
        (``labels[label][4]``) -- or scanned and stored there.
        :meth:`align_sorted` is the general pass and the reference, and
        both take the same float operations.
        """
        if not left_tokens or not right_tokens:
            return 0.0, False, False
        if len(left_tokens) > 2:
            return self.align_sorted(left_tokens, right_tokens)
        first = left_tokens[0]
        best, best_j, second = best_twos.get(first) or self._best_two(
            first, right_tokens, best_twos
        )
        if len(left_tokens) == 2:
            last = left_tokens[1]
            other, other_j, other_second = (
                best_twos.get(last)
                or self._best_two(last, right_tokens, best_twos)
            )
            # The greedy pass takes the highest-scoring pair first,
            # preferring the first left token on a tie; then the best
            # pair of the other left token outside the taken column.
            if other is not None and (best is None or other[0] > best[0]):
                best, best_j, other, other_j, other_second = (
                    other, other_j, best, best_j, second
                )
            if other is not None and other_j == best_j:
                other = other_second
            if best is None:
                return 0.0, False, False
            if other is not None:
                matched_sum = 0.0 + best[0] + other[0]
                all_exact = _exact(best) and _exact(other)
                score = 2.0 * matched_sum / (2 + len(right_tokens))
                return score, all_exact, len(right_tokens) == 2
        elif best is None:
            return 0.0, False, False
        score = 2.0 * (0.0 + best[0]) / (len(left_tokens) + len(right_tokens))
        return score, _exact(best), len(left_tokens) == len(right_tokens) == 1

    def _best_two(self, left, right_tokens, best_twos):
        """The best ``(score, mechanism)`` of one left token over
        ``right_tokens`` with its position, and the second best, in the
        greedy order (higher score first, then the earlier position);
        ``None`` where no pair scores above zero.  Stored in
        ``best_twos`` under ``left``."""
        row = self._token_rows[left]
        numeric = self._numeric
        left_numeric = numeric[left]
        best = second = None
        best_j = -1
        best_score = second_score = 0.0
        for j, right in enumerate(right_tokens):
            pair = row.get(right)
            if pair is None:
                if (left_numeric or numeric[right]) and left != right:
                    continue
                pair = self.token_similarity(left, right)
            pair_score = pair[0]
            if pair_score > best_score:
                second, second_score = best, best_score
                best, best_j, best_score = pair, j, pair_score
            elif pair_score > second_score:
                second, second_score = pair, pair_score
        found = best, best_j, second
        with self._lock:
            if left not in best_twos:
                best_twos[left] = found
                self._best_twos += 1
        return found

    def align_sorted(self, left_tokens, right_tokens):
        """:meth:`align` by sorting every positive token pair: the
        general greedy pass."""
        if not left_tokens or not right_tokens:
            return 0.0, False, False
        rows = self._token_rows
        candidates = []
        for i, left_token in enumerate(left_tokens):
            row = rows[left_token]
            for j, right_token in enumerate(right_tokens):
                pair_score, mechanism = (
                    row.get(right_token)
                    or self.token_similarity(left_token, right_token)
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

    # ------------------------------------------------------------------
    # Token similarity
    # ------------------------------------------------------------------

    def token_similarity(self, left, right):
        """Score one token-id pair; returns ``(score, mechanism)``.  Cached,
        except for :data:`NUMERIC_MISMATCH`.

        Scored on the text-ordered pair, so the entry written both ways
        is the same whichever direction a match happened to ask first.
        """
        row = self._token_rows[left]
        cached = row.get(right)
        if cached is None:
            texts = self._token_texts
            left_text, right_text = texts[left], texts[right]
            if right_text < left_text:
                left_text, right_text = right_text, left_text
            cached = self.token_similarity_uncached(left_text, right_text)
            if cached is NUMERIC_MISMATCH:
                return cached
            with self._lock:
                if right not in row:
                    row[right] = cached
                    self._token_rows[right][left] = cached
                    self._pairs += 1 if left == right else 2
        return cached

    def token_similarity_uncached(self, left, right):
        """Score two token texts; returns ``(score, mechanism)``."""
        config = self.config
        if left == right:
            return 1.0, "exact"
        if left.isdigit() or right.isdigit():
            # Numeric tokens only ever match exactly.
            return NUMERIC_MISMATCH
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
        thesaurus = self.thesaurus
        expansion_left = thesaurus.expand_abbreviation(left)
        expansion_right = thesaurus.expand_abbreviation(right)
        if expansion_left and (
            expansion_left == right
            or expansion_left == right_stem
            or thesaurus.are_synonyms(expansion_left, right_stem)
        ):
            return True
        if expansion_right and (
            expansion_right == left
            or expansion_right == left_stem
            or thesaurus.are_synonyms(expansion_right, left_stem)
        ):
            return True
        return False


def _exact(pair) -> bool:
    """Whether an aligned ``(score, mechanism)`` pair keeps a label
    comparison exact (the general pass's per-pair test)."""
    return not (pair[1] not in ("exact", "synonym") or pair[0] < 1.0)
