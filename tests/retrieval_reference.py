"""Frozen, test-only reference of stage-1 corpus retrieval.

Two parts.  The first is the per-node feature extraction that
:func:`repro.corpus.indexes.schema_features` replaced: every node's
label tokenized, stemmed and thesaurus-expanded on its own, normalized
again for its shingles (and for its parent's), every shingle hashed
with blake2b, and the MinHash signature taken as plain-integer
``min((a*x + b) mod p)``.  ``tests/test_feature_equivalence.py``
compares the two.

The second is the per-document read path the column scorers in
:mod:`repro.corpus.segments` replaced, kept verbatim in behaviour: each
segment's packed payloads decode into per-document ``(token, tf)``
lists, token dicts, ``(ordinal, tf)`` posting lists, signature tuples
and ``(band, rows)`` LSH bucket dicts, and every score is a Python float
accumulated one posting (or one document-map lookup) at a time.
:class:`ReferenceRetrieval` reads the segment files, tombstones and
configuration of a live :class:`~repro.corpus.segments.
SegmentedCorpusIndex` and answers the same questions the index does.
``tests/test_retrieval_equivalence.py`` compares the two on generated
corpora; do not change this file to follow the shipped code.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from array import array
from collections import Counter
from hashlib import blake2b

from repro.corpus.indexes import BM25_B, BM25_K1
from repro.corpus.segments import (
    SEGMENT_MINHASH_NAME,
    SEGMENT_POSTINGS_NAME,
)
from repro.linguistic.tokenizer import normalize, stem, tokenize


# ----------------------------------------------------------------------
# Feature extraction, one node at a time
# ----------------------------------------------------------------------

def label_tokens(label: str, config, thesaurus=None) -> list:
    """Index tokens of one label: split, stem, thesaurus-expand."""
    tokens = tokenize(label, keep_numbers=config.keep_numbers)
    out = []
    for token in tokens:
        out.append(stem(token) if config.use_stemming else token)
        if thesaurus is None or not config.use_thesaurus:
            continue
        expansion = thesaurus.expand_abbreviation(token)
        if expansion:
            out.append(stem(expansion) if config.use_stemming else expansion)
        acronym_words = thesaurus.expand_acronym(token)
        if acronym_words:
            out.extend(
                stem(word) if config.use_stemming else word
                for word in acronym_words
            )
    return out


def schema_tokens(tree, config, thesaurus=None) -> Counter:
    """The token multiset of a whole schema, node by node."""
    tokens: Counter = Counter()
    for node in tree.root.iter_preorder():
        tokens.update(label_tokens(node.name, config, thesaurus))
    return tokens


def schema_shingles(tree, config) -> frozenset:
    """Normalized labels plus parent>child bigrams, node by node."""
    shingles = set()
    for node in tree.root.iter_preorder():
        label = normalize(node.name)
        shingles.add(label)
        if config.structural_shingles and node.parent is not None:
            shingles.add(f"{normalize(node.parent.name)}>{label}")
    return frozenset(shingles)


def shingle_hash(shingle: str) -> int:
    """Stable 64-bit hash of one shingle."""
    return int.from_bytes(
        blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "big"
    )


def signature(shingles, config) -> tuple:
    """The MinHash signature of a shingle set under ``config``'s seeded
    permutations, in plain integers."""
    mersenne = (1 << 61) - 1
    rng = random.Random(config.seed)
    params = [(rng.randrange(1, mersenne), rng.randrange(0, mersenne))
              for _ in range(config.num_perm)]
    if not shingles:
        return tuple([mersenne] * config.num_perm)
    hashes = [shingle_hash(shingle) for shingle in shingles]
    return tuple(min((a * x + b) % mersenne for x in hashes)
                 for a, b in params)


# ----------------------------------------------------------------------
# Retrieval, one document at a time
# ----------------------------------------------------------------------


def _unpack_u32_array(blob: bytes) -> array:
    packed = array("I")
    packed.frombytes(blob)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed


def unpack_postings(blob: bytes) -> list:
    """Per-document ordered ``(token, tf)`` lists of a postings blob."""
    offset = 4
    n_docs, n_tokens = struct.unpack_from("<II", blob, offset)
    offset += 8
    tokens = []
    for _ in range(n_tokens):
        (length,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        tokens.append(blob[offset:offset + length].decode("utf-8"))
        offset += length
    docs = []
    for _ in range(n_docs):
        (n_items,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        flat = _unpack_u32_array(blob[offset:offset + 8 * n_items])
        offset += 8 * n_items
        docs.append([
            (tokens[flat[2 * i]], flat[2 * i + 1]) for i in range(n_items)
        ])
    return docs


def unpack_signatures(blob: bytes) -> list:
    """Per-document signature tuples of a MinHash blob."""
    n_docs, num_perm = struct.unpack_from("<IH", blob, 4)
    flat = array("Q")
    flat.frombytes(blob[10:10 + 8 * n_docs * num_perm])
    if sys.byteorder != "little":
        flat.byteswap()
    return [
        tuple(flat[i * num_perm:(i + 1) * num_perm]) for i in range(n_docs)
    ]


def band_keys(signature: tuple, bands: int, rows: int):
    """The LSH bucket keys of a signature, one per band."""
    for band in range(bands):
        start = band * rows
        yield (band, signature[start:start + rows])


class _ReferenceSegment:
    """One segment's payloads as Python objects."""

    def __init__(self, segment, bands: int, rows: int):
        self.doc_ids = segment.doc_ids
        self.doc_items = unpack_postings(
            (segment.root / SEGMENT_POSTINGS_NAME).read_bytes()
        )
        self.signatures = unpack_signatures(
            (segment.root / SEGMENT_MINHASH_NAME).read_bytes()
        )
        self.doc_maps = [dict(items) for items in self.doc_items]
        self.lengths = [sum(tf for _, tf in items) for items in self.doc_items]
        self.postings: dict = {}
        for ordinal, items in enumerate(self.doc_items):
            for token, tf in items:
                self.postings.setdefault(token, []).append((ordinal, tf))
        self.buckets: dict = {}
        for ordinal, signature in enumerate(self.signatures):
            for key in band_keys(signature, bands, rows):
                self.buckets.setdefault(key, []).append(ordinal)


def _bm25_length_norm(length: int, avgdl: float) -> float:
    return 1.0 - BM25_B + BM25_B * (length / avgdl) if avgdl > 0.0 else 1.0


def _max_normalized(sums: dict) -> dict:
    if not sums:
        return {}
    best = max(sums.values())
    if best <= 0.0:
        return {}
    return {doc_id: value / best for doc_id, value in sums.items()}


class ReferenceRetrieval:
    """The per-document stage-1 reader over one index's current state.

    Snapshot semantics: build a new one after the index mutates.
    """

    def __init__(self, index):
        config = index.config
        self.num_perm = config.num_perm
        self.bands = config.bands
        self.rows = config.num_perm // config.bands
        self.max_candidates = index.max_candidates
        self.segments = {
            seg_id: _ReferenceSegment(segment, self.bands, self.rows)
            for seg_id, segment in index._segments.items()
        }
        self.tombstones = {
            seg_id: set(dead) for seg_id, dead in index._tombstones.items()
        }
        self.last_scan: dict = {}
        self._norms: dict = {}
        self._stats = self._merge_stats()
        self._doc_loc = {}
        for seg_id, segment in self.segments.items():
            dead = self._stats["dead"][seg_id]
            for ordinal, doc_id in enumerate(segment.doc_ids):
                if ordinal not in dead:
                    self._doc_loc[doc_id] = (segment, ordinal)

    # -- merged statistics ----------------------------------------------

    def _merge_stats(self) -> dict:
        n = 0
        total_length = 0
        df: dict = {}
        dead_by_seg = {}
        for seg_id, segment in self.segments.items():
            dead_ids = self.tombstones.get(seg_id)
            dead = frozenset(
                ordinal for ordinal, doc_id in enumerate(segment.doc_ids)
                if dead_ids and doc_id in dead_ids
            )
            dead_by_seg[seg_id] = dead
            n += len(segment.doc_ids) - len(dead)
            for ordinal in range(len(segment.doc_ids)):
                if ordinal not in dead:
                    total_length += segment.lengths[ordinal]
            for token, plist in segment.postings.items():
                if dead:
                    count = sum(
                        1 for ordinal, _ in plist if ordinal not in dead
                    )
                else:
                    count = len(plist)
                if count:
                    df[token] = df.get(token, 0) + count
        return {"n": n, "df": df, "total_length": total_length,
                "dead": dead_by_seg}

    def _idf(self, token: str) -> float:
        df = self._stats["df"].get(token, 0)
        return math.log((1 + self._stats["n"]) / (1 + df)) + 1.0

    def _norm(self, doc_id: str) -> float:
        norm = self._norms.get(doc_id)
        if norm is not None:
            return norm
        located = self._doc_loc.get(doc_id)
        if located is None:
            return 0.0
        segment, ordinal = located
        items = segment.doc_items[ordinal]
        if not items:
            return 0.0
        norm = math.sqrt(sum(
            ((1.0 + math.log(tf)) * self._idf(token)) ** 2
            for token, tf in items
        ))
        self._norms[doc_id] = norm
        return norm

    # -- lexical scoring --------------------------------------------------

    def _query_weights(self, query_tokens) -> tuple:
        weights = []
        query_norm_sq = 0.0
        for token, qtf in query_tokens.items():
            if qtf <= 0:
                continue
            idf = self._idf(token)
            q_weight = (1.0 + math.log(qtf)) * idf
            query_norm_sq += q_weight ** 2
            weights.append((token, q_weight, idf))
        return weights, query_norm_sq

    def _cosine_dots(self, weights: list) -> tuple:
        dots: dict = {}
        walked = 0
        for seg_id, segment in self.segments.items():
            dead = self._stats["dead"][seg_id]
            for token, q_weight, idf in weights:
                plist = segment.postings.get(token)
                if not plist:
                    continue
                walked += len(plist)
                for ordinal, tf in plist:
                    if ordinal in dead:
                        continue
                    doc_id = segment.doc_ids[ordinal]
                    dots[doc_id] = (
                        dots.get(doc_id, 0.0)
                        + q_weight * ((1.0 + math.log(tf)) * idf)
                    )
        return dots, walked

    def _bm25_terms(self, query_tokens) -> list:
        n = self._stats["n"]
        terms = []
        for token, qtf in query_tokens.items():
            df = self._stats["df"].get(token, 0)
            if qtf > 0 and df:
                idf = max(
                    math.log(1.0 + (n - df + 0.5) / (df + 0.5)), 1e-6
                )
                terms.append((token, qtf, idf))
        return terms

    def _average_length(self) -> float:
        n = self._stats["n"]
        return self._stats["total_length"] / n if n else 0.0

    def _bm25_sums(self, terms: list) -> tuple:
        avgdl = self._average_length()
        sums: dict = {}
        walked = 0
        for seg_id, segment in self.segments.items():
            dead = self._stats["dead"][seg_id]
            norms = [
                _bm25_length_norm(segment.lengths[ordinal], avgdl)
                for ordinal in range(len(segment.doc_ids))
            ]
            for token, qtf, idf in terms:
                plist = segment.postings.get(token)
                if not plist:
                    continue
                walked += len(plist)
                for ordinal, tf in plist:
                    if ordinal in dead:
                        continue
                    doc_id = segment.doc_ids[ordinal]
                    sums[doc_id] = (
                        sums.get(doc_id, 0.0)
                        + qtf * idf * (tf * (BM25_K1 + 1.0))
                        / (tf + BM25_K1 * norms[ordinal])
                    )
        return sums, walked

    def _admit(self, query_tokens, extra=None) -> tuple:
        budget = self.max_candidates
        admitted = set(extra or ())
        walked = 0
        df = self._stats["df"]
        by_rarity = sorted(
            (df.get(token, 0), token)
            for token, qtf in query_tokens.items()
            if qtf > 0 and df.get(token, 0)
        )
        for _, token in by_rarity:
            if len(admitted) >= budget:
                break
            for seg_id, segment in self.segments.items():
                plist = segment.postings.get(token)
                if not plist:
                    continue
                dead = self._stats["dead"][seg_id]
                walked += len(plist)
                for ordinal, _ in plist:
                    if ordinal not in dead:
                        admitted.add(segment.doc_ids[ordinal])
        return admitted, walked

    def _score_admitted(self, admitted: set, query_tokens,
                        scorer: str) -> dict:
        if scorer == "cosine":
            weights, query_norm_sq = self._query_weights(query_tokens)
            if query_norm_sq <= 0.0:
                return {}
            query_norm = math.sqrt(query_norm_sq)
            scores = {}
            for doc_id in admitted:
                located = self._doc_loc.get(doc_id)
                if located is None:
                    continue
                segment, ordinal = located
                doc_map = segment.doc_maps[ordinal]
                dot = 0.0
                for token, q_weight, idf in weights:
                    tf = doc_map.get(token)
                    if tf:
                        dot += q_weight * ((1.0 + math.log(tf)) * idf)
                if dot:
                    doc_norm = self._norm(doc_id)
                    if doc_norm > 0.0:
                        scores[doc_id] = dot / (query_norm * doc_norm)
            return scores
        terms = self._bm25_terms(query_tokens)
        avgdl = self._average_length()
        sums = {}
        for doc_id in admitted:
            located = self._doc_loc.get(doc_id)
            if located is None:
                continue
            segment, ordinal = located
            doc_map = segment.doc_maps[ordinal]
            norm = _bm25_length_norm(segment.lengths[ordinal], avgdl)
            total = 0.0
            for token, qtf, idf in terms:
                tf = doc_map.get(token)
                if tf:
                    total += (
                        qtf * idf * (tf * (BM25_K1 + 1.0))
                        / (tf + BM25_K1 * norm)
                    )
            if total:
                sums[doc_id] = total
        return _max_normalized(sums)

    def lexical_scores(self, query_tokens, scorer: str = "cosine",
                       admit_extra=None) -> dict:
        stats = self._stats
        scan = {
            "docs_scored": 0, "postings_walked": 0,
            "live_docs": stats["n"], "budget": self.max_candidates,
        }
        self.last_scan = scan
        if stats["n"] == 0:
            return {}
        if self.max_candidates is not None:
            admitted, walked = self._admit(query_tokens, extra=admit_extra)
            scores = self._score_admitted(admitted, query_tokens, scorer)
            scan["docs_scored"] = len(admitted)
            scan["postings_walked"] = walked
            return scores
        if scorer == "bm25":
            sums, walked = self._bm25_sums(self._bm25_terms(query_tokens))
            scan["docs_scored"] = len(sums)
            scan["postings_walked"] = walked
            return _max_normalized(sums)
        weights, query_norm_sq = self._query_weights(query_tokens)
        dots, walked = self._cosine_dots(weights)
        scan["docs_scored"] = len(dots)
        scan["postings_walked"] = walked
        if not dots or query_norm_sq <= 0.0:
            return {}
        query_norm = math.sqrt(query_norm_sq)
        scores = {}
        for doc_id, dot in dots.items():
            doc_norm = self._norm(doc_id)
            if doc_norm > 0.0:
                scores[doc_id] = dot / (query_norm * doc_norm)
        return scores

    # -- structural signal -------------------------------------------------

    def structural_candidates(self, signature: tuple) -> set:
        keys = list(band_keys(signature, self.bands, self.rows))
        found: set = set()
        for seg_id, segment in self.segments.items():
            dead = self._stats["dead"][seg_id]
            for key in keys:
                for ordinal in segment.buckets.get(key, ()):
                    if ordinal not in dead:
                        found.add(segment.doc_ids[ordinal])
        return found

    def estimate(self, signature: tuple, doc_id: str) -> float:
        located = self._doc_loc.get(doc_id)
        if located is None:
            return 0.0
        segment, ordinal = located
        stored = segment.signatures[ordinal]
        agree = sum(1 for a, b in zip(signature, stored) if a == b)
        return agree / self.num_perm

    def retrieve_scores(self, query_tokens, signature: tuple,
                        scorer: str = "cosine") -> tuple:
        structural = self.structural_candidates(signature)
        lexical = self.lexical_scores(
            query_tokens, scorer=scorer,
            admit_extra=structural if self.max_candidates is not None
            else None,
        )
        return lexical, structural
