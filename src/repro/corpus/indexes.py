"""Blocking features of corpus schemas.

Two complementary cheap signals stand in for the expensive pairwise
match during candidate retrieval:

- *normalized label tokens*.  Tokens come from the same tokenizer the
  linguistic matcher uses (camelCase/snake/delimiter splitting, light
  stemming) and are expanded through the thesaurus (abbreviations and
  acronyms), so ``qty``-labelled schemas still block against
  ``Quantity``-labelled ones.  The segmented index scores them with
  IDF-weighted cosine or BM25 (:data:`LEXICAL_SCORERS`).
- *node-label shingles* (normalized labels plus parent>child label
  bigrams), hashed into MinHash signatures by :class:`MinHashIndex`
  and banded for LSH.  Two schemas land in a shared band bucket when
  their shingle sets are likely similar, which catches structural
  near-duplicates whose token frequencies alone are unremarkable.

:func:`schema_features` extracts both from one preorder walk, for
queries and for added documents alike, and a :class:`FeatureMemo`
owned by the thesaurus keeps per-label and per-shingle work across
schemas (bounded by :data:`MAX_FEATURE_ENTRIES`).

Everything here is deterministic: MinHash permutations come from a
seeded RNG over fixed 64-bit blake2b shingle hashes (never Python's
salted ``hash``), so rebuilding an index over the same corpus with the
same :class:`IndexConfig` is byte-identical -- the property the CLI's
staleness check and the result-store keys both lean on.  The on-disk
index itself is :class:`~repro.corpus.segments.SegmentedCorpusIndex`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from typing import Optional

import numpy as np

from repro.linguistic.thesaurus import Thesaurus
from repro.linguistic.tokenizer import normalize, stem, tokenize

#: Modulus for the universal-hash permutations (Mersenne prime 2^61-1).
_MERSENNE = (1 << 61) - 1
_P = np.uint64(_MERSENNE)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)
_S32 = np.uint64(32)
_S61 = np.uint64(61)
#: Odd multipliers of the LSH band-key mix (splitmix64's constants).
_MIX_SEED = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9)


class IndexError_(ValueError):
    """An index payload or configuration is unusable."""


@dataclass(frozen=True)
class IndexConfig:
    """Everything that shapes index content and therefore blocking.

    ``num_perm`` MinHash permutations are split into ``bands`` bands of
    ``num_perm // bands`` rows; two schemas become LSH candidates when
    at least one band of their signatures agrees exactly.  With the
    defaults (64 permutations, 16 bands of 4 rows) the candidate
    probability crosses 50% around Jaccard ~0.5 -- permissive blocking,
    sharp enough to prune unrelated schemas.
    """

    num_perm: int = 64
    bands: int = 16
    seed: int = 2005
    keep_numbers: bool = True
    use_stemming: bool = True
    use_thesaurus: bool = True
    structural_shingles: bool = True

    def __post_init__(self):
        if self.num_perm < 1:
            raise IndexError_(f"num_perm must be >= 1, got {self.num_perm}")
        if self.bands < 1 or self.num_perm % self.bands:
            raise IndexError_(
                f"bands must divide num_perm ({self.num_perm}), "
                f"got {self.bands}"
            )

    @property
    def rows(self) -> int:
        return self.num_perm // self.bands

    def signature(self) -> dict:
        """JSON-friendly config identity (what the fingerprint hashes)."""
        return {
            "num_perm": self.num_perm,
            "bands": self.bands,
            "seed": self.seed,
            "keep_numbers": self.keep_numbers,
            "use_stemming": self.use_stemming,
            "use_thesaurus": self.use_thesaurus,
            "structural_shingles": self.structural_shingles,
        }

    def fingerprint(self) -> str:
        from repro.matching.io import config_fingerprint

        return config_fingerprint(dict(self.signature(), kind="corpus-index"))

    @classmethod
    def from_signature(cls, payload: dict) -> "IndexConfig":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{
            key: value for key, value in payload.items() if key in known
        })


# ----------------------------------------------------------------------
# Feature extraction
# ----------------------------------------------------------------------

#: Entries (labels, token expansions and shingle hashes) one feature
#: memo holds before the next schema's extraction starts a fresh one.
#: A ``corpus-rw`` corpus (2,000 generated schemas, 48k nodes) holds
#: ~20k distinct labels and ~65k distinct shingles, so building it
#: turns the memo over a few times, while one query's ~24 labels and
#: ~47 shingles fit many times over.  tracemalloc (Python 3.11) puts a
#: label entry at ~200 B besides the label's text and a shingle entry
#: at ~115 B, so a full memo holds ~3 MB.
MAX_FEATURE_ENTRIES = 20_000

#: Labels and shingles longer than this many characters are computed
#: afresh for each schema and never kept, so what a full memo holds
#: stays bounded in bytes, not only in entries, whatever labels
#: queries carry.
MAX_MEMO_KEY = 256


def label_tokens(label: str, config: IndexConfig,
                 thesaurus: Optional[Thesaurus] = None) -> list[str]:
    """Index tokens of one label: split, stem, thesaurus-expand.

    Expansions are *added* alongside the surface token (``qty`` indexes
    as both ``qty`` and ``quantity``), so queries match from either
    side without the index needing query-time expansion.
    """
    return _index_terms(
        tokenize(label, keep_numbers=config.keep_numbers), config, thesaurus
    )


def _index_terms(tokens: list, config: IndexConfig,
                 thesaurus: Optional[Thesaurus]) -> list[str]:
    """The index tokens of a label's tokenizer output."""
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


class FeatureMemo:
    """Per-label and per-shingle feature work under one thesaurus and
    :class:`IndexConfig`, kept across schemas.

    ``labels`` maps a label to ``(index tokens, normalized label)`` and
    ``hashes`` a shingle to its 64-bit hash (keys up to
    :data:`MAX_MEMO_KEY` characters).  Every entry is a pure
    function of its key, so threads that race to write one write the
    same value.  The thesaurus owns the memo
    (:meth:`~repro.linguistic.thesaurus.Thesaurus.table`), drops it
    when mutated and replaces it once it holds more than
    :data:`MAX_FEATURE_ENTRIES` entries; that check runs once per
    schema, so a memo overshoots the cap by at most one schema's labels
    and shingles.
    """

    def __init__(self, thesaurus: Optional[Thesaurus], config: IndexConfig):
        self.thesaurus = thesaurus
        self.config = config
        self.labels: dict[str, tuple] = {}
        self.hashes: dict[str, int] = {}
        # Token -> its index tokens: labels are mostly unique, their
        # tokens are not.
        self._terms: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.labels) + len(self.hashes) + len(self._terms)

    def full(self) -> bool:
        """Whether the memo holds more than :data:`MAX_FEATURE_ENTRIES`."""
        return len(self) > MAX_FEATURE_ENTRIES

    def label(self, label: str) -> tuple:
        """``(index tokens, normalized label)`` of one label, from one
        tokenizer pass when numbers are kept (:func:`normalize` joins
        exactly those tokens)."""
        config = self.config
        tokens = tokenize(label, keep_numbers=config.keep_numbers)
        known = self._terms
        terms = []
        for token in tokens:
            expanded = known.get(token)
            if expanded is None:
                expanded = known[token] = tuple(
                    _index_terms([token], config, self.thesaurus)
                )
            terms.extend(expanded)
        entry = (
            tuple(terms),
            "".join(tokens) if config.keep_numbers else normalize(label),
        )
        if len(label) <= MAX_MEMO_KEY:
            self.labels[label] = entry
        return entry

    def shingle_hashes(self, shingles) -> list[int]:
        """The 64-bit hash of each shingle, in iteration order."""
        hashes = self.hashes
        out = []
        for shingle in shingles:
            value = hashes.get(shingle)
            if value is None:
                value = _shingle_hash(shingle)
                if len(shingle) <= MAX_MEMO_KEY:
                    hashes[shingle] = value
            out.append(value)
        return out


def feature_memo(config: IndexConfig,
                 thesaurus: Optional[Thesaurus] = None) -> FeatureMemo:
    """The feature memo shared under ``thesaurus`` and ``config`` (a
    private one when there is no thesaurus)."""
    if thesaurus is None:
        return FeatureMemo(None, config)
    return thesaurus.table(config, FeatureMemo)


def schema_features(tree, config: IndexConfig,
                    thesaurus: Optional[Thesaurus] = None) -> tuple:
    """``(token multiset, shingle set)`` of a whole schema (one
    document), from one preorder walk.

    The token :class:`~collections.Counter` lists tokens in first-seen
    order: document norms accumulate in it, so it is the stored order
    too.  Shingles are normalized labels plus parent>child label
    bigrams; the bigrams carry the structural signal -- two schemas
    sharing many parent/child label pairs have similar shapes even when
    label *frequencies* differ.  Each node's label is read once (a
    parent's normalized label travels down the walk), and each distinct
    label is tokenized once across schemas while the memo holds it.
    """
    memo = feature_memo(config, thesaurus)
    labels = memo.labels
    structural = config.structural_shingles
    terms: list = []
    shingles = set()
    # Preorder, as SchemaNode.iter_preorder walks it.
    stack = [(tree.root, None)]
    while stack:
        node, parent = stack.pop()
        entry = labels.get(node.name) or memo.label(node.name)
        terms.extend(entry[0])
        label = entry[1]
        shingles.add(label)
        if structural and parent is not None:
            shingles.add(f"{parent}>{label}")
        stack.extend([(child, label) for child in reversed(node.children)])
    return Counter(terms), frozenset(shingles)


def schema_tokens(tree, config: IndexConfig,
                  thesaurus: Optional[Thesaurus] = None) -> Counter:
    """The token multiset of a whole schema (one document)."""
    return schema_features(tree, config, thesaurus)[0]


def schema_shingles(tree, config: IndexConfig) -> frozenset:
    """Node-label shingles: normalized labels + parent>child bigrams."""
    return schema_features(tree, config)[1]


def _shingle_hash(shingle: str) -> int:
    """Stable 64-bit hash of one shingle (blake2b; never ``hash()``)."""
    return int.from_bytes(
        blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _mod_mersenne(values):
    """``values mod (2^61 - 1)`` of a ``uint64`` array, any value."""
    # x = high*2^61 + low = high + low (mod p), and high + low < 2p.
    folded = (values & _P) + (values >> _S61)
    return np.where(folded >= _P, folded - _P, folded)


# ----------------------------------------------------------------------
# Lexical scoring parameters
# ----------------------------------------------------------------------

#: Lexical scoring functions the segmented index dispatches on.
LEXICAL_SCORERS = ("cosine", "bm25")

#: Standard BM25 shape parameters: ``k1`` caps term-frequency
#: saturation, ``b`` scales document-length normalization.
BM25_K1 = 1.5
BM25_B = 0.75


# ----------------------------------------------------------------------
# MinHash / LSH hashing
# ----------------------------------------------------------------------

class MinHashIndex:
    """MinHash signatures and their LSH band keys.

    Stateless apart from the seeded permutations: the segmented index
    stores the signatures and sorts their band keys per segment.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16,
                 seed: int = 2005):
        if num_perm < 1 or bands < 1 or num_perm % bands:
            raise IndexError_(
                f"bands ({bands}) must divide num_perm ({num_perm})"
            )
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        rng = random.Random(seed)
        #: (a, b) per permutation for h(x) = (a*x + b) mod p.
        params = [
            (rng.randrange(1, _MERSENNE), rng.randrange(0, _MERSENNE))
            for _ in range(num_perm)
        ]
        # One column per permutation: a's 32-bit limbs and b.
        a = np.array([a for a, _ in params], dtype=np.uint64)
        self._a_high = a >> np.uint64(32)
        self._a_low = a & _LOW32
        self._b = np.array([b for _, b in params], dtype=np.uint64)

    def signature(self, shingles) -> tuple:
        """The MinHash signature of a shingle set (deterministic)."""
        return self.hashed_signature(
            [_shingle_hash(shingle) for shingle in shingles]
        )

    def hashed_signature(self, hashes) -> tuple:
        """The MinHash signature of a set of 64-bit shingle hashes.

        Each slot is ``min((a*x + b) mod p)`` over the hashes, computed
        exactly in ``uint64``: ``x`` is reduced mod ``p`` first, the
        product is taken over 32-bit limbs, and every partial sum is
        folded with ``2^61 = 1 (mod p)`` before it could overflow.  The
        ``(hashes, num_perm)`` grid is computed in place.
        """
        if not hashes:
            # Empty documents get the identity-free max signature; they
            # collide only with other empty documents.
            return tuple([_MERSENNE] * self.num_perm)
        x = _mod_mersenne(np.array(hashes, dtype=np.uint64))[:, None]
        x_high, x_low = x >> _S32, x & _LOW32
        a_high, a_low = self._a_high, self._a_low
        # a*x = high*2^64 + middle*2^32 + low, and 2^64 = 8 (mod p).
        # middle < 2^62: its bits from 29 up times 2^32 are a multiple
        # of 2^61, so they fold to middle >> 29.
        middle = a_high * x_low
        middle += a_low * x_high
        total = a_high * x_high
        total <<= np.uint64(3)
        total += middle >> np.uint64(29)
        middle &= _LOW29
        middle <<= _S32
        total += middle
        total += self._b
        # low folds to below 2^61 + 8; the five terms stay below 2^64.
        low = a_low * x_low
        total += low >> _S61
        low &= _P
        total += low
        # total folds to below 2p; min(v, v - p) wraps for v < p.
        folded = total & _P
        total >>= _S61
        folded += total
        return tuple(np.minimum(folded, folded - _P).min(axis=0).tolist())

    def band_hashes(self, signatures) -> np.ndarray:
        """The LSH bucket keys of ``(n, num_perm)`` signatures: an
        ``(n, bands)`` ``uint64`` array, one key per band.

        Equal bands (same band, same rows) get equal keys, so two
        documents share an LSH bucket only if they share a key.  The
        mix is not injective: readers confirm a key match against the
        band's rows.
        """
        rows = np.asarray(signatures, dtype=np.uint64).reshape(
            -1, self.bands, self.rows
        )
        keys = np.arange(1, self.bands + 1, dtype=np.uint64) * _MIX_SEED
        for row in range(self.rows):
            # uint64 array arithmetic wraps modulo 2^64.
            keys = (keys ^ rows[:, :, row]) * _MIX
        return keys
