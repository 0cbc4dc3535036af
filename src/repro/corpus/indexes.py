"""Blocking features of corpus schemas.

Two complementary cheap signals stand in for the expensive pairwise
match during candidate retrieval:

- *normalized label tokens* (:func:`schema_tokens`).  Tokens come from
  the same tokenizer the linguistic matcher uses (camelCase/snake/
  delimiter splitting, light stemming) and are expanded through the
  thesaurus (abbreviations and acronyms), so ``qty``-labelled schemas
  still block against ``Quantity``-labelled ones.  The segmented index
  scores them with IDF-weighted cosine or BM25 (:data:`LEXICAL_SCORERS`).
- *node-label shingles* (:func:`schema_shingles`: normalized labels
  plus parent>child label bigrams), hashed into MinHash signatures by
  :class:`MinHashIndex` and banded for LSH.  Two schemas land in a
  shared band bucket when their shingle sets are likely similar, which
  catches structural near-duplicates whose token frequencies alone are
  unremarkable.

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

def label_tokens(label: str, config: IndexConfig,
                 thesaurus: Optional[Thesaurus] = None) -> list[str]:
    """Index tokens of one label: split, stem, thesaurus-expand.

    Expansions are *added* alongside the surface token (``qty`` indexes
    as both ``qty`` and ``quantity``), so queries match from either
    side without the index needing query-time expansion.
    """
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


def schema_tokens(tree, config: IndexConfig,
                  thesaurus: Optional[Thesaurus] = None) -> Counter:
    """The token multiset of a whole schema (one document)."""
    tokens: Counter = Counter()
    for node in tree.root.iter_preorder():
        tokens.update(label_tokens(node.name, config, thesaurus))
    return tokens


def schema_shingles(tree, config: IndexConfig) -> frozenset:
    """Node-label shingles: normalized labels + parent>child bigrams.

    The bigrams carry the structural signal -- two schemas sharing many
    parent/child label pairs have similar shapes even when label
    *frequencies* differ.
    """
    shingles = set()
    for node in tree.root.iter_preorder():
        label = normalize(node.name)
        shingles.add(label)
        if config.structural_shingles and node.parent is not None:
            shingles.add(f"{normalize(node.parent.name)}>{label}")
    return frozenset(shingles)


def _shingle_hash(shingle: str) -> int:
    """Stable 64-bit hash of one shingle (blake2b; never ``hash()``)."""
    return int.from_bytes(
        blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _mod_mersenne(values):
    """``values mod (2^61 - 1)`` of a ``uint64`` array, any value."""
    # x = high*2^61 + low = high + low (mod p), and high + low < 2p.
    folded = (values & _P) + (values >> np.uint64(61))
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
        a = np.array([a for a, _ in params], dtype=np.uint64)[:, None]
        self._a_high = a >> np.uint64(32)
        self._a_low = a & _LOW32
        self._b = np.array([b for _, b in params], dtype=np.uint64)[:, None]

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
        folded with ``2^61 = 1 (mod p)`` before it could overflow.
        """
        if not hashes:
            # Empty documents get the identity-free max signature; they
            # collide only with other empty documents.
            return tuple([_MERSENNE] * self.num_perm)
        x = _mod_mersenne(np.array(hashes, dtype=np.uint64))[None, :]
        x_high, x_low = x >> np.uint64(32), x & _LOW32
        a_high, a_low = self._a_high, self._a_low
        # a*x = high*2^64 + middle*2^32 + low, and 2^64 = 8 (mod p).
        # middle < 2^62: its bits from 29 up times 2^32 are a multiple
        # of 2^61, so they fold to middle >> 29.
        middle = a_high * x_low + a_low * x_high
        total = (
            ((a_high * x_high) << np.uint64(3))
            + (middle >> np.uint64(29))
            + ((middle & _LOW29) << np.uint64(32))
            + _mod_mersenne(a_low * x_low)
            + self._b
        )
        return tuple(_mod_mersenne(total).min(axis=1).tolist())

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
