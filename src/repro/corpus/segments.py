"""The corpus index: immutable segments, serial search, compaction.

Every posting of every schema in one mutable structure, serialized and
re-loaded as a unit, is the right shape for a hundred schemas and the
wrong one for a hundred thousand: every ``add`` rewrites the whole
payload, and opening the index deserializes all of it before the first
query.  This module is the Lucene-shaped answer, and the only on-disk
index format::

    <corpus>/segments/
      manifest.json          -- live segments, tombstones, fingerprints
      seg-000001/
        meta.json            -- doc ids (ordinal order), sizes; read at open
        postings.bin         -- packed per-doc (token, tf) vectors
        minhash.bin          -- packed uint64 MinHash signatures

- **Segments are immutable.**  ``qmatch index build`` seals the whole
  corpus into one segment; each later ``add`` batch seals one new
  segment directory and never touches the previous ones, so
  incremental indexing costs memory and I/O proportional to the
  *batch*, not the corpus.
- **Postings are packed and lazy.**  Segment payloads serialize with
  ``struct``/``array`` (little-endian, fixed-width) instead of JSON and
  load on the first search, not at open -- ``qmatch index info`` over a
  100k-schema corpus reads only the small ``meta.json`` headers.  A
  load decodes them into numpy columns (see :class:`Segment`), never
  into per-document Python objects.
- **Removals are tombstones.**  The manifest records removed doc ids
  per segment; searches skip them, and compaction drops them for good.
- **Compaction is size-tiered.**  ``add`` batches produce many small
  segments; once :data:`COMPACT_TRIGGER` segments accumulate in one
  size tier they are folded into one (``qmatch index compact`` folds
  everything).
- **Scores do not depend on the segment layout.**  IDF and document
  norms are computed from document frequencies *merged across
  segments* (minus tombstones), and each document's token vector is
  stored in its original extraction order -- so the per-document
  cosine/BM25 floats of any layout are bit-identical to a fresh
  single-segment build over the same live documents (pinned by the
  goldens in ``tests/fixtures/corpus_golden/``).

:class:`~repro.corpus.search.CorpusSearcher` reads the index through
``query_features`` and ``candidates``.  ``candidates`` walks the live
segments one after another on the calling thread and returns aligned
arrays (doc ids, lexical scores, MinHash estimates); within a segment
every reader is a handful of array operations over its columns (the
query terms' posting runs, the admitted documents' rows, the sorted LSH
band keys), so the per-query Python work is per segment and per query
term, not per document.  ``retrieve_scores`` and ``estimates`` are
by-id views of the same scan.  Scores stay the floats of the
per-posting formula: values are computed with its float operations and
each document adds them term by term in query order
(``tests/test_retrieval_equivalence.py`` pins this against the frozen
per-document scorers).  A candidate-admission budget
(``max_candidates``) turns the full postings scan into work
proportional to the rarest query tokens plus the budget.
"""

from __future__ import annotations

import json
import math
import shutil
import struct
import sys
import threading
from array import array
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from repro.corpus.indexes import (
    BM25_B,
    BM25_K1,
    LEXICAL_SCORERS,
    IndexConfig,
    MinHashIndex,
    feature_memo,
    schema_features,
)
from repro.linguistic.thesaurus import Thesaurus
from repro.obs.log import NULL_LOGGER
from repro.service.store import (
    atomic_write_bytes,
    atomic_write_text,
    canonical_json,
)

#: Segment payload format version (bumped on incompatible changes).
SEGMENTS_VERSION = 1

#: Directory (under the corpus root) holding the segmented index.
SEGMENTS_DIR = "segments"

SEGMENT_MANIFEST_NAME = "manifest.json"
SEGMENT_META_NAME = "meta.json"
SEGMENT_POSTINGS_NAME = "postings.bin"
SEGMENT_MINHASH_NAME = "minhash.bin"

_POSTINGS_MAGIC = b"QSP1"
_MINHASH_MAGIC = b"QSM1"

#: Auto-compaction: fold a size tier once it holds this many segments.
COMPACT_TRIGGER = 4

#: Size-tier width: segments whose live-doc counts fall within one
#: power of this factor share a tier (classic size-tiered policy).
TIER_FACTOR = 4


class SegmentError(ValueError):
    """A segment payload, manifest or operation is unusable."""


# ----------------------------------------------------------------------
# Packed payload codecs
# ----------------------------------------------------------------------

def _pack_u32_array(values) -> bytes:
    packed = array("I", values)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed.tobytes()


def _unpack_u32_array(blob: bytes) -> array:
    packed = array("I")
    packed.frombytes(blob)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``starts[i] .. starts[i] + counts[i] - 1`` concatenated
    into one index array."""
    ends = counts.cumsum()
    return (starts - (ends - counts)).repeat(counts) + np.arange(
        ends[-1] if len(ends) else 0
    )


class PostingColumns(NamedTuple):
    """A postings payload as compressed rows (CSR), one row per doc."""

    #: Token strings by segment-local token id (payload table order).
    vocab: tuple
    #: ``(n_docs + 1,)``: doc ``d``'s entries are ``indptr[d]:indptr[d+1]``.
    indptr: np.ndarray
    #: Per entry, in each document's stored (extraction) order.
    tokens: np.ndarray
    tfs: np.ndarray


def pack_postings(doc_items: list) -> bytes:
    """Pack per-document ordered ``(token, tf)`` vectors.

    Layout (all little-endian): magic, ``u32 n_docs``, ``u32 n_tokens``,
    a token table (``u16`` length + UTF-8 bytes per token, ids by table
    order), then per document ``u32 n_items`` followed by ``n_items``
    ``(u32 token_id, u32 tf)`` pairs.  The per-document *order* of the
    pairs is preserved exactly -- it is the token-extraction order
    document norms accumulate in, which is what keeps scores
    byte-identical across segment layouts.
    """
    token_ids: dict[str, int] = {}
    for items in doc_items:
        for token, _ in items:
            if token not in token_ids:
                token_ids[token] = len(token_ids)
    out = bytearray()
    out += _POSTINGS_MAGIC
    out += struct.pack("<II", len(doc_items), len(token_ids))
    for token in token_ids:
        raw = token.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise SegmentError(f"token too long to pack: {len(raw)} bytes")
        out += struct.pack("<H", len(raw))
        out += raw
    for items in doc_items:
        out += struct.pack("<I", len(items))
        if items:
            flat = []
            for token, tf in items:
                flat.append(token_ids[token])
                flat.append(tf)
            out += _pack_u32_array(flat)
    return bytes(out)


def unpack_postings(blob: bytes) -> PostingColumns:
    """Inverse of :func:`pack_postings`, as columns: each document's
    ``(token id, tf)`` entries in stored order."""
    if blob[:4] != _POSTINGS_MAGIC:
        raise SegmentError("postings payload has a bad magic header")
    offset = 4
    n_docs, n_tokens = struct.unpack_from("<II", blob, offset)
    offset += 8
    vocab = []
    for _ in range(n_tokens):
        (length,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        vocab.append(blob[offset:offset + length].decode("utf-8"))
        offset += length
    if (len(blob) - offset) % 4:
        raise SegmentError("postings payload does not match its doc count")
    words = _unpack_u32_array(blob[offset:])
    # Each document is a count word followed by its (token, tf) pairs;
    # only the count words need a walk.
    counts = np.empty(n_docs, dtype=np.int64)
    heads = np.empty(n_docs, dtype=np.int64)
    position = 0
    for doc in range(n_docs):
        if position >= len(words):
            raise SegmentError("postings payload is truncated")
        heads[doc] = position
        counts[doc] = words[position]
        position += 1 + 2 * words[position]
    if position != len(words):
        raise SegmentError("postings payload does not match its doc count")
    entry_words = np.ones(len(words), dtype=bool)
    entry_words[heads] = False
    pairs = np.frombuffer(words, dtype=np.uint32)[entry_words].reshape(-1, 2)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return PostingColumns(
        vocab=tuple(vocab),
        indptr=indptr,
        tokens=pairs[:, 0].astype(np.int64),
        tfs=pairs[:, 1].astype(np.int64),
    )


def pack_signatures(signatures, num_perm: int) -> bytes:
    """Pack MinHash signatures as a flat little-endian ``u64`` array."""
    out = bytearray()
    out += _MINHASH_MAGIC
    out += struct.pack("<IH", len(signatures), num_perm)
    flat = array("Q")
    for signature in signatures:
        if len(signature) != num_perm:
            raise SegmentError(
                f"signature length {len(signature)} != num_perm {num_perm}"
            )
        flat.extend(signature)
    if sys.byteorder != "little":
        flat.byteswap()
    out += flat.tobytes()
    return bytes(out)


def unpack_signatures(blob: bytes) -> tuple:
    """Inverse of :func:`pack_signatures`: ``(signatures, num_perm)``,
    the signatures as one ``(n_docs, num_perm)`` ``uint64`` matrix."""
    if blob[:4] != _MINHASH_MAGIC:
        raise SegmentError("minhash payload has a bad magic header")
    n_docs, num_perm = struct.unpack_from("<IH", blob, 4)
    if len(blob) != 10 + 8 * n_docs * num_perm:
        raise SegmentError("minhash payload does not match its doc count")
    flat = np.frombuffer(blob, dtype="<u8", offset=10)
    return flat.astype(np.uint64).reshape(n_docs, num_perm), num_perm


# ----------------------------------------------------------------------
# One immutable segment
# ----------------------------------------------------------------------

class Segment:
    """One sealed segment: metadata eagerly, packed payloads lazily.

    Constructing a :class:`Segment` reads only ``meta.json`` (doc ids
    and sizes); :meth:`load` decodes the payloads into numpy columns on
    the first search that needs them:

    - the documents as compressed rows: ``indptr``, segment-local
      ``tokens`` and ``tfs`` per entry in stored order, ``weights``
      (``1 + log(tf)``) and ``lengths`` (summed tfs);
    - the inverse postings, one run per token id: ``post_ptr``, and per
      entry ``post_docs``, ``post_tfs`` and ``post_weights`` (documents
      ascending within a run);
    - the ``(n_docs, num_perm)`` ``uint64`` ``signatures`` and their LSH
      bucket keys, sorted (``band_keys``) with the document of each
      (``band_docs``).

    ``bytes_loaded`` reports how many packed payload bytes this segment
    has actually pulled into memory (the
    ``qmatch_corpus_postings_loaded_bytes`` gauge).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        meta_path = self.root / SEGMENT_META_NAME
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SegmentError(
                f"segment {str(self.root)!r} has no {SEGMENT_META_NAME}"
            ) from None
        except json.JSONDecodeError as exc:
            raise SegmentError(
                f"segment meta {str(meta_path)!r} is not valid JSON: {exc}"
            ) from None
        version = meta.get("version")
        if version != SEGMENTS_VERSION:
            raise SegmentError(
                f"segment {str(self.root)!r} has version {version!r}; this "
                f"build reads version {SEGMENTS_VERSION}"
            )
        self.seg_id = str(meta.get("id", self.root.name))
        self.doc_ids: list[str] = list(meta.get("docs") or ())
        self.num_perm = int(meta.get("num_perm", 0))
        self.payload_bytes = int(meta.get("payload_bytes", 0))
        self.bytes_loaded = 0
        self._doc_id_set: Optional[frozenset] = None
        #: Set last by :meth:`load`; ``None`` while the segment is cold.
        self.indptr: Optional[np.ndarray] = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def write(root: Union[str, Path], seg_id: str, docs: list,
              num_perm: int) -> "Segment":
        """Seal ``docs`` (``(doc_id, ordered_items, signature)`` rows)
        into a new segment directory and return it opened.

        ``meta.json`` is written last: a crash mid-seal leaves a
        directory the manifest never references and :meth:`Segment`
        refuses to open -- never a half-readable segment.
        """
        root = Path(root)
        postings_blob = pack_postings([items for _, items, _ in docs])
        minhash_blob = pack_signatures(
            [signature for _, _, signature in docs], num_perm
        )
        atomic_write_bytes(root / SEGMENT_POSTINGS_NAME, postings_blob)
        atomic_write_bytes(root / SEGMENT_MINHASH_NAME, minhash_blob)
        meta = {
            "version": SEGMENTS_VERSION,
            "id": seg_id,
            "docs": [doc_id for doc_id, _, _ in docs],
            "num_perm": num_perm,
            "payload_bytes": len(postings_blob) + len(minhash_blob),
        }
        atomic_write_text(root / SEGMENT_META_NAME, canonical_json(meta))
        return Segment(root)

    # -- lazy payload ---------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def doc_id_set(self) -> frozenset:
        """Membership view of :attr:`doc_ids`, built once per segment --
        liveness checks against N segments never materialize a
        corpus-sized union."""
        if self._doc_id_set is None:
            self._doc_id_set = frozenset(self.doc_ids)
        return self._doc_id_set

    @property
    def loaded(self) -> bool:
        return self.indptr is not None

    def load(self, hasher: MinHashIndex) -> "Segment":
        """Decode the packed payloads into columns (idempotent).

        Everything is decoded into locals first and published with
        :attr:`loaded` turning true last, so a search on another thread
        (inline-mode service threads share one index) never sees half a
        load.
        """
        if self.loaded:
            return self
        postings_blob = (self.root / SEGMENT_POSTINGS_NAME).read_bytes()
        minhash_blob = (self.root / SEGMENT_MINHASH_NAME).read_bytes()
        vocab, indptr, tokens, tfs = unpack_postings(postings_blob)
        n_docs = len(indptr) - 1
        if n_docs != len(self.doc_ids):
            raise SegmentError(
                f"segment {self.seg_id}: postings cover "
                f"{n_docs} docs, meta lists {len(self.doc_ids)}"
            )
        signatures, num_perm = unpack_signatures(minhash_blob)
        if num_perm != self.num_perm or len(signatures) != n_docs:
            raise SegmentError(
                f"segment {self.seg_id}: minhash payload does not match meta"
            )
        # 1 + log(tf) with math.log, once per distinct tf: np.log may
        # differ from it in the last bit, and the goldens pin these.
        distinct, which = np.unique(tfs, return_inverse=True)
        weights = np.array(
            [1.0 + math.log(tf) for tf in distinct.tolist()], dtype=float
        )[which]
        runs = np.argsort(tokens, kind="stable")
        post_ptr = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(tokens, minlength=len(vocab)),
                  out=post_ptr[1:])
        entry_docs = np.repeat(np.arange(n_docs), np.diff(indptr))
        summed = np.concatenate(([0], np.cumsum(tfs)))
        band_keys = hasher.band_hashes(signatures).ravel()
        band_order = np.argsort(band_keys, kind="stable")
        self.vocab = vocab
        self.token_ids = {token: lid for lid, token in enumerate(vocab)}
        self.doc_id_array = np.array(self.doc_ids, dtype=object)
        self.tokens = tokens
        self.tfs = tfs
        self.weights = weights
        self.lengths = summed[indptr[1:]] - summed[indptr[:-1]]
        self.post_ptr = post_ptr
        self.post_docs = entry_docs[runs]
        self.post_tfs = tfs[runs]
        self.post_weights = weights[runs]
        self.signatures = signatures
        self.band_keys = band_keys[band_order]
        self.band_docs = band_order // hasher.bands
        self.bytes_loaded = len(postings_blob) + len(minhash_blob)
        self.indptr = indptr
        return self

    def items_of(self, ordinal: int) -> list:
        """The ordered (token, tf) vector of one document."""
        start, stop = self.indptr[ordinal], self.indptr[ordinal + 1]
        return [
            (self.vocab[token], tf) for token, tf in zip(
                self.tokens[start:stop].tolist(), self.tfs[start:stop].tolist()
            )
        ]

    def __repr__(self):
        state = "loaded" if self.loaded else "lazy"
        return f"<Segment {self.seg_id} docs={self.doc_count} {state}>"


# ----------------------------------------------------------------------
# Scoring pieces shared by the full scan and budget mode
# ----------------------------------------------------------------------

def _smoothed_idf(n: int, df: int) -> float:
    """Smoothed inverse document frequency of a token in ``df`` of
    ``n`` documents."""
    return math.log((1 + n) / (1 + df)) + 1.0


def _average_length(stats: dict) -> float:
    n = stats["n"]
    return stats["total_length"] / n if n else 0.0


def _bm25_length_norms(lengths: np.ndarray, avgdl: float) -> np.ndarray:
    """BM25's document-length normalization of each document."""
    if avgdl > 0.0:
        return 1.0 - BM25_B + BM25_B * (lengths / avgdl)
    return np.ones(len(lengths))


class _LiveSegment:
    """One segment as the merged statistics see it: which of its
    documents are live, its token ids in the index-wide vocabulary,
    and the per-document caches those statistics determine."""

    __slots__ = ("segment", "live", "global_ids", "norms", "bm25_norms")

    def __init__(self, segment: Segment, live: np.ndarray,
                 global_ids: np.ndarray, bm25_norms: np.ndarray):
        self.segment = segment
        self.live = live
        self.global_ids = global_ids
        #: Cosine document norms, NaN until first needed.
        self.norms = np.full(segment.doc_count, np.nan)
        self.bm25_norms = bm25_norms


class Candidates(NamedTuple):
    """Stage-1 candidates as aligned arrays (see
    :meth:`SegmentedCorpusIndex.candidates`)."""

    doc_ids: np.ndarray
    lexical: np.ndarray
    structural: np.ndarray


_NO_ORDINALS = np.empty(0, dtype=np.int64)
_NO_SCORES = np.empty(0)
_ORDINAL_BITS = np.int64((1 << 32) - 1)


def _rows(ordinals: list) -> np.ndarray:
    """One ascending array of rows ``position << 32 | ordinal`` from
    ascending ordinals per live segment position."""
    rows = [
        (position << 32) | found
        for position, found in enumerate(ordinals) if len(found)
    ]
    return np.concatenate(rows) if rows else _NO_ORDINALS


def _by_part(rows: np.ndarray, n_parts: int):
    """``(position, ordinals)`` of each live segment position that
    ascending ``rows`` (see :func:`_rows`) reach."""
    bounds = rows.searchsorted(
        np.arange(n_parts + 1, dtype=np.int64) << 32
    ).tolist()
    for position in range(n_parts):
        start, stop = bounds[position], bounds[position + 1]
        if stop > start:
            yield position, rows[start:stop] & _ORDINAL_BITS


# ----------------------------------------------------------------------
# The segmented index
# ----------------------------------------------------------------------

class SegmentedCorpusIndex:
    """The on-disk corpus index: immutable segments plus a manifest.

    Mutations (:meth:`add_batch`, :meth:`remove`, :meth:`refresh`,
    :meth:`compact`) persist the manifest atomically before returning;
    segment payloads themselves are written once and never modified.
    ``max_candidates`` (off by default) bounds the lexical scan per
    query: LSH-bucket candidates plus documents from the rarest query
    tokens' postings are admitted until the budget fills, and only the
    admitted documents are scored -- with *exactly* the floats the full
    scan would give them.
    """

    def __init__(self, root: Union[str, Path],
                 config: Optional[IndexConfig] = None,
                 thesaurus: Optional[Thesaurus] = None,
                 auto_compact: bool = True,
                 compact_trigger: int = COMPACT_TRIGGER,
                 tier_factor: int = TIER_FACTOR,
                 max_candidates: Optional[int] = None,
                 log=NULL_LOGGER):
        self.root = Path(root)
        self.config = config if config is not None else IndexConfig()
        if thesaurus is not None:
            self.thesaurus = thesaurus
        elif self.config.use_thesaurus:
            self.thesaurus = Thesaurus.default()
        else:
            self.thesaurus = Thesaurus.empty()
        self._hasher = MinHashIndex(
            num_perm=self.config.num_perm,
            bands=self.config.bands,
            seed=self.config.seed,
        )
        self.auto_compact = auto_compact
        self.compact_trigger = compact_trigger
        self.tier_factor = tier_factor
        self.max_candidates = max_candidates
        #: Structured event sink (compaction events; disabled default).
        self.log = log
        self.corpus_fingerprint = ""
        #: Live segments by id, in manifest (creation) order.
        self._segments: dict[str, Segment] = {}
        #: seg id -> set of tombstoned doc ids.
        self._tombstones: dict[str, set] = {}
        self._next_id = 1
        #: Scan telemetry of the last retrieve (docs scored, postings
        #: entries walked) -- what the scale benchmark asserts on.
        self.last_scan: dict = {}
        self._stats = None
        #: Held while the merged statistics are built (once per change).
        self._stats_lock = threading.Lock()
        self._doc_rows_cache: Optional[tuple] = None
        #: Index-wide token ids, so merged df and idf are arrays.
        self._vocab: dict[str, int] = {}
        self._vocab_lock = threading.Lock()
        #: seg id -> its local token ids mapped into ``_vocab``.
        self._segment_token_ids: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Layout / persistence
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / SEGMENT_MANIFEST_NAME

    def manifest_payload(self) -> dict:
        return {
            "version": SEGMENTS_VERSION,
            "config": self.config.signature(),
            "config_fingerprint": self.config.fingerprint(),
            "corpus_fingerprint": self.corpus_fingerprint,
            "next_id": self._next_id,
            "segments": [
                {"id": seg_id, "docs": segment.doc_count}
                for seg_id, segment in self._segments.items()
            ],
            "tombstones": {
                seg_id: sorted(dead)
                for seg_id, dead in self._tombstones.items() if dead
            },
        }

    def _save_manifest(self):
        atomic_write_text(
            self.manifest_path, canonical_json(self.manifest_payload())
        )

    @classmethod
    def open(cls, root: Union[str, Path],
             thesaurus: Optional[Thesaurus] = None,
             **kwargs) -> "SegmentedCorpusIndex":
        """Open an existing segmented index (manifest + segment metas)."""
        root = Path(root)
        manifest_path = root / SEGMENT_MANIFEST_NAME
        try:
            payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SegmentError(
                f"no segmented index at {str(root)!r} (missing "
                f"{SEGMENT_MANIFEST_NAME}); build one with "
                "qmatch index build"
            ) from None
        except json.JSONDecodeError as exc:
            raise SegmentError(
                f"segment manifest {str(manifest_path)!r} is not valid "
                f"JSON: {exc}"
            ) from None
        version = payload.get("version")
        if version != SEGMENTS_VERSION:
            raise SegmentError(
                f"segment manifest {str(manifest_path)!r} has version "
                f"{version!r}; this build reads version {SEGMENTS_VERSION}"
            )
        config = IndexConfig.from_signature(payload.get("config") or {})
        index = cls(root, config=config, thesaurus=thesaurus, **kwargs)
        index.corpus_fingerprint = str(payload.get("corpus_fingerprint", ""))
        index._next_id = int(payload.get("next_id", 1))
        for row in payload.get("segments") or ():
            seg_id = str(row.get("id"))
            index._segments[seg_id] = Segment(root / seg_id)
        for seg_id, dead in (payload.get("tombstones") or {}).items():
            if seg_id in index._segments:
                index._tombstones[seg_id] = set(dead)
        return index

    @classmethod
    def build(cls, corpus, config: Optional[IndexConfig] = None,
              thesaurus: Optional[Thesaurus] = None,
              root: Optional[Union[str, Path]] = None,
              **kwargs) -> "SegmentedCorpusIndex":
        """Index every corpus entry from scratch into one segment.

        An existing segmented index at ``root`` is replaced.  Building
        twice over the same corpus and config produces byte-identical
        segment files and manifest (no timestamps anywhere).
        """
        root = Path(root) if root is not None else corpus.root / SEGMENTS_DIR
        if root.exists():
            shutil.rmtree(root)
        index = cls(root, config=config, thesaurus=thesaurus, **kwargs)
        index._seal_segment(
            (entry.hash, corpus.load(entry.hash))
            for entry in corpus.entries()
        )
        index.corpus_fingerprint = corpus.fingerprint()
        index._save_manifest()
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_doc_ids(self) -> set:
        """Every indexed, non-tombstoned document id (meta-only; no
        payload load)."""
        live = set()
        for seg_id, segment in self._segments.items():
            dead = self._tombstones.get(seg_id, ())
            live.update(
                doc_id for doc_id in segment.doc_ids if doc_id not in dead
            )
        return live

    @property
    def document_count(self) -> int:
        total = 0
        for seg_id, segment in self._segments.items():
            total += segment.doc_count - len(self._tombstones.get(seg_id, ()))
        return total

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def tombstone_count(self) -> int:
        return sum(len(dead) for dead in self._tombstones.values())

    def segments(self) -> list:
        return list(self._segments.values())

    def info(self) -> dict:
        """Shape summary for ``qmatch index info`` and the metrics gauges."""
        return {
            "kind": "segmented",
            "segments": self.segment_count,
            "docs": self.document_count,
            "tombstones": self.tombstone_count,
            "postings_bytes_loaded": sum(
                segment.bytes_loaded for segment in self._segments.values()
            ),
            "payload_bytes": sum(
                segment.payload_bytes for segment in self._segments.values()
            ),
            "config_fingerprint": self.config.fingerprint(),
        }

    def stale_for(self, corpus) -> bool:
        """True when the corpus content changed since the last
        build/refresh stamped the manifest."""
        return self.corpus_fingerprint != corpus.fingerprint()

    # ------------------------------------------------------------------
    # Query-side feature extraction
    # ------------------------------------------------------------------

    def query_features(self, tree) -> tuple:
        """``(token Counter, MinHash signature)`` of a schema: one
        feature pass (:func:`~repro.corpus.indexes.schema_features`),
        the same for queries and added documents."""
        tokens, shingles = schema_features(tree, self.config, self.thesaurus)
        hashes = feature_memo(self.config, self.thesaurus).shingle_hashes(
            shingles
        )
        return tokens, self._hasher.hashed_signature(hashes)

    def query_tokens(self, tree):
        return schema_features(tree, self.config, self.thesaurus)[0]

    def query_signature(self, tree) -> tuple:
        return self.query_features(tree)[1]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _doc_features(self, tree) -> tuple:
        tokens, signature = self.query_features(tree)
        # Keep the extraction order: document norms accumulate in it,
        # so every segment layout sums them the same way.
        items = [(token, int(tf)) for token, tf in tokens.items() if tf > 0]
        return items, signature

    def _is_live(self, doc_id: str) -> bool:
        """Whether ``doc_id`` is indexed and not tombstoned -- a
        per-segment set probe, never a corpus-sized union (the add path
        must stay corpus-size independent in memory)."""
        for seg_id, segment in self._segments.items():
            if (doc_id in segment.doc_id_set
                    and doc_id not in self._tombstones.get(seg_id, ())):
                return True
        return False

    def _seal_segment(self, trees: Iterable, known: Optional[set] = None,
                      ) -> int:
        """Seal ``(doc_id, tree)`` pairs into one new segment; returns
        how many documents it holds (0 seals nothing)."""
        docs = []
        seen = set()
        for doc_id, tree in trees:
            if doc_id in seen:
                continue
            if known is not None:
                if doc_id in known:
                    continue
            elif self._is_live(doc_id):
                continue
            items, signature = self._doc_features(tree)
            docs.append((doc_id, items, signature))
            seen.add(doc_id)
        if not docs:
            return 0
        seg_id = f"seg-{self._next_id:06d}"
        self._next_id += 1
        segment = Segment.write(
            self.root / seg_id, seg_id, docs, self.config.num_perm
        )
        self._segments[seg_id] = segment
        self._invalidate()
        return len(docs)

    def add_batch(self, trees: Iterable) -> int:
        """Index a batch of ``(doc_id, tree)`` pairs as one immutable
        segment; already-live doc ids are skipped.

        Existing segments are neither loaded nor rewritten -- the cost
        of batch N+1 is independent of batches 1..N (auto-compaction,
        when it triggers, is the explicit amortized exception; pass
        ``auto_compact=False`` to schedule it yourself).
        """
        added = self._seal_segment(trees)
        if added:
            self._save_manifest()
            if self.auto_compact:
                self.compact(full=False)
        return added

    def remove(self, doc_id: str) -> bool:
        """Tombstone one live document; returns whether it was found.

        The segment payload is untouched; a segment whose documents are
        all tombstoned is dropped entirely.
        """
        changed = self._tombstone(doc_id)
        if changed:
            self._drop_dead_segments()
            self._save_manifest()
        return changed

    def _tombstone(self, doc_id: str) -> bool:
        for seg_id, segment in self._segments.items():
            dead = self._tombstones.setdefault(seg_id, set())
            if doc_id in dead or doc_id not in segment.doc_id_set:
                continue
            dead.add(doc_id)
            self._invalidate()
            return True
        return False

    def _drop_dead_segments(self):
        for seg_id in list(self._segments):
            segment = self._segments[seg_id]
            dead = self._tombstones.get(seg_id, set())
            if segment.doc_count and len(dead) == segment.doc_count:
                del self._segments[seg_id]
                self._tombstones.pop(seg_id, None)
                shutil.rmtree(segment.root, ignore_errors=True)
                self._invalidate()

    def refresh(self, corpus) -> tuple:
        """Bring the index up to date with ``corpus`` incrementally.

        New corpus entries seal into one new segment; entries the
        corpus no longer holds are tombstoned.  Returns
        ``(added, removed)`` and stamps the corpus fingerprint -- one
        manifest write for the whole diff.
        """
        corpus_hashes = {entry.hash for entry in corpus.entries()}
        live = self.live_doc_ids()
        removed = 0
        for doc_id in sorted(live - corpus_hashes):
            if self._tombstone(doc_id):
                removed += 1
        self._drop_dead_segments()
        added = self._seal_segment(
            (
                (entry.hash, corpus.load(entry.hash))
                for entry in corpus.entries()
                if entry.hash not in live
            ),
            known=set(),
        )
        self.corpus_fingerprint = corpus.fingerprint()
        self._save_manifest()
        if self.auto_compact:
            self.compact(full=False)
        return added, removed

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _live_rows(self, seg_ids) -> list:
        """Live ``(doc_id, items, signature)`` rows of the given
        segments, in (segment, ordinal) order."""
        rows = []
        for seg_id in seg_ids:
            segment = self._segments[seg_id].load(self._hasher)
            dead = self._tombstones.get(seg_id, ())
            for ordinal, doc_id in enumerate(segment.doc_ids):
                if doc_id in dead:
                    continue
                rows.append((
                    doc_id,
                    segment.items_of(ordinal),
                    segment.signatures[ordinal].tolist(),
                ))
        return rows

    def _merge_segments(self, seg_ids: list) -> int:
        """Fold ``seg_ids`` into one new segment, dropping tombstones."""
        rows = self._live_rows(seg_ids)
        dropped = sum(
            len(self._tombstones.get(seg_id, ())) for seg_id in seg_ids
        )
        old = [self._segments[seg_id] for seg_id in seg_ids]
        new_id = f"seg-{self._next_id:06d}"
        self._next_id += 1
        merged = None
        if rows:
            merged = Segment.write(
                self.root / new_id, new_id, rows, self.config.num_perm
            )
        # Rebuild the ordered segment map: merged segment takes the
        # first merged member's position, the rest disappear.
        out: dict[str, Segment] = {}
        placed = False
        for seg_id, segment in self._segments.items():
            if seg_id in seg_ids:
                if merged is not None and not placed:
                    out[new_id] = merged
                    placed = True
                continue
            out[seg_id] = segment
        if merged is not None and not placed:
            out[new_id] = merged
        self._segments = out
        for seg_id in seg_ids:
            self._tombstones.pop(seg_id, None)
        self._invalidate()
        self._save_manifest()
        for segment in old:
            shutil.rmtree(segment.root, ignore_errors=True)
        return dropped

    def _tier_of(self, live_docs: int) -> int:
        return int(math.log(max(live_docs, 1), self.tier_factor))

    def compact(self, full: bool = True) -> dict:
        """Fold segments together and drop tombstoned documents.

        ``full=True`` (the ``qmatch index compact`` behaviour) merges
        *everything* into one segment.  ``full=False`` applies the
        size-tiered policy: any tier (live-doc counts within one power
        of :attr:`tier_factor`) holding at least
        :attr:`compact_trigger` segments is folded, repeatedly, until
        no tier triggers -- the auto-trigger ``add_batch`` runs.
        Returns ``{"merged", "dropped", "segments"}``.
        """
        merged = dropped = 0
        if full:
            seg_ids = list(self._segments)
            if len(seg_ids) > 1 or self.tombstone_count:
                dropped += self._merge_segments(seg_ids)
                merged += len(seg_ids)
        else:
            while True:
                tiers: dict[int, list] = {}
                for seg_id, segment in self._segments.items():
                    live = segment.doc_count - len(
                        self._tombstones.get(seg_id, ())
                    )
                    tiers.setdefault(self._tier_of(live), []).append(seg_id)
                candidates = [
                    seg_ids for _, seg_ids in sorted(tiers.items())
                    if len(seg_ids) >= self.compact_trigger
                ]
                if not candidates:
                    break
                group = candidates[0]
                dropped += self._merge_segments(group)
                merged += len(group)
        if merged or dropped:
            # No-op auto-compact probes (every add_batch) stay silent;
            # actual merges are operationally interesting.
            self.log.event(
                "segments.compact", full=full, merged=merged,
                dropped=dropped, segments=self.segment_count,
            )
        return {
            "merged": merged,
            "dropped": dropped,
            "segments": self.segment_count,
        }

    # ------------------------------------------------------------------
    # Merged global statistics (the parity core)
    # ------------------------------------------------------------------

    def _invalidate(self):
        # Locked: a build begun before a write must not publish after it.
        with self._stats_lock:
            self._stats = None
            self._doc_rows_cache = None

    def _global_ids(self, seg_id: str, segment: Segment) -> np.ndarray:
        """The segment's token ids in the index-wide vocabulary,
        registered once per segment (the vocabulary only grows)."""
        ids = self._segment_token_ids.get(seg_id)
        if ids is None:
            with self._vocab_lock:
                vocab = self._vocab
                ids = np.array(
                    [vocab.setdefault(token, len(vocab))
                     for token in segment.vocab],
                    dtype=np.int64,
                )
            self._segment_token_ids[seg_id] = ids
        return ids

    def _live_mask(self, seg_id: str, segment: Segment) -> np.ndarray:
        live = np.ones(segment.doc_count, dtype=bool)
        dead = self._tombstones.get(seg_id)
        if dead:
            live[[
                ordinal for ordinal, doc_id in enumerate(segment.doc_ids)
                if doc_id in dead
            ]] = False
        return live

    def _ensure_stats(self) -> dict:
        """The merged statistics, built once between the threads whose
        first searches overlap (inline-mode service threads)."""
        stats = self._stats
        if stats is None:
            with self._stats_lock:
                stats = self._stats
                if stats is None:
                    stats = self._stats = self._merge_stats()
        return stats

    def _merge_stats(self) -> dict:
        """Load every segment and merge document frequencies, lengths
        and counts across them.

        ``df``/``n`` merged this way are exactly what a single segment
        over the same live documents would hold, so the idf of every
        token is the same float for every segment layout.
        """
        n = 0
        total_length = 0
        loaded = []
        for seg_id, segment in self._segments.items():
            segment.load(self._hasher)
            live = self._live_mask(seg_id, segment)
            n += int(np.count_nonzero(live))
            total_length += int(segment.lengths[live].sum())
            loaded.append((seg_id, segment, live,
                           self._global_ids(seg_id, segment)))
        self._segment_token_ids = {
            seg_id: ids for seg_id, _, _, ids in loaded
        }
        df = np.zeros(len(self._vocab), dtype=np.int64)
        for _, segment, live, ids in loaded:
            if live.all():
                df[ids] += np.diff(segment.post_ptr)
            else:
                df[ids] += np.bincount(
                    segment.tokens[np.repeat(live, np.diff(segment.indptr))],
                    minlength=len(segment.vocab),
                )
        # Smoothed idf, with math.log once per distinct df.
        distinct, which = np.unique(df, return_inverse=True)
        idf = np.array([
            _smoothed_idf(n, count) for count in distinct.tolist()
        ], dtype=float)[which]
        stats = {"n": n, "df": df, "idf": idf, "total_length": total_length}
        avgdl = _average_length(stats)
        stats["segments"] = [
            _LiveSegment(segment, live, ids,
                         _bm25_length_norms(segment.lengths, avgdl))
            for _, segment, live, ids in loaded
        ]
        return stats

    def _idf(self, token: str, stats: dict) -> float:
        return _smoothed_idf(stats["n"], self._query_dfs([token], stats)[0])

    def _doc_rows(self) -> tuple:
        """``(live segments, {doc_id: row})`` over every live document,
        where ``row`` packs the position of its live segment (high 32
        bits) and its ordinal there (low 32 bits) into one int."""
        cached = self._doc_rows_cache
        if cached is None:
            parts = self._ensure_stats()["segments"]
            rows = {}
            for position, part in enumerate(parts):
                doc_ids = part.segment.doc_ids
                for ordinal in np.flatnonzero(part.live).tolist():
                    rows[doc_ids[ordinal]] = (position << 32) | ordinal
            cached = self._doc_rows_cache = (parts, rows)
        return cached

    def _doc_norms(self, part: _LiveSegment, ordinals: np.ndarray,
                   stats: dict) -> np.ndarray:
        """Cosine norms of some of a segment's documents, each computed
        on first need with the merged idf and cached."""
        norms = part.norms
        missing = ordinals[np.isnan(norms[ordinals])]
        if len(missing):
            segment = part.segment
            starts = segment.indptr[missing]
            counts = segment.indptr[missing + 1] - starts
            entries = _ranges(starts, counts)
            products = (
                segment.weights[entries]
                * stats["idf"][part.global_ids[segment.tokens[entries]]]
            ).tolist()
            stop = 0
            for ordinal, count in zip(missing.tolist(), counts.tolist()):
                start, stop = stop, stop + count
                # The builtin sum over the stored token order: Python
                # 3.12 made it compensated, and each regime's goldens
                # pin its floats (np.sum would add pairwise).
                norms[ordinal] = math.sqrt(
                    sum(value ** 2 for value in products[start:stop])
                )
        return norms[ordinals]

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    #
    # Lexical scores are sums of per-(document, query term) values.
    # Each value is computed with the float operations of the scalar
    # formula, and each document adds its values term by term in query
    # order starting from 0.0 -- so every score is the float the
    # per-posting loop over Python dicts gave, bit for bit.

    def _query_dfs(self, query_tokens, stats: dict) -> list:
        """The merged document frequency of each query token, in query
        order (0 for one unseen)."""
        df = stats["df"]
        size = len(df)
        vocab = self._vocab
        # Ids past the merged arrays (vocabulary grown since) read 0.
        gids = np.array([vocab.get(token, size) for token in query_tokens],
                        dtype=np.int64)
        return np.append(df, 0)[np.minimum(gids, size)].tolist()

    def _query_terms(self, query_tokens, dfs: list, scorer: str,
                     stats: dict) -> tuple:
        """``(tokens, scales, idfs, query_norm_sq)`` of the scoring terms
        in query order.  A cosine term's value in a document is ``scale
        * ((1 + log tf) * idf)`` and the query norm² comes along; a BM25
        term's is ``scale * (tf * (k1 + 1)) / (tf + k1 * length norm)``
        with ``scale = qtf * idf`` and no query norm."""
        terms = []
        query_norm_sq = None
        n = stats["n"]
        if scorer == "bm25":
            for (token, qtf), df in zip(query_tokens.items(), dfs):
                if qtf > 0 and df:
                    idf = max(
                        math.log(1.0 + (n - df + 0.5) / (df + 0.5)), 1e-6
                    )
                    terms.append((token, qtf * idf, idf))
        else:
            query_norm_sq = 0.0
            for (token, qtf), df in zip(query_tokens.items(), dfs):
                if qtf <= 0:
                    continue
                idf = _smoothed_idf(n, df)
                q_weight = (1.0 + math.log(qtf)) * idf
                query_norm_sq += q_weight ** 2
                terms.append((token, q_weight, idf))
        scales = np.array([scale for _, scale, _ in terms], dtype=float)
        idfs = np.array([idf for _, _, idf in terms], dtype=float)
        return [token for token, _, _ in terms], scales, idfs, query_norm_sq

    @staticmethod
    def _term_values(scorer: str, scales: np.ndarray, idfs: np.ndarray,
                     term: np.ndarray, tfs: np.ndarray, weights: np.ndarray,
                     length_norms: Optional[np.ndarray]) -> np.ndarray:
        """Per entry (``term``, ``tfs``, ``weights`` and, for BM25, its
        document's ``length_norms`` aligned) the query term's
        contribution to the document's score."""
        if scorer == "cosine":
            return scales[term] * (weights * idfs[term])
        return (
            scales[term] * (tfs * (BM25_K1 + 1.0))
            / (tfs + BM25_K1 * length_norms)
        )

    def _scan(self, scorer: str, query: tuple, stats: dict) -> tuple:
        """Every live document's raw score from the query terms'
        posting runs, segment by segment.  Returns ``([(part,
        ordinals, raw scores)], postings_walked)``."""
        tokens, scales, idfs, _ = query
        found = []
        walked = 0
        for part in stats["segments"]:
            segment = part.segment
            token_ids = segment.token_ids
            held = [
                (token_ids[token], position)
                for position, token in enumerate(tokens) if token in token_ids
            ]
            if not held:
                continue
            local_ids, positions = np.array(held, dtype=np.int64).T
            starts = segment.post_ptr[local_ids]
            counts = segment.post_ptr[local_ids + 1] - starts
            entries = _ranges(starts, counts)
            walked += len(entries)
            docs = segment.post_docs[entries]
            values = self._term_values(
                scorer, scales, idfs, positions.repeat(counts),
                segment.post_tfs[entries], segment.post_weights[entries],
                part.bm25_norms[docs] if scorer == "bm25" else None,
            )
            # bincount adds each document's values in entry order, and
            # the entries run term by term in query order.
            totals = np.bincount(
                docs, weights=values, minlength=segment.doc_count
            )
            # Every value is positive: a positive total marks exactly
            # the documents holding a query term.
            ordinals = ((totals > 0.0) & part.live).nonzero()[0]
            found.append((part, ordinals, totals[ordinals]))
        return found, walked

    def _admit(self, query_tokens, dfs: list, stats: dict,
               extra=None) -> tuple:
        """Budget-mode admission: LSH candidates plus documents from
        the rarest query tokens' postings, until the budget fills.

        Tokens are consumed whole (ascending merged df, then token
        order) so admission is deterministic; the admitted set is then
        scored exactly, so a budgeted score equals the full-scan score
        for every admitted document.  ``extra`` holds admitted ordinals
        per live segment (unique, live).  Returns ``(admitted ordinals
        per live segment, admitted count, postings_walked)``.
        """
        budget = self.max_candidates
        parts = stats["segments"]
        # Per live segment: the live documents not admitted yet.
        waiting = [part.live.copy() for part in parts]
        count = 0
        for unadmitted, ordinals in zip(waiting, extra or ()):
            unadmitted[ordinals] = False
            count += len(ordinals)
        walked = 0
        by_rarity = [
            (df, token)
            for (token, qtf), df in zip(query_tokens.items(), dfs)
            if qtf > 0 and df
        ]
        for _, token in sorted(by_rarity):
            if count >= budget:
                break
            for part, unadmitted in zip(parts, waiting):
                segment = part.segment
                lid = segment.token_ids.get(token)
                if lid is None:
                    continue
                docs = segment.post_docs[
                    segment.post_ptr[lid]:segment.post_ptr[lid + 1]
                ]
                walked += len(docs)
                fresh = docs[unadmitted[docs]]
                unadmitted[fresh] = False
                count += len(fresh)
        admitted = [
            (part.live & ~unadmitted).nonzero()[0]
            for part, unadmitted in zip(parts, waiting)
        ]
        return admitted, count, walked

    def _score_admitted(self, scorer: str, query: tuple, admitted: list,
                        stats: dict) -> list:
        """Raw scores of the admitted documents, computed from their
        stored rows (never the posting lists).  Returns ``[(part,
        ordinals, raw scores)]``."""
        tokens, scales, idfs, _ = query
        parts = [
            (part, ordinals)
            for part, ordinals in zip(stats["segments"], admitted)
            if len(ordinals)
        ]
        if not tokens or not parts:
            return []
        # Index-wide token id -> query term position (-1: not a term).
        term_of = np.full(len(stats["df"]), -1, dtype=np.int64)
        for position, token in enumerate(tokens):
            gid = self._vocab.get(token)
            if gid is not None and gid < len(term_of):
                term_of[gid] = position
        # The query-term entries of every segment's admitted rows, one
        # segment after another, rows numbered across segments.
        rows, terms, tfs, weights, length_norms = [], [], [], [], []
        n_rows = 0
        for part, ordinals in parts:
            segment = part.segment
            starts = segment.indptr[ordinals]
            counts = segment.indptr[ordinals + 1] - starts
            entries = _ranges(starts, counts)
            term = term_of[part.global_ids[segment.tokens[entries]]]
            # One integer selection serves every column.
            kept = np.flatnonzero(term >= 0)
            entries = entries[kept]
            terms.append(term[kept])
            rows.append(np.arange(n_rows, n_rows + len(ordinals)).repeat(
                counts
            )[kept])
            n_rows += len(ordinals)
            tfs.append(segment.tfs[entries])
            weights.append(segment.weights[entries])
            length_norms.append(part.bm25_norms[ordinals])
        row, term = np.concatenate(rows), np.concatenate(terms)
        grid = np.zeros((len(tokens), n_rows))
        grid[term, row] = self._term_values(
            scorer, scales, idfs, term, np.concatenate(tfs),
            np.concatenate(weights),
            np.concatenate(length_norms)[row] if scorer == "bm25" else None,
        )
        # Term by term in query order; accumulate adds sequentially.
        totals = np.add.accumulate(grid, axis=0)[-1]
        found = []
        stop = 0
        for part, ordinals in parts:
            start, stop = stop, stop + len(ordinals)
            raw = totals[start:stop]
            held = raw != 0.0
            found.append((part, ordinals[held], raw[held]))
        return found

    def _final_scores(self, scorer: str, found: list,
                      query_norm_sq: Optional[float], stats: dict) -> list:
        """``[(part, ordinals, scores)]`` from raw scores: cosine
        divides by the query and document norms, BM25 by its maximum."""
        if scorer == "bm25":
            best = max(
                (float(raw.max()) for _, _, raw in found if len(raw)),
                default=0.0,
            )
            if best <= 0.0:
                return []
            return [(part, ordinals, raw / best)
                    for part, ordinals, raw in found]
        if query_norm_sq <= 0.0:
            return []
        query_norm = math.sqrt(query_norm_sq)
        # A document holding a query term has a norm of at least 1.
        return [
            (part, ordinals,
             dots / (query_norm * self._doc_norms(part, ordinals, stats)))
            for part, ordinals, dots in found
        ]

    def _lexical(self, query_tokens, scorer: str, stats: dict,
                 admit_extra=None) -> list:
        """Lexical scores across segments with merged-IDF parity:
        ``[(part, ordinals, scores)]``, ordinals ascending, over the
        live segments of ``stats``."""
        if scorer not in LEXICAL_SCORERS:
            raise SegmentError(
                f"unknown scorer {scorer!r}: expected one of "
                f"{', '.join(LEXICAL_SCORERS)}"
            )
        scan = {
            "docs_scored": 0, "postings_walked": 0,
            "live_docs": stats["n"], "budget": self.max_candidates,
        }
        self.last_scan = scan
        if stats["n"] == 0:
            return []
        dfs = self._query_dfs(query_tokens, stats)
        query = self._query_terms(query_tokens, dfs, scorer, stats)
        if self.max_candidates is None:
            found, walked = self._scan(scorer, query, stats)
            scored = sum(len(ordinals) for _, ordinals, _ in found)
        else:
            admitted, scored, walked = self._admit(
                query_tokens, dfs, stats, extra=admit_extra
            )
            found = self._score_admitted(scorer, query, admitted, stats)
        scan["docs_scored"] = scored
        scan["postings_walked"] = walked
        return self._final_scores(scorer, found, query[3], stats)

    def _lexical_scores(self, query_tokens, scorer: str = "cosine",
                        admit_extra=None) -> dict:
        """``{doc_id: lexical score}`` (a view of :meth:`_lexical`)."""
        scores: dict = {}
        for part, ordinals, values in self._lexical(
                query_tokens, scorer, self._ensure_stats(), admit_extra):
            scores.update(zip(
                part.segment.doc_id_array[ordinals].tolist(),
                values.tolist(),
            ))
        return scores

    def _structural_ordinals(self, signature: tuple, stats: dict) -> list:
        """Per live segment, the live documents sharing at least one
        LSH band with ``signature``."""
        hasher = self._hasher
        query = np.asarray(signature, dtype=np.uint64)
        keys = hasher.band_hashes(query)[0]
        query_bands = query.reshape(hasher.bands, hasher.rows)
        found = []
        for part in stats["segments"]:
            segment = part.segment
            lo = segment.band_keys.searchsorted(keys, side="left")
            counts = segment.band_keys.searchsorted(keys, side="right") - lo
            if not counts.any():
                found.append(np.empty(0, dtype=np.int64))
                continue
            docs = segment.band_docs[_ranges(lo, counts)]
            band = np.arange(hasher.bands).repeat(counts)
            # A key match is a candidate; the band's own rows decide.
            rows = segment.signatures.reshape(
                -1, hasher.bands, hasher.rows
            )[docs, band]
            ordinals = np.unique(
                docs[(rows == query_bands[band]).all(axis=1)]
            )
            found.append(ordinals[part.live[ordinals]])
        return found

    def _agreement(self, parts: list, rows: np.ndarray,
                   signature: tuple) -> np.ndarray:
        """Estimated Jaccard similarity of ``signature`` against the
        documents at ascending ``rows`` (see :func:`_rows`) of ``parts``:
        the fraction of MinHash positions the two signatures agree
        on."""
        stored = np.concatenate([
            parts[position].segment.signatures[ordinals]
            for position, ordinals in _by_part(rows, len(parts))
        ])
        agree = np.count_nonzero(
            stored == np.asarray(signature, dtype=np.uint64), axis=1
        )
        return agree / self.config.num_perm

    def estimates(self, signature: tuple, doc_ids) -> list:
        """Estimated Jaccard similarity against each stored document
        (0.0 for one not live)."""
        parts, known = self._doc_rows()
        rows = np.array([known.get(doc_id, -1) for doc_id in doc_ids],
                        dtype=np.int64)
        out = np.zeros(len(rows))
        live = np.flatnonzero(rows >= 0)
        if len(live):
            order = live[np.argsort(rows[live], kind="stable")]
            out[order] = self._agreement(parts, rows[order], signature)
        return out.tolist()

    def _stage_one(self, query_tokens, signature: tuple,
                   scorer: str) -> list:
        """One serial scan over the live segments: per live segment,
        ``(part, lexical ordinals, lexical scores, LSH ordinals)``.

        One call for both signals lets budget mode admit the LSH
        candidates into the exactly-scored set.  Both read one snapshot
        of the merged statistics: threads sharing an index may each
        build one on their first search.
        """
        stats = self._ensure_stats()
        structural = self._structural_ordinals(signature, stats)
        lexical = {
            part: (ordinals, scores)
            for part, ordinals, scores in self._lexical(
                query_tokens, scorer, stats,
                admit_extra=structural if self.max_candidates is not None
                else None,
            )
        }
        return [
            (part, *lexical.get(part, (_NO_ORDINALS, _NO_SCORES)), lsh)
            for part, lsh in zip(stats["segments"], structural)
        ]

    def candidates(self, query_tokens, signature: tuple,
                   scorer: str = "cosine") -> Candidates:
        """Stage-1 retrieval as aligned arrays: every live document the
        postings *or* the LSH buckets surface, with its lexical score
        (0.0 when only LSH found it) and its MinHash estimate.

        The two signals' documents are unioned as integer rows and
        estimated from the rows; no doc id is read before the union.
        Documents run segment by segment, ordinals ascending.
        """
        found = self._stage_one(query_tokens, signature, scorer)
        parts = [part for part, _, _, _ in found]
        lexical_rows = _rows([ordinals for _, ordinals, _, _ in found])
        rows = np.union1d(lexical_rows,
                          _rows([lsh for _, _, _, lsh in found]))
        if not len(rows):
            return Candidates(np.empty(0, dtype=object), _NO_SCORES,
                              _NO_SCORES)
        lexical = np.zeros(len(rows))
        lexical[rows.searchsorted(lexical_rows)] = np.concatenate(
            [scores for _, _, scores, _ in found]
        )
        doc_ids = np.concatenate([
            parts[position].segment.doc_id_array[ordinals]
            for position, ordinals in _by_part(rows, len(parts))
        ])
        return Candidates(doc_ids, lexical,
                          self._agreement(parts, rows, signature))

    def retrieve_scores(self, query_tokens, signature: tuple,
                        scorer: str = "cosine") -> tuple:
        """``({doc_id: lexical score}, {LSH candidate doc ids})``: the
        by-id view of one stage-1 scan."""
        lexical: dict = {}
        candidates: set = set()
        for part, ordinals, scores, lsh in self._stage_one(
                query_tokens, signature, scorer):
            doc_ids = part.segment.doc_id_array
            lexical.update(zip(doc_ids[ordinals].tolist(), scores.tolist()))
            candidates.update(doc_ids[lsh].tolist())
        return lexical, candidates

    def __repr__(self):
        return (
            f"<SegmentedCorpusIndex root={str(self.root)!r} "
            f"segments={self.segment_count} docs={self.document_count} "
            f"tombstones={self.tombstone_count}>"
        )
