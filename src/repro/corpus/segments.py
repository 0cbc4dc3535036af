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
  100k-schema corpus reads only the small ``meta.json`` headers.
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
``query_tokens``, ``query_signature``, ``retrieve_scores`` and
``estimate``.  ``retrieve_scores`` walks the live segments one after
another on the calling thread (the scan is pure-Python dict work
under the GIL, so threads would add no speed) and supports a
candidate-admission budget (``max_candidates``) that turns the full
postings scan into work proportional to the rarest query tokens plus
the budget.
"""

from __future__ import annotations

import json
import math
import shutil
import struct
import sys
from array import array
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.corpus.indexes import (
    BM25_B,
    BM25_K1,
    LEXICAL_SCORERS,
    IndexConfig,
    MinHashIndex,
    schema_shingles,
    schema_tokens,
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


def unpack_postings(blob: bytes) -> list:
    """Inverse of :func:`pack_postings`: per-doc ordered (token, tf) lists."""
    if blob[:4] != _POSTINGS_MAGIC:
        raise SegmentError("postings payload has a bad magic header")
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


def pack_signatures(signatures: list, num_perm: int) -> bytes:
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
    """Inverse of :func:`pack_signatures`: ``(signatures, num_perm)``."""
    if blob[:4] != _MINHASH_MAGIC:
        raise SegmentError("minhash payload has a bad magic header")
    n_docs, num_perm = struct.unpack_from("<IH", blob, 4)
    flat = array("Q")
    flat.frombytes(blob[10:10 + 8 * n_docs * num_perm])
    if sys.byteorder != "little":
        flat.byteswap()
    signatures = [
        tuple(flat[i * num_perm:(i + 1) * num_perm]) for i in range(n_docs)
    ]
    return signatures, num_perm


# ----------------------------------------------------------------------
# One immutable segment
# ----------------------------------------------------------------------

class Segment:
    """One sealed segment: metadata eagerly, packed payloads lazily.

    Constructing a :class:`Segment` reads only ``meta.json`` (doc ids
    and sizes); :meth:`load` materializes postings, per-doc token maps,
    lengths, signatures and LSH buckets on the first search that needs
    them.  ``bytes_loaded`` reports how many packed payload bytes this
    segment has actually pulled into memory (the
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
        self._doc_items = None
        self._doc_maps = None
        self._lengths = None
        self._postings = None
        self._signatures = None
        self._buckets = None

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
        return self._doc_items is not None

    def load(self, hasher: MinHashIndex) -> "Segment":
        """Materialize the packed payloads (idempotent).

        Everything is decoded into locals first and published with
        :attr:`loaded` turning true last, so a search on another thread
        (inline-mode service threads share one index) never sees half a
        load.
        """
        if self.loaded:
            return self
        postings_blob = (self.root / SEGMENT_POSTINGS_NAME).read_bytes()
        minhash_blob = (self.root / SEGMENT_MINHASH_NAME).read_bytes()
        doc_items = unpack_postings(postings_blob)
        if len(doc_items) != len(self.doc_ids):
            raise SegmentError(
                f"segment {self.seg_id}: postings cover "
                f"{len(doc_items)} docs, meta lists {len(self.doc_ids)}"
            )
        signatures, num_perm = unpack_signatures(minhash_blob)
        if num_perm != self.num_perm or len(signatures) != len(self.doc_ids):
            raise SegmentError(
                f"segment {self.seg_id}: minhash payload does not match meta"
            )
        postings: dict[str, list] = {}
        for ordinal, items in enumerate(doc_items):
            for token, tf in items:
                postings.setdefault(token, []).append((ordinal, tf))
        buckets: dict[tuple, list] = {}
        for ordinal, signature in enumerate(signatures):
            for key in hasher.band_keys(signature):
                buckets.setdefault(key, []).append(ordinal)
        self._signatures = signatures
        self._doc_maps = [dict(items) for items in doc_items]
        self._lengths = [sum(tf for _, tf in items) for items in doc_items]
        self._postings = postings
        self._buckets = buckets
        self.bytes_loaded = len(postings_blob) + len(minhash_blob)
        self._doc_items = doc_items
        return self

    def items_of(self, ordinal: int) -> list:
        """The ordered (token, tf) vector of one document."""
        return self._doc_items[ordinal]

    def map_of(self, ordinal: int) -> dict:
        return self._doc_maps[ordinal]

    def length_of(self, ordinal: int) -> int:
        return self._lengths[ordinal]

    def signature_of(self, ordinal: int) -> tuple:
        return self._signatures[ordinal]

    @property
    def postings(self) -> dict:
        return self._postings

    @property
    def buckets(self) -> dict:
        return self._buckets

    def __repr__(self):
        state = "loaded" if self.loaded else "lazy"
        return f"<Segment {self.seg_id} docs={self.doc_count} {state}>"


# ----------------------------------------------------------------------
# BM25 pieces shared by the full scan and budget mode
# ----------------------------------------------------------------------

def _average_length(stats: dict) -> float:
    n = stats["n"]
    return stats["total_length"] / n if n else 0.0


def _bm25_length_norm(length: int, avgdl: float) -> float:
    """BM25's document-length normalization of one document."""
    return 1.0 - BM25_B + BM25_B * (length / avgdl) if avgdl > 0.0 else 1.0


def _max_normalized(sums: dict) -> dict:
    """Raw BM25 sums divided by their maximum (empty when none is
    positive)."""
    if not sums:
        return {}
    best = max(sums.values())
    if best <= 0.0:
        return {}
    return {doc_id: value / best for doc_id, value in sums.items()}


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
        self._norms: dict[str, float] = {}
        self._doc_loc: Optional[dict] = None

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

    def query_tokens(self, tree):
        return schema_tokens(tree, self.config, self.thesaurus)

    def query_signature(self, tree) -> tuple:
        return self._hasher.signature(schema_shingles(tree, self.config))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _doc_features(self, tree) -> tuple:
        tokens = schema_tokens(tree, self.config, self.thesaurus)
        # Keep the extraction order: document norms accumulate in it,
        # so every segment layout sums them the same way.
        items = [(token, int(tf)) for token, tf in tokens.items() if tf > 0]
        signature = self._hasher.signature(
            schema_shingles(tree, self.config)
        )
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
                    segment.signature_of(ordinal),
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
        self._stats = None
        self._norms = {}
        self._doc_loc = None

    def _dead_ordinals(self, seg_id: str, segment: Segment) -> frozenset:
        dead = self._tombstones.get(seg_id)
        if not dead:
            return frozenset()
        return frozenset(
            ordinal for ordinal, doc_id in enumerate(segment.doc_ids)
            if doc_id in dead
        )

    def _ensure_stats(self) -> dict:
        """Load every segment (first search) and merge document
        frequencies, lengths and counts across them.

        ``df``/``n`` merged this way are exactly what a single segment
        over the same live documents would hold, so :meth:`_idf` gives
        the same IDF floats for every segment layout.
        """
        if self._stats is not None:
            return self._stats
        n = 0
        total_length = 0
        df: dict[str, int] = {}
        dead_by_seg: dict[str, frozenset] = {}
        for seg_id, segment in self._segments.items():
            segment.load(self._hasher)
            dead = self._dead_ordinals(seg_id, segment)
            dead_by_seg[seg_id] = dead
            n += segment.doc_count - len(dead)
            for ordinal in range(segment.doc_count):
                if ordinal not in dead:
                    total_length += segment.length_of(ordinal)
            for token, plist in segment.postings.items():
                if dead:
                    count = sum(
                        1 for ordinal, _ in plist if ordinal not in dead
                    )
                else:
                    count = len(plist)
                if count:
                    df[token] = df.get(token, 0) + count
        self._stats = {
            "n": n,
            "df": df,
            "total_length": total_length,
            "dead": dead_by_seg,
        }
        return self._stats

    def _idf(self, token: str, stats: dict) -> float:
        # Smoothed inverse document frequency over the merged df.
        df = stats["df"].get(token, 0)
        return math.log((1 + stats["n"]) / (1 + df)) + 1.0

    def _locate(self, doc_id: str) -> Optional[tuple]:
        """The (segment, ordinal) of one live document."""
        if self._doc_loc is None:
            stats = self._ensure_stats()
            loc = {}
            for seg_id, segment in self._segments.items():
                dead = stats["dead"][seg_id]
                for ordinal, did in enumerate(segment.doc_ids):
                    if ordinal not in dead:
                        loc[did] = (segment, ordinal)
            self._doc_loc = loc
        return self._doc_loc.get(doc_id)

    def _norm(self, doc_id: str, stats: dict) -> float:
        """Document norm with merged IDF, in stored token order."""
        norm = self._norms.get(doc_id)
        if norm is not None:
            return norm
        located = self._locate(doc_id)
        if located is None:
            return 0.0
        segment, ordinal = located
        items = segment.items_of(ordinal)
        if not items:
            return 0.0
        norm = math.sqrt(sum(
            ((1.0 + math.log(tf)) * self._idf(token, stats)) ** 2
            for token, tf in items
        ))
        self._norms[doc_id] = norm
        return norm

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def _query_weights(self, query_tokens, stats: dict) -> tuple:
        """Cosine query weights in query order plus the norm²."""
        weights = []
        query_norm_sq = 0.0
        for token, qtf in query_tokens.items():
            if qtf <= 0:
                continue
            idf = self._idf(token, stats)
            q_weight = (1.0 + math.log(qtf)) * idf
            query_norm_sq += q_weight ** 2
            weights.append((token, q_weight, idf))
        return weights, query_norm_sq

    def _cosine_dots(self, weights: list, stats: dict) -> tuple:
        """Every live document's cosine dot product, walked segment by
        segment (per-doc token order = query order).  Returns
        ``(dots, postings_walked)``."""
        dots: dict[str, float] = {}
        walked = 0
        for seg_id, segment in self._segments.items():
            dead = stats["dead"][seg_id]
            postings = segment.postings
            doc_ids = segment.doc_ids
            for token, q_weight, idf in weights:
                plist = postings.get(token)
                if not plist:
                    continue
                walked += len(plist)
                for ordinal, tf in plist:
                    if ordinal in dead:
                        continue
                    doc_id = doc_ids[ordinal]
                    dots[doc_id] = (
                        dots.get(doc_id, 0.0)
                        + q_weight * ((1.0 + math.log(tf)) * idf)
                    )
        return dots, walked

    @staticmethod
    def _bm25_terms(query_tokens, stats: dict) -> list:
        """BM25 ``(token, qtf, idf)`` terms in query order, for the
        query tokens some live document holds."""
        n = stats["n"]
        terms = []
        for token, qtf in query_tokens.items():
            df = stats["df"].get(token, 0)
            if qtf > 0 and df:
                idf = max(
                    math.log(1.0 + (n - df + 0.5) / (df + 0.5)), 1e-6
                )
                terms.append((token, qtf, idf))
        return terms

    def _bm25_sums(self, terms: list, stats: dict) -> tuple:
        """Every live document's raw BM25 sum, walked segment by
        segment.  Returns ``(sums, postings_walked)``."""
        avgdl = _average_length(stats)
        sums: dict[str, float] = {}
        walked = 0
        for seg_id, segment in self._segments.items():
            dead = stats["dead"][seg_id]
            postings = segment.postings
            doc_ids = segment.doc_ids
            norms = [
                _bm25_length_norm(segment.length_of(ordinal), avgdl)
                for ordinal in range(segment.doc_count)
            ]
            for token, qtf, idf in terms:
                plist = postings.get(token)
                if not plist:
                    continue
                walked += len(plist)
                for ordinal, tf in plist:
                    if ordinal in dead:
                        continue
                    doc_id = doc_ids[ordinal]
                    sums[doc_id] = (
                        sums.get(doc_id, 0.0)
                        + qtf * idf * (tf * (BM25_K1 + 1.0))
                        / (tf + BM25_K1 * norms[ordinal])
                    )
        return sums, walked

    def _admit(self, query_tokens, stats: dict, extra=None) -> tuple:
        """Budget-mode admission: LSH candidates plus documents from
        the rarest query tokens' postings, until the budget fills.

        Tokens are consumed whole (ascending merged df, then token
        order) so admission is deterministic; the admitted set is then
        scored exactly, so a budgeted score equals the full-scan score
        for every admitted document.  Returns ``(admitted,
        postings_walked)``.
        """
        budget = self.max_candidates
        admitted = set(extra or ())
        walked = 0
        by_rarity = sorted(
            (
                (stats["df"].get(token, 0), token)
                for token, qtf in query_tokens.items()
                if qtf > 0 and stats["df"].get(token, 0)
            ),
        )
        for _, token in by_rarity:
            if len(admitted) >= budget:
                break
            for seg_id, segment in self._segments.items():
                plist = segment.postings.get(token)
                if not plist:
                    continue
                dead = stats["dead"][seg_id]
                walked += len(plist)
                doc_ids = segment.doc_ids
                for ordinal, _ in plist:
                    if ordinal not in dead:
                        admitted.add(doc_ids[ordinal])
        return admitted, walked

    def _score_admitted(self, admitted: set, query_tokens, scorer: str,
                        stats: dict) -> dict:
        """Exact per-document scores for an admitted set, computed from
        the stored document vectors (never the posting lists)."""
        if scorer == "cosine":
            weights, query_norm_sq = self._query_weights(query_tokens, stats)
            if query_norm_sq <= 0.0:
                return {}
            query_norm = math.sqrt(query_norm_sq)
            scores = {}
            for doc_id in admitted:
                located = self._locate(doc_id)
                if located is None:
                    continue
                segment, ordinal = located
                doc_map = segment.map_of(ordinal)
                dot = 0.0
                for token, q_weight, idf in weights:
                    tf = doc_map.get(token)
                    if tf:
                        dot += q_weight * ((1.0 + math.log(tf)) * idf)
                if dot:
                    doc_norm = self._norm(doc_id, stats)
                    if doc_norm > 0.0:
                        scores[doc_id] = dot / (query_norm * doc_norm)
            return scores
        terms = self._bm25_terms(query_tokens, stats)
        avgdl = _average_length(stats)
        sums = {}
        for doc_id in admitted:
            located = self._locate(doc_id)
            if located is None:
                continue
            segment, ordinal = located
            doc_map = segment.map_of(ordinal)
            norm = _bm25_length_norm(segment.length_of(ordinal), avgdl)
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

    def _lexical_scores(self, query_tokens, scorer: str = "cosine",
                        admit_extra=None) -> dict:
        """Lexical scores across segments with merged-IDF parity."""
        if scorer not in LEXICAL_SCORERS:
            raise SegmentError(
                f"unknown scorer {scorer!r}: expected one of "
                f"{', '.join(LEXICAL_SCORERS)}"
            )
        stats = self._ensure_stats()
        scan = {
            "docs_scored": 0, "postings_walked": 0,
            "live_docs": stats["n"], "budget": self.max_candidates,
        }
        self.last_scan = scan
        if stats["n"] == 0:
            return {}
        if self.max_candidates is not None:
            admitted, walked = self._admit(
                query_tokens, stats, extra=admit_extra
            )
            scores = self._score_admitted(
                admitted, query_tokens, scorer, stats
            )
            scan["docs_scored"] = len(admitted)
            scan["postings_walked"] = walked
            return scores
        if scorer == "bm25":
            sums, walked = self._bm25_sums(
                self._bm25_terms(query_tokens, stats), stats
            )
            scan["docs_scored"] = len(sums)
            scan["postings_walked"] = walked
            return _max_normalized(sums)
        weights, query_norm_sq = self._query_weights(query_tokens, stats)
        dots, walked = self._cosine_dots(weights, stats)
        scan["docs_scored"] = len(dots)
        scan["postings_walked"] = walked
        if not dots or query_norm_sq <= 0.0:
            return {}
        query_norm = math.sqrt(query_norm_sq)
        scores = {}
        for doc_id, dot in dots.items():
            doc_norm = self._norm(doc_id, stats)
            if doc_norm > 0.0:
                scores[doc_id] = dot / (query_norm * doc_norm)
        return scores

    def _structural_candidates(self, signature: tuple) -> set:
        """Doc ids sharing at least one LSH band, across segments."""
        stats = self._ensure_stats()
        keys = list(self._hasher.band_keys(signature))
        found: set = set()
        for seg_id, segment in self._segments.items():
            dead = stats["dead"][seg_id]
            doc_ids = segment.doc_ids
            for key in keys:
                for ordinal in segment.buckets.get(key, ()):
                    if ordinal not in dead:
                        found.add(doc_ids[ordinal])
        return found

    def estimate(self, signature: tuple, doc_id: str) -> float:
        """Estimated Jaccard similarity against one stored document: the
        fraction of MinHash positions the two signatures agree on."""
        located = self._locate(doc_id)
        if located is None:
            return 0.0
        segment, ordinal = located
        stored = segment.signature_of(ordinal)
        agree = sum(1 for a, b in zip(signature, stored) if a == b)
        return agree / self.config.num_perm

    def retrieve_scores(self, query_tokens, signature: tuple,
                        scorer: str = "cosine") -> tuple:
        """One-call stage-1 retrieval: ``(lexical_scores, structural_
        candidates)``, one serial scan over the live segments.

        One call for both signals lets budget mode admit the LSH
        candidates into the exactly-scored set.
        """
        structural = self._structural_candidates(signature)
        lexical = self._lexical_scores(
            query_tokens, scorer=scorer,
            admit_extra=structural if self.max_candidates is not None
            else None,
        )
        return lexical, structural

    def __repr__(self):
        return (
            f"<SegmentedCorpusIndex root={str(self.root)!r} "
            f"segments={self.segment_count} docs={self.document_count} "
            f"tombstones={self.tombstone_count}>"
        )
