"""Schema corpus: persistent schema collections with top-k search.

The pairwise QMatch engine is ``O(n*m)`` per schema pair, which makes
matching one query schema against a repository of thousands of schemas
quadratic in practice.  This subpackage adds the repository layer that
prunes candidate pairs before the expensive hybrid match runs:

- :class:`~repro.corpus.corpus.SchemaCorpus` -- a versioned on-disk
  collection of canonical XSD documents keyed by content hash, with an
  atomically-updated manifest;
- :class:`~repro.corpus.segments.SegmentedCorpusIndex` -- the on-disk
  index: immutable segments with packed postings over normalized label
  tokens (IDF-weighted cosine or BM25) and MinHash/LSH signatures over
  node-label shingles for structural blocking, with tombstoned removals
  and size-tiered compaction;
- :class:`~repro.corpus.search.CorpusSearcher` -- two-stage top-k
  search: one serial index scan to a candidate shortlist, then a full
  QMatch rerank of the shortlist through the batch runner.

The CLI front ends are ``qmatch index build/add/info/compact`` and
``qmatch search``; the HTTP front end is ``POST /search`` on
``qmatch serve --corpus``.  See DESIGN.md §9 and §13.
"""

from repro.corpus.corpus import CorpusEntry, CorpusError, SchemaCorpus
from repro.corpus.indexes import (
    IndexConfig,
    MinHashIndex,
    schema_shingles,
    schema_tokens,
)
from repro.corpus.search import CorpusSearcher, SearchHit, SearchResult
from repro.corpus.segments import (
    Segment,
    SegmentedCorpusIndex,
    SegmentError,
)

__all__ = [
    "CorpusEntry",
    "CorpusError",
    "CorpusSearcher",
    "IndexConfig",
    "MinHashIndex",
    "SchemaCorpus",
    "SearchHit",
    "SearchResult",
    "Segment",
    "SegmentError",
    "SegmentedCorpusIndex",
    "schema_shingles",
    "schema_tokens",
]
