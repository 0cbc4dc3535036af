"""Segmented corpus index: packed payloads, golden score parity,
tombstones, compaction, lazy loading (repro.corpus.segments).

Score references are the frozen goldens of :mod:`tests.corpus_golden`
(recorded from the former monolithic index) and, for corpora the
goldens do not cover, a fresh single-segment build over the same live
documents -- the build those goldens pin.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.corpus import (
    CorpusSearcher,
    SchemaCorpus,
    Segment,
    SegmentedCorpusIndex,
    SegmentError,
)
from repro.corpus.indexes import MinHashIndex
from repro.corpus.segments import (
    SEGMENT_META_NAME,
    SEGMENTS_DIR,
    pack_postings,
    pack_signatures,
    unpack_postings,
    unpack_signatures,
)
from repro.datasets.registry import load_schema, schema_names
from repro.xsd.generator import SchemaGenerator, synthetic_corpus_configs
from tests.corpus_golden import load_fixture


def doc_items(columns) -> list:
    """Per-document ordered ``(token, tf)`` lists of postings columns."""
    vocab, indptr, tokens, tfs = columns
    return [
        [(vocab[token], tf) for token, tf in zip(
            tokens[start:stop].tolist(), tfs[start:stop].tolist()
        )]
        for start, stop in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]


def synth_trees(count, n_nodes=8, max_depth=2):
    """Small deterministic trees for shape-sensitive segment tests."""
    return [
        SchemaGenerator(config).generate()
        for config in synthetic_corpus_configs(
            count, n_nodes=n_nodes, max_depth=max_depth, schema_vocab=12
        )
    ]


# ----------------------------------------------------------------------
# Packed payload codecs
# ----------------------------------------------------------------------

class TestPacking:
    def test_postings_round_trip_preserves_order(self):
        docs = [
            [("beta", 3), ("alpha", 1), ("gamma", 2)],
            [],
            [("alpha", 7)],
        ]
        columns = unpack_postings(pack_postings(docs))
        assert doc_items(columns) == docs
        assert columns.vocab == ("beta", "alpha", "gamma")
        assert columns.indptr.tolist() == [0, 3, 3, 4]

    def test_postings_handle_non_ascii_tokens(self):
        docs = [[("protéine", 2), ("感情", 1)]]
        assert doc_items(unpack_postings(pack_postings(docs))) == docs

    def test_postings_truncation_rejected(self):
        packed = pack_postings([[("alpha", 1), ("beta", 2)]])
        with pytest.raises(SegmentError, match="postings payload"):
            unpack_postings(packed[:-8])

    def test_postings_bad_magic_rejected(self):
        with pytest.raises(SegmentError, match="magic"):
            unpack_postings(b"XXXX" + b"\x00" * 16)

    def test_signatures_round_trip(self):
        signatures = [(1, 2, 3, 2 ** 61 - 2), (0, 0, 0, 0)]
        packed = pack_signatures(signatures, num_perm=4)
        matrix, num_perm = unpack_signatures(packed)
        assert num_perm == 4
        assert matrix.dtype == np.uint64 and matrix.shape == (2, 4)
        assert [tuple(row) for row in matrix.tolist()] == signatures

    def test_signatures_length_mismatch_rejected(self):
        with pytest.raises(SegmentError, match="num_perm"):
            pack_signatures([(1, 2)], num_perm=3)

    def test_signatures_bad_magic_rejected(self):
        with pytest.raises(SegmentError, match="magic"):
            unpack_signatures(b"NOPE" + b"\x00" * 16)


# ----------------------------------------------------------------------
# One segment
# ----------------------------------------------------------------------

class TestSegment:
    DOCS = [
        ("doc-a", [("alpha", 2), ("beta", 1)], (1, 2, 3, 4)),
        ("doc-b", [("beta", 5)], (5, 6, 7, 8)),
    ]

    def test_write_then_open_is_lazy(self, tmp_path):
        segment = Segment.write(tmp_path / "seg", "seg-000001",
                                self.DOCS, num_perm=4)
        reopened = Segment(tmp_path / "seg")
        assert reopened.seg_id == "seg-000001"
        assert reopened.doc_ids == ["doc-a", "doc-b"]
        assert reopened.doc_count == 2
        assert not reopened.loaded
        assert reopened.bytes_loaded == 0
        assert reopened.payload_bytes == segment.payload_bytes > 0

    def test_load_materializes_payloads(self, tmp_path):
        Segment.write(tmp_path / "seg", "seg-000001", self.DOCS, num_perm=4)
        segment = Segment(tmp_path / "seg")
        hasher = MinHashIndex(num_perm=4, bands=2)
        segment.load(hasher)
        assert segment.loaded
        assert segment.bytes_loaded == segment.payload_bytes
        assert segment.items_of(0) == [("alpha", 2), ("beta", 1)]
        assert segment.items_of(1) == [("beta", 5)]
        assert segment.lengths.tolist() == [3, 5]
        assert segment.signatures[1].tolist() == [5, 6, 7, 8]
        # The inverse postings: one run per token, documents ascending.
        beta = segment.token_ids["beta"]
        run = slice(segment.post_ptr[beta], segment.post_ptr[beta + 1])
        assert segment.post_docs[run].tolist() == [0, 1]
        assert segment.post_tfs[run].tolist() == [1, 5]

    def test_load_is_idempotent(self, tmp_path):
        Segment.write(tmp_path / "seg", "seg-000001", self.DOCS, num_perm=4)
        segment = Segment(tmp_path / "seg")
        hasher = MinHashIndex(num_perm=4, bands=2)
        first = segment.load(hasher).post_docs
        assert segment.load(hasher).post_docs is first

    def test_load_publishes_last(self, tmp_path, monkeypatch):
        # Inline-mode service threads share one index and load its
        # segments lazily: a segment must not report ``loaded`` while
        # it is half decoded.
        from repro.corpus import segments

        Segment.write(tmp_path / "seg", "seg-000001", self.DOCS, num_perm=4)
        segment = Segment(tmp_path / "seg")
        seen = []
        real_unpack = segments.unpack_signatures

        def unpack_and_peek(blob):
            seen.append((segment.loaded, segment.indptr))
            return real_unpack(blob)

        monkeypatch.setattr(segments, "unpack_signatures", unpack_and_peek)
        segment.load(MinHashIndex(num_perm=4, bands=2))
        assert seen == [(False, None)]
        assert segment.loaded and segment.indptr is not None

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(SegmentError, match=SEGMENT_META_NAME):
            Segment(tmp_path / "absent")

    def test_version_mismatch_rejected(self, tmp_path):
        Segment.write(tmp_path / "seg", "seg-000001", self.DOCS, num_perm=4)
        meta = tmp_path / "seg" / SEGMENT_META_NAME
        meta.write_text(
            meta.read_text(encoding="utf-8").replace(
                '"version": 1', '"version": 99'
            ),
            encoding="utf-8",
        )
        with pytest.raises(SegmentError, match="version"):
            Segment(tmp_path / "seg")


# ----------------------------------------------------------------------
# Score parity with the frozen goldens (the acceptance assertion)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_corpus(tmp_path_factory):
    """Every builtin schema in one corpus (the golden fixture corpus)."""
    corpus = SchemaCorpus(tmp_path_factory.mktemp("segments") / "corpus")
    corpus.add_many([load_schema(name) for name in schema_names()])
    return corpus


@pytest.fixture(scope="module")
def seg_index(full_corpus):
    """A fresh single-segment build: the reference layout."""
    return SegmentedCorpusIndex.build(full_corpus)


@pytest.fixture(scope="module")
def multi_seg_index(full_corpus, tmp_path_factory):
    """The same documents sealed three at a time into many segments."""
    index = SegmentedCorpusIndex(
        tmp_path_factory.mktemp("multi") / "segments", auto_compact=False
    )
    entries = full_corpus.entries()
    for start in range(0, len(entries), 3):
        index.add_batch(
            (entry.hash, full_corpus.load(entry.hash))
            for entry in entries[start:start + 3]
        )
    return index


@pytest.fixture(scope="module")
def golden():
    """Per-query golden cases of the builtins corpus, keyed by name."""
    return load_fixture("builtins")["queries"]


def named_scores(corpus, scores) -> dict:
    """``{doc_id: float}`` as the goldens store it: ``{name: repr}``."""
    return {
        corpus.entry(doc_id).name: repr(score)
        for doc_id, score in scores.items()
    }


class TestMonolithicParity:
    """Every layout reproduces the monolithic-recorded goldens."""

    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    def test_lexical_scores_byte_identical(self, full_corpus, seg_index,
                                           golden, scorer):
        for entry in full_corpus.entries():
            tokens = seg_index.query_tokens(full_corpus.load(entry.hash))
            assert named_scores(
                full_corpus, seg_index._lexical_scores(tokens, scorer=scorer)
            ) == golden[entry.name][scorer]["lexical"]

    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    def test_multi_segment_scores_byte_identical(self, full_corpus,
                                                 multi_seg_index, golden,
                                                 scorer):
        # Splitting the corpus across segments must not move a single
        # bit: IDF and norms come from the merged statistics.
        assert multi_seg_index.segment_count > 1
        for entry in full_corpus.entries():
            tokens = multi_seg_index.query_tokens(
                full_corpus.load(entry.hash)
            )
            assert named_scores(
                full_corpus,
                multi_seg_index._lexical_scores(tokens, scorer=scorer),
            ) == golden[entry.name][scorer]["lexical"]

    def test_structural_candidates_identical(self, full_corpus,
                                             multi_seg_index, golden):
        for entry in full_corpus.entries():
            tree = full_corpus.load(entry.hash)
            _, candidates = multi_seg_index.retrieve_scores(
                multi_seg_index.query_tokens(tree),
                multi_seg_index.query_signature(tree),
            )
            assert sorted(
                full_corpus.entry(doc_id).name for doc_id in candidates
            ) == golden[entry.name]["candidates"]

    def test_jaccard_estimates_identical(self, full_corpus, multi_seg_index,
                                         golden):
        for entry in full_corpus.entries():
            signature = multi_seg_index.query_signature(
                full_corpus.load(entry.hash)
            )
            expected = golden[entry.name]["estimates"]
            estimates = multi_seg_index.estimates(
                signature, [full_corpus.entry(name).hash for name in expected]
            )
            assert {
                name: repr(estimate)
                for name, estimate in zip(expected, estimates)
            } == expected

    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    def test_top_k_ids_and_scores_identical(self, full_corpus, seg_index,
                                            multi_seg_index, golden, scorer):
        # The acceptance check: retrieval returns the golden ranked ids
        # with the golden floats, whatever the segment layout.
        for index in (seg_index, multi_seg_index):
            searcher = CorpusSearcher(full_corpus, index, scorer=scorer)
            for entry in full_corpus.entries():
                got = searcher.search(full_corpus.load(entry.hash), k=10,
                                      rerank=False)
                assert [
                    [hit.hash, hit.name, repr(hit.retrieval_score),
                     repr(hit.lexical_score), repr(hit.structural_score)]
                    for hit in got.hits
                ] == golden[entry.name][scorer]["search"]

    def test_reopened_index_scores_identical(self, full_corpus, seg_index,
                                             golden):
        reopened = SegmentedCorpusIndex.open(
            full_corpus.root / SEGMENTS_DIR
        )
        tokens = seg_index.query_tokens(full_corpus.load("Book"))
        scores = reopened._lexical_scores(tokens)
        assert scores == seg_index._lexical_scores(tokens)
        assert named_scores(full_corpus, scores) \
            == golden["Book"]["cosine"]["lexical"]

    def test_document_counts_agree(self, full_corpus, seg_index,
                                   multi_seg_index):
        assert seg_index.document_count == len(full_corpus)
        assert multi_seg_index.document_count == len(full_corpus)
        assert seg_index.live_doc_ids() == multi_seg_index.live_doc_ids() \
            == {entry.hash for entry in full_corpus.entries()}

    def test_unknown_scorer_rejected(self, seg_index):
        with pytest.raises(SegmentError, match="unknown scorer"):
            seg_index._lexical_scores({"a": 1}, scorer="tfidf")


class TestSerialScan:
    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    def test_full_scan_starts_no_thread(self, full_corpus, multi_seg_index,
                                        scorer):
        # Stage 1 walks the segments one after another on the calling
        # thread; a freshly opened index has started nothing yet.
        index = SegmentedCorpusIndex.open(multi_seg_index.root)
        assert index.segment_count > 1 and index.max_candidates is None
        before = set(threading.enumerate())
        for entry in full_corpus.entries():
            tree = full_corpus.load(entry.hash)
            index.retrieve_scores(index.query_tokens(tree),
                                  index.query_signature(tree),
                                  scorer=scorer)
        assert not set(threading.enumerate()) - before
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("qmatch-seg")
        ]


class TestConcurrentFirstSearch:
    def test_threads_loading_one_index_agree(self, full_corpus,
                                             multi_seg_index):
        # Inline-mode service threads share one index: concurrent first
        # searches load its segments and register their tokens in the
        # index-wide vocabulary at once, and must score exactly as one
        # thread does.
        trees = [full_corpus.load(entry.hash)
                 for entry in full_corpus.entries()]

        def retrieve(index, tree, scorer):
            lexical, candidates = index.retrieve_scores(
                index.query_tokens(tree), index.query_signature(tree),
                scorer=scorer,
            )
            return named_scores(full_corpus, lexical), candidates

        expected = {
            (tree.name, scorer): retrieve(multi_seg_index, tree, scorer)
            for tree in trees for scorer in ("cosine", "bm25")
        }
        index = SegmentedCorpusIndex.open(multi_seg_index.root)
        results, errors = {}, []

        def worker(tree, scorer):
            try:
                results[tree.name, scorer] = retrieve(index, tree, scorer)
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tree, scorer))
            for tree in trees for scorer in ("cosine", "bm25")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == expected


    def test_cold_index_builds_statistics_once(self, full_corpus,
                                               tmp_path, monkeypatch):
        # Eight threads whose first searches on one cold 3-segment index
        # overlap: the merged statistics are built once, so every
        # segment is decoded once, and each result is the serial one.
        index = SegmentedCorpusIndex(tmp_path / "segments",
                                     auto_compact=False)
        entries = full_corpus.entries()
        size = -(-len(entries) // 3)
        for start in range(0, len(entries), size):
            index.add_batch(
                (entry.hash, full_corpus.load(entry.hash))
                for entry in entries[start:start + size]
            )
        assert len(index.segments()) == 3
        trees = [full_corpus.load(entry.hash) for entry in entries[:8]]

        def retrieve(index, tree):
            return index.retrieve_scores(index.query_tokens(tree),
                                         index.query_signature(tree))

        serial = SegmentedCorpusIndex.open(index.root)
        expected = [retrieve(serial, tree) for tree in trees]
        decoded = []
        load = Segment.load

        def counting_load(segment, hasher):
            if not segment.loaded:
                decoded.append(segment.seg_id)
            return load(segment, hasher)

        monkeypatch.setattr(Segment, "load", counting_load)
        cold = SegmentedCorpusIndex.open(index.root)
        results, errors = [None] * len(trees), []

        def worker(position):
            try:
                results[position] = retrieve(cold, trees[position])
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(position,))
                   for position in range(len(trees))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(decoded) == sorted(
            segment.seg_id for segment in cold.segments())
        assert results == expected


class TestLazyLoading:
    def test_open_reads_only_meta(self, full_corpus, seg_index):
        reopened = SegmentedCorpusIndex.open(
            full_corpus.root / SEGMENTS_DIR
        )
        assert reopened.document_count == len(full_corpus)
        assert reopened.live_doc_ids() == seg_index.live_doc_ids()
        assert all(not segment.loaded for segment in reopened.segments())
        assert reopened.info()["postings_bytes_loaded"] == 0

    def test_first_search_loads_payloads(self, full_corpus):
        reopened = SegmentedCorpusIndex.open(
            full_corpus.root / SEGMENTS_DIR
        )
        tree = full_corpus.load("PO1")
        reopened._lexical_scores(reopened.query_tokens(tree))
        info = reopened.info()
        assert info["postings_bytes_loaded"] > 0
        assert info["postings_bytes_loaded"] == info["payload_bytes"]

    def test_add_batch_leaves_sealed_segments_cold(self, tmp_path):
        # The constant-memory property: indexing batch N+1 neither
        # loads nor rewrites segments 1..N.
        trees = synth_trees(6)
        index = SegmentedCorpusIndex(
            tmp_path / "segments", auto_compact=False
        )
        assert index.add_batch(
            (tree.name, tree) for tree in trees[:3]
        ) == 3
        first = index.segments()[0]
        assert index.add_batch(
            (tree.name, tree) for tree in trees[3:]
        ) == 3
        assert not first.loaded
        assert index.segment_count == 2
        assert index.document_count == 6

    def test_add_batch_skips_live_documents(self, tmp_path):
        trees = synth_trees(3)
        index = SegmentedCorpusIndex(
            tmp_path / "segments", auto_compact=False
        )
        index.add_batch((tree.name, tree) for tree in trees)
        assert index.add_batch((tree.name, tree) for tree in trees) == 0
        assert index.segment_count == 1


class TestBuildDeterminism:
    def test_build_twice_is_byte_identical(self, tmp_path, po1_tree,
                                           po2_tree, book_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add_many([po1_tree, po2_tree, book_tree])
        first = SegmentedCorpusIndex.build(corpus, root=tmp_path / "a")
        second = SegmentedCorpusIndex.build(corpus, root=tmp_path / "b")
        files_a = sorted(
            path.relative_to(first.root)
            for path in first.root.rglob("*") if path.is_file()
        )
        files_b = sorted(
            path.relative_to(second.root)
            for path in second.root.rglob("*") if path.is_file()
        )
        assert files_a == files_b
        for relative in files_a:
            assert (first.root / relative).read_bytes() \
                == (second.root / relative).read_bytes()


# ----------------------------------------------------------------------
# Tombstones, refresh, staleness
# ----------------------------------------------------------------------

class TestTombstones:
    @pytest.fixture()
    def corpus(self, tmp_path, po1_tree, po2_tree, book_tree, article_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add_many([po1_tree, po2_tree, book_tree, article_tree])
        return corpus

    def test_remove_tombstones_without_rewriting(self, corpus):
        index = SegmentedCorpusIndex.build(corpus)
        segment_root = index.segments()[0].root
        before = sorted(
            (path.name, path.read_bytes())
            for path in segment_root.iterdir()
        )
        doomed = corpus.entry("PO2").hash
        assert index.remove(doomed)
        assert doomed not in index.live_doc_ids()
        assert index.document_count == 3
        assert index.tombstone_count == 1
        # The segment payload is untouched -- only the manifest moved.
        assert before == sorted(
            (path.name, path.read_bytes())
            for path in segment_root.iterdir()
        )

    def test_remove_unknown_returns_false(self, corpus):
        index = SegmentedCorpusIndex.build(corpus)
        assert not index.remove("not-a-doc")
        assert index.tombstone_count == 0

    def test_tombstoned_scores_match_shrunken_monolithic(self, corpus,
                                                         tmp_path):
        index = SegmentedCorpusIndex.build(corpus)
        index.remove(corpus.entry("PO2").hash)
        corpus.remove("PO2")
        fresh = SegmentedCorpusIndex.build(corpus, root=tmp_path / "fresh")
        tree = corpus.load("PO1")
        tokens = fresh.query_tokens(tree)
        # Removal changes N and df, hence every idf: parity must hold
        # against a fresh build over the remaining documents.
        for scorer in ("cosine", "bm25"):
            assert index._lexical_scores(tokens, scorer=scorer) \
                == fresh._lexical_scores(tokens, scorer=scorer)

    def test_tombstones_survive_reopen(self, corpus):
        index = SegmentedCorpusIndex.build(corpus)
        doomed = corpus.entry("Book").hash
        index.remove(doomed)
        reopened = SegmentedCorpusIndex.open(index.root)
        assert reopened.tombstone_count == 1
        assert doomed not in reopened.live_doc_ids()

    def test_fully_dead_segment_is_dropped(self, corpus, human_tree):
        index = SegmentedCorpusIndex.build(corpus, auto_compact=False)
        index.add_batch([("extra", human_tree)])
        assert index.segment_count == 2
        extra_root = index.segments()[1].root
        index.remove("extra")
        assert index.segment_count == 1
        assert index.tombstone_count == 0
        assert not extra_root.exists()

    def test_remove_then_readd_same_name(self, corpus, tmp_path):
        index = SegmentedCorpusIndex.build(corpus, auto_compact=False)
        readded = corpus.load("PO1")
        doomed = corpus.entry("PO1").hash
        corpus.remove("PO1")
        assert index.refresh(corpus) == (0, 1)
        assert doomed not in index.live_doc_ids()
        corpus.add(readded)
        assert index.stale_for(corpus)
        assert index.refresh(corpus) == (1, 0)
        # The doc id now exists twice on disk -- tombstoned in the old
        # segment, live in the new one -- but counts exactly once.
        assert doomed in index.live_doc_ids()
        assert index.document_count == 4
        fresh = SegmentedCorpusIndex.build(corpus, root=tmp_path / "fresh")
        tokens = fresh.query_tokens(readded)
        assert index._lexical_scores(tokens) \
            == fresh._lexical_scores(tokens)


class TestRefreshAndStale:
    def test_refresh_adds_and_removes_incrementally(
            self, tmp_path, po1_tree, po2_tree, book_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add_many([po1_tree, po2_tree])
        index = SegmentedCorpusIndex.build(corpus)
        assert not index.stale_for(corpus)
        corpus.add(book_tree)
        assert index.stale_for(corpus)
        assert index.refresh(corpus) == (1, 0)
        assert not index.stale_for(corpus)
        corpus.remove("PO2")
        assert index.stale_for(corpus)
        assert index.refresh(corpus) == (0, 1)
        assert not index.stale_for(corpus)
        assert index.live_doc_ids() \
            == {entry.hash for entry in corpus.entries()}

    def test_refresh_is_one_new_segment(self, tmp_path, po1_tree, po2_tree,
                                        book_tree, article_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add_many([po1_tree, po2_tree])
        index = SegmentedCorpusIndex.build(corpus, auto_compact=False)
        corpus.add_many([book_tree, article_tree])
        assert index.refresh(corpus) == (2, 0)
        assert index.segment_count == 2

    def test_reopened_staleness_matches(self, tmp_path, po1_tree, po2_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add(po1_tree)
        index = SegmentedCorpusIndex.build(corpus)
        reopened = SegmentedCorpusIndex.open(index.root)
        assert not reopened.stale_for(corpus)
        corpus.add(po2_tree)
        assert reopened.stale_for(corpus)

    def test_open_without_manifest_rejected(self, tmp_path):
        with pytest.raises(SegmentError, match="qmatch index build"):
            SegmentedCorpusIndex.open(tmp_path / "nothing")

    def test_corrupt_manifest_rejected(self, tmp_path):
        root = tmp_path / "segments"
        root.mkdir()
        (root / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SegmentError, match="JSON"):
            SegmentedCorpusIndex.open(root)


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------

class TestCompaction:
    def test_full_compact_folds_everything(self, tmp_path):
        trees = synth_trees(6)
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add_many(trees)
        index = SegmentedCorpusIndex(
            tmp_path / "segments", auto_compact=False
        )
        for start in (0, 2, 4):
            index.add_batch(
                (tree.name, tree) for tree in trees[start:start + 2]
            )
        index.remove(trees[0].name)
        outcome = index.compact(full=True)
        assert outcome == {"merged": 3, "dropped": 1, "segments": 1}
        assert index.tombstone_count == 0
        assert index.document_count == 5
        assert trees[0].name not in index.live_doc_ids()

    def test_compact_is_idempotent(self, tmp_path, po1_tree, po2_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        corpus.add_many([po1_tree, po2_tree])
        index = SegmentedCorpusIndex.build(corpus)
        assert index.compact(full=True)["merged"] == 0

    def test_tombstone_survives_partial_compaction(self, tmp_path):
        # One 8-doc segment plus four singletons.  Size-tiered
        # compaction folds the singleton tier only; a tombstone in the
        # big (unmerged) segment must keep excluding its doc across the
        # compaction boundary, and a later full compact drops it.
        trees = synth_trees(12)
        index = SegmentedCorpusIndex(
            tmp_path / "segments", auto_compact=False, compact_trigger=4
        )
        index.add_batch((tree.name, tree) for tree in trees[:8])
        for tree in trees[8:]:
            index.add_batch([(tree.name, tree)])
        assert index.segment_count == 5
        doomed = trees[2].name
        index.remove(doomed)
        assert index.tombstone_count == 1
        outcome = index.compact(full=False)
        assert outcome["merged"] == 4
        assert outcome["dropped"] == 0
        assert index.segment_count == 2
        assert index.tombstone_count == 1
        assert doomed not in index.live_doc_ids()
        assert index.document_count == 11
        outcome = index.compact(full=True)
        assert outcome["dropped"] == 1
        assert index.tombstone_count == 0
        assert doomed not in index.live_doc_ids()

    def test_auto_compaction_bounds_segment_count(self, tmp_path):
        trees = synth_trees(8)
        index = SegmentedCorpusIndex(
            tmp_path / "segments", compact_trigger=2
        )
        for tree in trees:
            index.add_batch([(tree.name, tree)])
        assert index.document_count == 8
        assert index.segment_count < 4

    def test_compaction_preserves_scores(self, tmp_path, po1_tree, po2_tree,
                                         book_tree, article_tree,
                                         library_tree, human_tree):
        corpus = SchemaCorpus(tmp_path / "corpus")
        trees = [po1_tree, po2_tree, book_tree,
                 article_tree, library_tree, human_tree]
        corpus.add_many(trees)
        index = SegmentedCorpusIndex(
            tmp_path / "segments", auto_compact=False
        )
        entries = corpus.entries()
        for start in (0, 2, 4):
            index.add_batch(
                (entry.hash, corpus.load(entry.hash))
                for entry in entries[start:start + 2]
            )
        fresh = SegmentedCorpusIndex.build(corpus, root=tmp_path / "fresh")
        tokens = fresh.query_tokens(po1_tree)
        expected = fresh._lexical_scores(tokens)
        assert index._lexical_scores(tokens) == expected
        index.compact(full=True)
        assert index.segment_count == 1
        assert index._lexical_scores(tokens) == expected


# ----------------------------------------------------------------------
# Budget mode (max_candidates)
# ----------------------------------------------------------------------

class TestBudgetMode:
    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    def test_budgeted_scores_are_exact_subset(self, full_corpus, seg_index,
                                              scorer):
        budgeted = SegmentedCorpusIndex.open(
            full_corpus.root / SEGMENTS_DIR, max_candidates=6
        )
        for name in ("PO1", "Book", "Library"):
            tree = full_corpus.load(name)
            tokens = seg_index.query_tokens(tree)
            signature = seg_index.query_signature(tree)
            full = seg_index._lexical_scores(tokens, scorer=scorer)
            lexical, _ = budgeted.retrieve_scores(tokens, signature,
                                                  scorer=scorer)
            assert lexical
            # Admission may prune candidates, but never perturbs the
            # score of anything admitted.
            for doc_id, score in lexical.items():
                assert score == full[doc_id]
            # The query's own document is LSH-admitted and stays top.
            self_hash = full_corpus.entry(name).hash
            assert max(lexical, key=lexical.get) == self_hash
            assert budgeted.last_scan["budget"] == 6

    def test_scan_telemetry_recorded(self, full_corpus, seg_index):
        tree = full_corpus.load("PO1")
        seg_index._lexical_scores(seg_index.query_tokens(tree))
        scan = seg_index.last_scan
        assert scan["live_docs"] == len(full_corpus)
        assert scan["docs_scored"] > 0
        assert scan["postings_walked"] > 0
        assert scan["budget"] is None
