"""Hash-sharded stage-1 search (repro.corpus.shard)."""

from __future__ import annotations

import pytest

from repro.corpus import (
    CorpusSearcher,
    SchemaCorpus,
    SegmentedCorpusIndex,
    SegmentError,
    ShardedCorpusSearcher,
)
from repro.corpus.shard import shard_of


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, po1_tree, po2_tree, book_tree, article_tree,
           library_tree, human_tree):
    corpus = SchemaCorpus(tmp_path_factory.mktemp("shard") / "corpus")
    corpus.add_many([po1_tree, po2_tree, book_tree,
                     article_tree, library_tree, human_tree])
    return corpus


@pytest.fixture(scope="module")
def seg_index(corpus):
    """Three segments of two documents each -- something to shard."""
    index = SegmentedCorpusIndex(
        corpus.root / "segments", auto_compact=False
    )
    entries = corpus.entries()
    for start in (0, 2, 4):
        index.add_batch(
            (entry.hash, corpus.load(entry.hash))
            for entry in entries[start:start + 2]
        )
    index.corpus_fingerprint = corpus.fingerprint()
    return index


class TestShardAssignment:
    def test_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for seg_id in ("seg-000001", "seg-000002", "seg-999999"):
                first = shard_of(seg_id, shards)
                assert 0 <= first < shards
                assert shard_of(seg_id, shards) == first

    def test_groups_partition_segments(self, corpus, seg_index):
        searcher = ShardedCorpusSearcher(corpus, seg_index, shards=2)
        groups = searcher.shard_groups()
        flat = [segment.seg_id for group in groups for segment in group]
        assert sorted(flat) == sorted(
            segment.seg_id for segment in seg_index.segments()
        )
        assert len(flat) == len(set(flat))


class TestConstruction:
    def test_bad_shard_count_rejected(self, corpus, seg_index):
        with pytest.raises(SegmentError, match="shards"):
            ShardedCorpusSearcher(corpus, seg_index, shards=0)


class TestShardedParity:
    """Sharding is an execution strategy, never a ranking change."""

    def ranking(self, searcher, tree):
        result = searcher.search(tree, k=6, rerank=False)
        return [
            (hit.hash, hit.retrieval_score, hit.lexical_score,
             hit.structural_score)
            for hit in result.hits
        ]

    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_unsharded_segmented(self, corpus, seg_index,
                                         scorer, shards):
        plain = CorpusSearcher(corpus, seg_index, scorer=scorer)
        sharded = ShardedCorpusSearcher(
            corpus, seg_index, shards=shards, scorer=scorer
        )
        for entry in corpus.entries():
            tree = corpus.load(entry.hash)
            assert self.ranking(sharded, tree) == self.ranking(plain, tree)

    @pytest.mark.parametrize("scorer", ["cosine", "bm25"])
    def test_matches_monolithic(self, corpus, seg_index, scorer,
                                tmp_path):
        # The reference is a fresh single-segment build, the layout the
        # monolithic-recorded corpus goldens pin.
        fresh = CorpusSearcher(
            corpus,
            SegmentedCorpusIndex.build(corpus, root=tmp_path / "fresh"),
            scorer=scorer,
        )
        sharded = ShardedCorpusSearcher(
            corpus, seg_index, shards=2, scorer=scorer
        )
        for entry in corpus.entries():
            tree = corpus.load(entry.hash)
            assert self.ranking(sharded, tree) == self.ranking(fresh, tree)

    def test_budget_mode_falls_back_to_combined_call(self, corpus):
        budgeted = SegmentedCorpusIndex.open(
            corpus.root / "segments", max_candidates=4
        )
        sharded = ShardedCorpusSearcher(corpus, budgeted, shards=2)
        tree = corpus.load("PO1")
        result = sharded.search(tree, k=3, rerank=False)
        assert result.hits
        assert budgeted.last_scan["budget"] == 4

    def test_rerank_composes_with_sharding(self, corpus, seg_index):
        sharded = ShardedCorpusSearcher(corpus, seg_index, shards=2)
        tree = corpus.load("PO1")
        result = sharded.search(tree, k=2, candidates=2)
        assert [hit.name for hit in result.hits][:1] == ["PO1"]
        assert all(hit.reranked for hit in result.hits)
        assert result.hits[0].qom is not None
