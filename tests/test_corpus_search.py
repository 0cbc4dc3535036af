"""Tests for two-stage corpus search (repro.corpus.search)."""

from __future__ import annotations

import pytest

from repro.corpus import (
    CorpusSearcher,
    SchemaCorpus,
    SegmentedCorpusIndex,
)
from repro.datasets import registry
from repro import make_matcher


@pytest.fixture(scope="module")
def builtin_corpus(tmp_path_factory):
    corpus = SchemaCorpus(tmp_path_factory.mktemp("corpus") / "builtin")
    for name in registry.schema_names():
        corpus.add(registry.load_schema(name))
    return corpus


@pytest.fixture(scope="module")
def builtin_index(builtin_corpus):
    return SegmentedCorpusIndex.build(builtin_corpus)


@pytest.fixture()
def searcher(builtin_corpus, builtin_index):
    return CorpusSearcher(builtin_corpus, builtin_index)


class TestRetrieve:
    def test_self_retrieval_is_top(self, searcher, po1_tree):
        hits = searcher.retrieve(po1_tree)
        assert hits
        assert hits[0].name == "PO1"
        assert hits[0].retrieval_score == pytest.approx(1.0)

    def test_related_schema_retrieved_unrelated_absent(self, searcher,
                                                       po1_tree):
        names = [hit.name for hit in searcher.retrieve(po1_tree)]
        # PO2 shares tokens (order, ship, city...) so it must surface;
        # Book shares no index evidence with PO1 and never becomes a
        # candidate at all -- that absence IS the blocking.
        assert "PO2" in names
        assert "Book" not in names

    def test_scores_sorted_descending(self, searcher, article_tree):
        hits = searcher.retrieve(article_tree)
        scores = [hit.retrieval_score for hit in hits]
        assert scores == sorted(scores, reverse=True)


class TestSearch:
    def test_reranked_ranking_leads_with_exact_match(self, searcher,
                                                     po1_tree):
        result = searcher.search(po1_tree, k=3)
        assert result.hits[0].name == "PO1"
        assert result.hits[0].qom == pytest.approx(1.0)
        assert all(hit.reranked for hit in result.hits)
        assert result.examined > 0

    def test_counters_are_consistent(self, searcher, po1_tree):
        result = searcher.search(po1_tree, k=3)
        assert result.corpus_size == 12
        # Budget (max(3k, 20) = 20) exceeds the 12-schema corpus, so the
        # rerank is exhaustive: evidence candidates plus backfill.
        assert result.examined == result.corpus_size
        assert result.pruned == 0
        assert result.stats.counters["search.reranked"] == result.examined

    def test_stage_timings_recorded(self, searcher, po1_tree):
        result = searcher.search(po1_tree, k=2)
        stages = result.stats.stages
        assert "search:retrieve" in stages
        assert "search:rerank" in stages

    def test_candidate_budget_prunes(self, searcher, po1_tree):
        result = searcher.search(po1_tree, k=1, candidates=2)
        assert result.examined == 2
        assert result.pruned == result.candidates - 2
        assert len(result.hits) == 1

    def test_no_rerank_returns_index_ranking(self, searcher, po1_tree):
        result = searcher.search(po1_tree, k=5, rerank=False)
        assert result.examined == 0
        assert all(hit.qom is None for hit in result.hits)
        assert all(not hit.reranked for hit in result.hits)

    def test_invalid_arguments(self, searcher, po1_tree):
        with pytest.raises(ValueError, match="k must be"):
            searcher.search(po1_tree, k=0)
        with pytest.raises(ValueError, match="candidates"):
            searcher.search(po1_tree, candidates=0)
        with pytest.raises(ValueError, match="lexical_weight"):
            CorpusSearcher(searcher.corpus, searcher.index,
                           lexical_weight=1.5)

    def test_pool_rerank_equals_inline_rerank(self, builtin_corpus,
                                              builtin_index, po1_tree):
        """``workers`` > 1 reranks on a worker pool opened for the
        search; the hits and counters are the in-process rerank's."""
        inline = CorpusSearcher(builtin_corpus, builtin_index)
        pooled = CorpusSearcher(builtin_corpus, builtin_index, workers=2)
        want = inline.search(po1_tree, k=3, candidates=6).as_dict()
        got = pooled.search(po1_tree, k=3, candidates=6).as_dict()
        for payload in (want, got):
            del payload["stats"]["stages"]  # wall-clock timings
        assert got == want

    def test_traced_stages_share_one_clock(self, searcher, po1_tree):
        """Each traced search stage emits its span from its own stage
        clock: the span lasts exactly the seconds the stage records."""
        from repro.constraints import parse_constraint
        from repro.obs.spans import SpanTracer, use_tracer

        tracer = SpanTracer("t")
        with use_tracer(tracer):
            result = searcher.search(
                po1_tree, k=3, candidates=4,
                constraint=parse_constraint(
                    {"tree-qom": {"op": ">=", "value": 0.0}}
                ),
            )
        spans = {span["name"]: span for span in tracer.export_spans()}
        for span_name, stage in (("corpus.retrieve", "search:retrieve"),
                                 ("corpus.rerank", "search:rerank"),
                                 ("constraints.filter", "search:constrain")):
            assert result.stats.stages[stage].calls == 1
            assert spans[span_name]["duration"] == \
                result.stats.stages[stage].seconds
        assert spans["corpus.retrieve"]["attributes"]["candidates"] == \
            result.candidates
        assert spans["corpus.rerank"]["attributes"] == {
            "examined": 4, "errors": 0,
        }
        filtered = spans["constraints.filter"]["attributes"]
        assert (filtered["evaluated"], filtered["admitted"],
                filtered["filtered"]) == (4, 4, 0)

    def test_result_serializes(self, searcher, po1_tree):
        import json

        result = searcher.search(po1_tree, k=2)
        payload = json.loads(result.to_json())
        assert payload["query"] == "PO1"
        assert len(payload["hits"]) == 2
        assert "stats" in payload
        rendered = result.render()
        assert "PO1" in rendered and "pruned" in rendered


class TestRecallAgainstBruteForce:
    @pytest.mark.parametrize("query_name", ["PO1", "Book", "DCMDOrd"])
    def test_recall_at_10_is_total(self, builtin_corpus, builtin_index,
                                   query_name):
        # Brute force: full QMatch against every corpus schema.
        matcher = make_matcher("qmatch")
        query = registry.load_schema(query_name)
        brute = []
        for entry in builtin_corpus.entries():
            result = matcher.match(query, builtin_corpus.load(entry.hash),
                                   threshold=0.5)
            brute.append((entry.name, result.tree_qom))
        brute.sort(key=lambda pair: (-pair[1], pair[0]))
        expected = {name for name, _ in brute[:10]}

        searcher = CorpusSearcher(builtin_corpus, builtin_index)
        got = {hit.name for hit in searcher.search(query, k=10).hits}
        recall = len(got & expected) / len(expected)
        assert recall == 1.0


class TestBM25Parity:
    """``--scorer bm25`` against the cosine default on the builtins."""

    @pytest.fixture()
    def bm25_searcher(self, builtin_corpus, builtin_index):
        return CorpusSearcher(builtin_corpus, builtin_index, scorer="bm25")

    def test_unknown_scorer_rejected(self, builtin_corpus, builtin_index):
        with pytest.raises(ValueError, match="unknown scorer"):
            CorpusSearcher(builtin_corpus, builtin_index, scorer="lexical")

    def test_self_retrieval_is_top(self, bm25_searcher, po1_tree):
        hits = bm25_searcher.retrieve(po1_tree)
        assert hits[0].name == "PO1"
        assert hits[0].retrieval_score == pytest.approx(1.0)

    def test_candidate_sets_agree_with_cosine(self, searcher, bm25_searcher,
                                              po1_tree):
        # Both scorers walk the same posting lists, so blocking --
        # which documents surface at all -- is scorer-independent.
        cosine = {hit.name for hit in searcher.retrieve(po1_tree)}
        bm25 = {hit.name for hit in bm25_searcher.retrieve(po1_tree)}
        assert bm25 == cosine

    @pytest.mark.parametrize("query_name", ["PO1", "Book", "DCMDOrd"])
    def test_reranked_top_k_matches_cosine(self, searcher, bm25_searcher,
                                           query_name):
        # After the QMatch rerank, the final ranking is driven by tree
        # QoM; the lexical scorer only shapes the shortlist.  On a
        # corpus smaller than the candidate budget the rerank is
        # exhaustive under both scorers, so the rankings must agree
        # exactly.
        query = registry.load_schema(query_name)
        cosine = [hit.name for hit in searcher.search(query, k=5).hits]
        bm25 = [hit.name for hit in bm25_searcher.search(query, k=5).hits]
        assert bm25 == cosine
