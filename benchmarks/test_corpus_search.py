"""Corpus search: two-stage retrieve+rerank vs brute-force all-pairs.

Not a paper experiment -- this measures the PR-4 corpus layer.  A
synthetic corpus of 100 schemas (20 generated base schemas, each with 4
mutated variants) is searched with a held-out mutated query two ways:

- **brute force**: full QMatch against every corpus schema, rank by
  tree QoM -- the exact but O(N) baseline;
- **two-stage**: segmented-index token + MinHash retrieval shortlists a
  candidate budget, QMatch reranks only those.

The report records wall-clock for both, the fraction of pairs the
two-stage search examined (< 30% asserted), and that the top hit is the
query's own family.  A second section checks the small-corpus recall
contract on the 12 builtin paper schemas: with the default budget the
rerank is exhaustive there, so the top-10 must equal brute force's
top-10 exactly (recall@10 = 1.0).
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.corpus import CorpusSearcher, SchemaCorpus, SegmentedCorpusIndex
from repro.datasets import registry
from repro.xsd.generator import GeneratorConfig, SchemaGenerator
from repro.xsd.mutations import MutationConfig, SchemaMutator

from conftest import write_result

N_FAMILIES = 20
VARIANTS_PER_FAMILY = 4   # corpus = families * (1 base + variants) = 100
CANDIDATE_BUDGET = 20     # 20% of the corpus
QUERY_FAMILY = 7


def synthetic_corpus(root):
    """100 schemas in 20 families plus one held-out query per family."""
    corpus = SchemaCorpus(root)
    queries = {}
    for family in range(N_FAMILIES):
        base = SchemaGenerator(GeneratorConfig(
            n_nodes=14 + (family % 5) * 2,
            max_depth=3,
            seed=1000 + family,
            root_name=f"Family{family:02d}",
        )).generate()
        corpus.add(base, name=f"F{family:02d}-base")
        for variant in range(VARIANTS_PER_FAMILY):
            mutated, _ = SchemaMutator(MutationConfig(
                seed=family * 100 + variant,
                rename_probability=0.3,
                drop_probability=0.1,
                add_probability=0.1,
            )).mutate(base, name=f"F{family:02d}-v{variant}")
            corpus.add(mutated, name=f"F{family:02d}-v{variant}")
        held_out, _ = SchemaMutator(MutationConfig(
            seed=family * 100 + 99,
            rename_probability=0.25,
            drop_probability=0.1,
        )).mutate(base, name=f"F{family:02d}-query")
        queries[family] = held_out
    return corpus, queries


def brute_force_ranking(query, corpus):
    """(name, qom) for every corpus schema, best first -- the baseline."""
    ranking = []
    for entry in corpus.entries():
        result = repro.match(query, corpus.load(entry.hash),
                             algorithm="qmatch")
        ranking.append((entry.name, result.tree_qom))
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranking


def test_synthetic_corpus_search_prunes_and_wins(tmp_path):
    corpus, queries = synthetic_corpus(tmp_path / "synthetic")
    assert len(corpus) >= 50
    index = SegmentedCorpusIndex.build(corpus)
    searcher = CorpusSearcher(corpus, index)
    query = queries[QUERY_FAMILY]

    start = time.perf_counter()
    brute = brute_force_ranking(query, corpus)
    brute_seconds = time.perf_counter() - start

    start = time.perf_counter()
    result = searcher.search(query, k=10, candidates=CANDIDATE_BUDGET)
    search_seconds = time.perf_counter() - start

    examined_fraction = result.examined / len(corpus)
    top_hit = result.hits[0]
    speedup = brute_seconds / search_seconds

    retrieve_ms = result.stats.stages["search:retrieve"].seconds * 1e3
    rerank_ms = result.stats.stages["search:rerank"].seconds * 1e3
    write_result(
        "corpus_search",
        "Corpus search: two-stage retrieve+rerank vs brute force",
        "\n".join([
            f"corpus               : {len(corpus)} synthetic schemas "
            f"({N_FAMILIES} families)",
            f"query                : held-out mutation of family "
            f"{QUERY_FAMILY:02d}",
            f"brute force          : {len(corpus)} QMatch runs, "
            f"{brute_seconds:.2f}s",
            f"two-stage search     : {result.examined} QMatch runs "
            f"({examined_fraction:.0%} of pairs), {search_seconds:.2f}s "
            f"({speedup:.1f}x)",
            f"  retrieve stage     : {retrieve_ms:.1f} ms "
            f"({result.candidates} candidates, {result.pruned} pruned)",
            f"  rerank stage       : {rerank_ms:.1f} ms",
            f"top hit              : {top_hit.name} "
            f"(QoM {top_hit.qom:.4f}; brute-force top: {brute[0][0]})",
            f"family hits in top-10: "
            f"{sum(1 for hit in result.hits if f'F{QUERY_FAMILY:02d}-' in hit.name)}",
        ]),
    )

    # The acceptance criteria: examine < 30% of the pairs brute force
    # pays for, and still find the right family first.
    assert examined_fraction < 0.30
    assert f"F{QUERY_FAMILY:02d}-" in top_hit.name
    assert top_hit.name == brute[0][0]
    assert search_seconds < brute_seconds


@pytest.mark.parametrize("query_name", ["PO1", "Book"])
def test_builtin_recall_at_10_is_total(tmp_path, query_name):
    corpus = SchemaCorpus(tmp_path / "builtin")
    for name in registry.schema_names():
        corpus.add(registry.load_schema(name))
    searcher = CorpusSearcher(corpus, SegmentedCorpusIndex.build(corpus))
    query = registry.load_schema(query_name)

    brute = brute_force_ranking(query, corpus)
    expected = {name for name, _ in brute[:10]}
    hits = searcher.search(query, k=10).hits
    got = {hit.name for hit in hits}

    recall = len(got & expected) / len(expected)
    write_result(
        f"corpus_search_recall_{query_name}",
        f"Corpus search recall@10 on builtins (query {query_name})",
        "\n".join([
            f"brute-force top-10 : {sorted(expected)}",
            f"search top-10      : {sorted(got)}",
            f"recall@10          : {recall:.2f}",
        ]),
    )
    assert recall == 1.0


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
