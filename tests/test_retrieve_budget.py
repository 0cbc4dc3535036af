"""A budgeted retrieve keeps exactly the head of the full ranking.

``CorpusSearcher.search`` asks ``retrieve`` for its candidate budget
only: the best ``budget`` candidates, plus every candidate tying the
last of them, become hits and are sorted; the rest are only counted.
On a multi-segment index with tombstones, whose corpus holds schemas
with identical features under different names (exact score ties), the
index-only search must equal a full sort of ``retrieve()`` -- hits,
``candidates``, ``pruned`` and the ``corpus.retrieve`` span's
``candidates`` annotation -- for budgets of 1, inside tie groups,
exactly the candidate count and above it, under both scorers, in
full-scan and budget mode.
"""

from __future__ import annotations

import random

import pytest

from repro.corpus import CorpusSearcher, SchemaCorpus, SegmentedCorpusIndex
from repro.corpus.search import SearchHit
from repro.obs.spans import SpanTracer, use_tracer
from repro.xsd.builder import element, tree

WORDS = ("Order", "Line", "Item", "Ship", "Bill", "Price", "Qty", "City",
         "Street", "Book", "Title", "Author", "Note", "Date", "Code", "Zone")
TYPES = ("string", "integer", "decimal")


def schema(name, words, type_name):
    """A two-level schema over ``words``; ``type_name`` changes its
    content (and hash) but none of its index features."""
    children = [element(word, type_name=type_name) for word in words[1:]]
    return tree(element(words[0], *children), name=name)


@pytest.fixture(scope="module")
def searchable(tmp_path_factory):
    root = tmp_path_factory.mktemp("budget")
    corpus = SchemaCorpus(root / "corpus")
    index = SegmentedCorpusIndex(root / "segments", auto_compact=False)
    rng = random.Random(31)
    batches = []
    for batch in range(3):
        rows = []
        for family in range(8):
            words = rng.sample(WORDS, rng.randint(2, 6))
            # Same features under two or three names: exact ties.
            for variant in TYPES[:rng.randint(2, 3)]:
                tree_ = schema(f"B{batch}F{family}{variant[0]}", words,
                               variant)
                rows.append((corpus.add(tree_).hash, tree_))
        batches.append(rows)
    for rows in batches:
        index.add_batch(rows)
    for doc_id, _ in batches[0][:3] + batches[2][-2:]:
        corpus.remove(doc_id)
        index.remove(doc_id)
    assert index.segment_count == 3 and index.tombstone_count == 5
    queries = [tree_ for rows in batches for _, tree_ in rows[::7]]
    queries.append(schema("Fresh", ("Order", "Ship", "Zone", "Qty"),
                          "string"))
    return corpus, index, queries


def budgets(full):
    """1, every cut inside a tie group, the candidate count and past it."""
    count = len(full)
    cuts = {1, count, count + 3}
    for position in range(1, count):
        if full[position - 1].retrieval_score \
                == full[position].retrieval_score:
            cuts.add(position)
    return sorted(cut for cut in cuts if cut >= 1)


def padded(corpus, full, budget):
    """What ``search`` keeps: the head of the full ranking, topped up
    with zero-evidence entries in corpus order."""
    shortlist = full[:budget]
    seen = {hit.hash for hit in full}
    for entry in corpus.entries():
        if len(shortlist) >= budget:
            break
        if entry.hash not in seen:
            shortlist.append(SearchHit(
                hash=entry.hash, name=entry.name, retrieval_score=0.0,
                lexical_score=0.0, structural_score=0.0,
            ))
    return shortlist


@pytest.mark.parametrize("max_candidates", [None, 3])
@pytest.mark.parametrize("scorer", ["cosine", "bm25"])
def test_budgeted_search_equals_a_full_sort(searchable, scorer,
                                            max_candidates):
    corpus, index, queries = searchable
    index.max_candidates = max_candidates
    searcher = CorpusSearcher(corpus, index, scorer=scorer)
    tie_cuts = 0
    for query in queries:
        full = searcher.retrieve(query)
        assert full.candidates == len(full)
        for budget in budgets(full):
            if budget < len(full):
                cut = full[budget - 1].retrieval_score
                tie_cuts += full[budget].retrieval_score == cut
                kept = [hit for hit in full if hit.retrieval_score >= cut]
            else:
                kept = full
            ranked = searcher.retrieve(query, budget=budget)
            assert [hit.as_dict() for hit in ranked] \
                == [hit.as_dict() for hit in kept]
            assert ranked.candidates == len(full)
            tracer = SpanTracer("t")
            with use_tracer(tracer):
                result = searcher.search(query, k=budget, candidates=budget,
                                         rerank=False)
            assert [hit.as_dict() for hit in result.hits] == [
                hit.as_dict() for hit in padded(corpus, full, budget)
            ]
            assert result.candidates == len(full)
            assert result.pruned == max(len(full) - budget, 0)
            assert result.stats.counters["search.candidates"] == len(full)
            spans = {span["name"]: span for span in tracer.export_spans()}
            assert spans["corpus.retrieve"]["attributes"]["candidates"] \
                == len(full)
    assert tie_cuts, "no budget cut inside a group of equal scores"
