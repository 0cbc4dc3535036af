"""Column retrieval equals the frozen per-document reference.

The segment readers in :mod:`repro.corpus.segments` score stage 1 as
numpy operations over per-segment columns; ``tests/retrieval_reference.
py`` keeps the per-document dict scorers they replaced.  On generated
multi-segment corpora -- tombstones, re-added ids, partial and full
compaction, documents long enough for summation order to matter -- both
scorers, in full-scan and budget mode (budgets below the LSH candidate
count included), must return ``repr``-equal lexical scores, the same
``last_scan`` counts, the same LSH candidate sets and the same Jaccard
estimates, for queries with shared, unseen and all-numeric tokens.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import IndexConfig, SegmentedCorpusIndex
from repro.xsd.builder import element, tree
from tests.retrieval_reference import ReferenceRetrieval

#: Surface tokens only (no stemming, no thesaurus): a schema's tokens
#: are exactly its labels.  Few permutations per band, so LSH buckets
#: collide often and budgets fall below the candidate count.
CONFIG = IndexConfig(num_perm=16, bands=8, use_stemming=False,
                     use_thesaurus=False)

WORDS = ("order", "item", "ship", "book", "title", "price", "note", "city",
         "line", "unit", "code", "date", "name", "part", "qty", "zone",
         "42", "7", "2005")
NUMBERS = ("42", "7", "2005", "99")
UNSEEN = ("absent", "nowhere")


def token_tree(counts: dict):
    """A schema whose label tokens are exactly ``counts``: one node per
    occurrence, chained so no two siblings share a name."""
    names = [token for token, tf in counts.items() for _ in range(tf)]
    node = element(names[-1], type_name="string")
    for name in reversed(names[:-1]):
        node = element(name, node)
    return tree(node)


token_counts = st.dictionaries(
    st.sampled_from(WORDS), st.integers(min_value=1, max_value=4),
    min_size=1, max_size=14,
)


@st.composite
def corpora(draw):
    """Batches of documents plus a list of index operations on them."""
    n_batches = draw(st.integers(min_value=1, max_value=4))
    batches = [
        draw(st.lists(token_counts, min_size=1, max_size=5))
        for _ in range(n_batches)
    ]
    n_docs = sum(len(batch) for batch in batches)
    removals = draw(st.lists(
        st.integers(min_value=0, max_value=n_docs - 1), max_size=3,
        unique=True,
    ))
    readd = draw(st.booleans())
    compaction = draw(st.sampled_from((None, "partial", "full")))
    return batches, removals, readd, compaction


queries = st.one_of(
    st.dictionaries(
        st.sampled_from(WORDS + UNSEEN), st.integers(min_value=1,
                                                     max_value=3),
        min_size=1, max_size=8,
    ),
    st.dictionaries(st.sampled_from(NUMBERS),
                    st.integers(min_value=1, max_value=3),
                    min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(UNSEEN),
                    st.integers(min_value=1, max_value=2),
                    min_size=1, max_size=2),
)


def build(root: Path, batches, removals, readd, compaction):
    """An index over ``batches`` (one segment each), then tombstones, a
    re-added id and compaction as drawn."""
    index = SegmentedCorpusIndex(root, config=CONFIG, auto_compact=False,
                                 compact_trigger=2)
    docs = {}
    for batch in batches:
        rows = []
        for counts in batch:
            doc_id = f"doc{len(docs)}"
            docs[doc_id] = counts
            rows.append((doc_id, token_tree(counts)))
        index.add_batch(rows)
    removed = [f"doc{position}" for position in removals]
    for doc_id in removed:
        index.remove(doc_id)
    if readd and removed:
        # The id now sits tombstoned in one segment, live in another.
        index.add_batch([(removed[0], token_tree(docs[removed[0]]))])
    if compaction == "partial":
        index.compact(full=False)
    elif compaction == "full":
        index.compact(full=True)
    return index, sorted(docs)


def reprs(scores: dict) -> dict:
    return {doc_id: repr(score) for doc_id, score in scores.items()}


def assert_same_retrieval(index, doc_ids, query_counts, query_signature):
    reference = ReferenceRetrieval(index)
    query = Counter(query_counts)
    for scorer in ("cosine", "bm25"):
        lexical, candidates = index.retrieve_scores(
            query, query_signature, scorer=scorer
        )
        expected, expected_candidates = reference.retrieve_scores(
            query, query_signature, scorer=scorer
        )
        assert reprs(lexical) == reprs(expected), scorer
        assert index.last_scan == reference.last_scan, scorer
        assert candidates == expected_candidates
    probe = doc_ids + ["missing"]
    assert index.estimates(query_signature, probe) == [
        reference.estimate(query_signature, doc_id) for doc_id in probe
    ]


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(corpus=corpora(), query_counts=queries,
       budget=st.sampled_from((None, 1, 2, 3, 6, 50)),
       own_signature=st.booleans())
def test_columns_equal_reference(corpus, query_counts, budget,
                                 own_signature):
    with tempfile.TemporaryDirectory() as scratch:
        index, doc_ids = build(Path(scratch) / "segments", *corpus)
        index.max_candidates = budget
        tree_ = token_tree(query_counts)
        if own_signature:
            # A stored document's own shingles: shares every LSH band.
            first = corpus[0][0][0]
            tree_ = token_tree(first)
        assert_same_retrieval(index, doc_ids, query_counts,
                              index.query_signature(tree_))


def test_budget_below_candidate_count(tmp_path):
    # Eight near-identical documents all land in the query's LSH
    # buckets; a budget of 2 admits every one of them anyway (the
    # candidates are admitted before the budget is checked).
    index = SegmentedCorpusIndex(tmp_path, config=CONFIG,
                                 auto_compact=False, max_candidates=2)
    base = {"order": 2, "item": 1, "ship": 1, "price": 3, "42": 1}
    for start in (0, 4):
        index.add_batch(
            (f"doc{i}", token_tree({**base, WORDS[i]: 1}))
            for i in range(start, start + 4)
        )
    signature = index.query_signature(token_tree(base))
    _, candidates = index.retrieve_scores(Counter(base), signature)
    assert len(candidates) > 2
    assert index.last_scan["docs_scored"] == len(candidates)
    assert_same_retrieval(index, [f"doc{i}" for i in range(8)], base,
                          signature)


def test_long_documents_sum_norms_in_stored_order(tmp_path):
    # Documents of many distinct tokens: a pairwise (np.sum) norm would
    # move the last bit of some scores.
    index = SegmentedCorpusIndex(tmp_path, config=CONFIG,
                                 auto_compact=False)
    docs = []
    for shift in range(12):
        words = WORDS[shift:] + WORDS[:shift]
        docs.append({word: 1 + (shift + i) % 4
                     for i, word in enumerate(words)})
    index.add_batch((f"doc{i}", token_tree(counts))
                    for i, counts in enumerate(docs))
    for counts in docs[:4]:
        assert_same_retrieval(index, [f"doc{i}" for i in range(12)],
                              counts, index.query_signature(
                                  token_tree(counts)))
