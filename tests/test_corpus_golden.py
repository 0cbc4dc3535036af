"""Corpus retrieval stays byte-identical to the frozen golden snapshots.

The fixtures under ``tests/fixtures/corpus_golden/`` were recorded from
the former in-memory monolithic index, and the segmented index matched
them at record time (see :mod:`tests.corpus_golden`).  A fresh
single-segment build must reproduce every lexical score map, LSH
candidate set, Jaccard estimate, index ranking and reranked result.
Other segment layouts (many segments, tombstones, compaction, reopen)
are compared against such a fresh build in ``test_corpus_segments``.
"""

import pytest

from tests.corpus_golden import load_fixture, snapshots


@pytest.fixture(scope="module")
def actual():
    return snapshots()


@pytest.mark.parametrize("name", ["builtins", "synthetic", "rerank"])
def test_matches_golden_snapshot(actual, name):
    expected = load_fixture(name)
    got = actual[name]
    assert got.keys() == expected.keys()
    if name == "builtins":
        for query, case in expected["queries"].items():
            for key in case:
                assert got["queries"][query][key] == case[key], \
                    f"{query}: {key} differs"
    assert got == expected


def test_golden_covers_every_builtin_and_scorer():
    builtins = load_fixture("builtins")
    assert builtins["corpus_size"] == 12
    assert len(builtins["queries"]) == 12
    for query, case in builtins["queries"].items():
        assert set(case) == {"candidates", "estimates", "cosine", "bm25"}
        # Every query finds itself: as an LSH candidate with a perfect
        # Jaccard estimate, and at the top of both rankings.
        assert case["estimates"][query] == "1.0"
        for scorer in ("cosine", "bm25"):
            assert case[scorer]["search"][0][1] == query
    synthetic = load_fixture("synthetic")
    assert synthetic["corpus_size"] == 100
    for scorer in ("cosine", "bm25"):
        assert len(synthetic["queries"][scorer]) == 20
        assert all(
            len(rows) == 10 for rows in synthetic["queries"][scorer].values()
        )
    assert sorted(load_fixture("rerank")) == ["Book", "PO1"]
