"""Tests for the blocking features (repro.corpus.indexes) and the
retrieval properties of the corpus index built from them.

The lexical and structural scoring properties are exercised on
:class:`~repro.corpus.segments.SegmentedCorpusIndex`, the one on-disk
index, over small schemas whose label tokens are exactly the multisets
under test.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.corpus import (
    CorpusError,
    SchemaCorpus,
    Segment,
    SegmentedCorpusIndex,
    SegmentError,
)
from repro.corpus.indexes import (
    IndexConfig,
    IndexError_,
    MinHashIndex,
    _shingle_hash,
    label_tokens,
    schema_shingles,
    schema_tokens,
)
from repro.corpus.segments import SEGMENT_MANIFEST_NAME, SEGMENTS_DIR
from repro.linguistic.thesaurus import Thesaurus
from repro.xsd.builder import element, tree

#: Surface tokens only, so a schema's labels are its token multiset.
PLAIN = IndexConfig(use_stemming=False, use_thesaurus=False)


def token_tree(counts):
    """A schema whose label tokens are exactly ``counts`` (one node per
    token occurrence, chained so no two siblings share a name)."""
    names = [token for token, tf in counts.items() for _ in range(tf)]
    node = element(names[-1], type_name="string")
    for name in reversed(names[:-1]):
        node = element(name, node)
    return tree(node)


def flat_tree(root, labels):
    """A root with one leaf child per label (shingle-set control)."""
    return tree(element(
        root, *(element(label, type_name="string") for label in labels)
    ))


def token_index(root, docs, config=PLAIN):
    """A single-segment index over ``{doc_id: token counts}``."""
    index = SegmentedCorpusIndex(root, config=config, auto_compact=False)
    index.add_batch(
        (doc_id, token_tree(counts)) for doc_id, counts in docs.items()
    )
    return index


@pytest.fixture()
def config():
    return IndexConfig()


@pytest.fixture()
def thesaurus():
    return Thesaurus.default()


class TestIndexConfig:
    def test_bands_must_divide_num_perm(self):
        with pytest.raises(IndexError_, match="divide"):
            IndexConfig(num_perm=64, bands=7)

    def test_rows(self):
        assert IndexConfig(num_perm=64, bands=16).rows == 4

    def test_fingerprint_tracks_options(self):
        assert (
            IndexConfig().fingerprint()
            != IndexConfig(use_thesaurus=False).fingerprint()
        )
        assert IndexConfig().fingerprint() == IndexConfig().fingerprint()

    def test_signature_round_trip(self):
        config = IndexConfig(num_perm=32, bands=8, use_stemming=False)
        assert IndexConfig.from_signature(config.signature()) == config


class TestFeatureExtraction:
    def test_thesaurus_expansion_indexed_alongside_surface(
            self, config, thesaurus):
        tokens = label_tokens("Qty", config, thesaurus)
        assert "qty" in tokens
        # The abbreviation expands to (stemmed) quantity.
        assert any(token.startswith("quantit") for token in tokens)

    def test_acronym_expansion(self, config, thesaurus):
        tokens = label_tokens("PO", config, thesaurus)
        assert "purchas" in tokens or "purchase" in tokens

    def test_schema_tokens_counts_all_nodes(self, config, po1_tree):
        tokens = schema_tokens(po1_tree, config)
        assert sum(tokens.values()) > 0
        assert "order" in tokens

    def test_shingles_include_parent_child_bigrams(self, config, po1_tree):
        shingles = schema_shingles(po1_tree, config)
        assert any(">" in shingle for shingle in shingles)

    def test_shingles_without_structure(self, po1_tree):
        config = IndexConfig(structural_shingles=False)
        shingles = schema_shingles(po1_tree, config)
        assert not any(">" in shingle for shingle in shingles)


class TestInvertedIndex:
    """Lexical retrieval properties of the index (cosine scorer)."""

    def test_scores_only_sharing_documents(self, tmp_path):
        index = token_index(tmp_path, {
            "a": {"order": 2, "item": 1}, "b": {"protein": 3},
        })
        scores = index._lexical_scores(Counter({"order": 1}))
        assert "a" in scores and "b" not in scores
        assert 0.0 < scores["a"] <= 1.0

    def test_identical_document_scores_highest(self, tmp_path):
        index = token_index(tmp_path, {
            "same": {"order": 2, "item": 1},
            "other": {"order": 1, "shipping": 4},
        })
        scores = index._lexical_scores(Counter({"order": 2, "item": 1}))
        assert scores["same"] > scores["other"]
        assert scores["same"] == pytest.approx(1.0)

    def test_readd_replaces(self, tmp_path):
        index = token_index(tmp_path, {"a": {"order": 1}})
        assert index.remove("a")
        assert index.add_batch([("a", token_tree({"item": 1}))]) == 1
        assert index.document_count == 1
        assert not index._lexical_scores(Counter({"order": 1}))
        assert index._lexical_scores(Counter({"item": 1}))

    def test_remove_cleans_postings(self, tmp_path):
        index = token_index(tmp_path, {"a": {"order": 1}})
        index.remove("a")
        assert index.document_count == 0
        # The fully tombstoned segment is dropped, postings and all.
        assert index.segment_count == 0
        assert index._lexical_scores(Counter({"order": 1})) == {}

    def test_idf_favours_rare_tokens(self, tmp_path):
        docs = {f"doc{i}": {"common": 1} for i in range(5)}
        docs["doc5"] = {"common": 1, "rare": 1}
        index = token_index(tmp_path, docs)
        stats = index._ensure_stats()
        assert index._idf("rare", stats) > index._idf("common", stats) > 0.0

    def test_empty_query(self, tmp_path):
        index = token_index(tmp_path, {"a": {"order": 1}})
        assert index._lexical_scores(Counter()) == {}


class TestMinHashIndex:
    """The MinHash hasher and the index's LSH blocking on top of it."""

    def test_signature_deterministic(self):
        a = MinHashIndex(seed=7)
        b = MinHashIndex(seed=7)
        shingles = frozenset({"order", "item", "order>item"})
        assert a.signature(shingles) == b.signature(shingles)
        assert a.signature(shingles) != MinHashIndex(seed=8).signature(shingles)

    def test_estimate_tracks_jaccard(self, tmp_path):
        config = IndexConfig(num_perm=128, bands=32)
        base = [f"token{i}" for i in range(40)]
        near = base[:36] + ["x1", "x2", "x3", "x4"]
        far = [f"other{i}" for i in range(40)]
        index = SegmentedCorpusIndex(tmp_path, config=config)
        index.add_batch([
            ("near", flat_tree("Root", near)),
            ("far", flat_tree("Root", far)),
        ])
        query = index.query_signature(flat_tree("Root", base))
        near, far, gone = index.estimates(query, ["near", "far", "gone"])
        assert near > 0.5
        assert far < 0.2
        assert gone == 0.0

    def test_candidates_via_banding(self, tmp_path):
        index = SegmentedCorpusIndex(tmp_path)
        base = flat_tree("Root", [f"token{i}" for i in range(30)])
        index.add_batch([
            ("identical", base),
            ("unrelated", flat_tree("Other", [f"x{i}" for i in range(30)])),
        ])
        _, candidates = index.retrieve_scores(
            index.query_tokens(base), index.query_signature(base)
        )
        assert "identical" in candidates
        assert "unrelated" not in candidates

    def test_remove(self, tmp_path):
        index = SegmentedCorpusIndex(tmp_path)
        doc = flat_tree("a", ["b"])
        index.add_batch([("doc", doc)])
        index.remove("doc")
        assert index.document_count == 0
        _, candidates = index.retrieve_scores(
            index.query_tokens(doc), index.query_signature(doc)
        )
        assert candidates == set()

    def test_signature_length_checked(self, tmp_path):
        hasher = MinHashIndex(num_perm=16, bands=4)
        assert len(hasher.signature(frozenset({"a", "b"}))) == 16
        assert hasher.band_hashes(hasher.signature(frozenset())).shape \
            == (1, 4)
        with pytest.raises(SegmentError, match="length"):
            Segment.write(tmp_path / "seg", "seg-000001",
                          [("doc", [], (1, 2, 3))], num_perm=16)

    @pytest.mark.parametrize("num_perm,seed", [(64, 2005), (16, 7)])
    def test_signature_equals_the_python_formula(self, num_perm, seed):
        # The oracle: the seeded permutations and the plain-integer
        # min((a*x + b) mod p) the numpy signature replaced.
        mersenne = (1 << 61) - 1
        rng = random.Random(seed)
        params = [(rng.randrange(1, mersenne), rng.randrange(0, mersenne))
                  for _ in range(num_perm)]

        def oracle(hashes):
            if not hashes:
                return tuple([mersenne] * num_perm)
            return tuple(min((a * x + b) % mersenne for x in hashes)
                         for a, b in params)

        hasher = MinHashIndex(num_perm=num_perm, bands=num_perm // 4,
                              seed=seed)
        edges = [0, mersenne - 1, mersenne, mersenne + 1, (1 << 64) - 1]
        cases = [[], *([edge] for edge in edges), edges]
        sampler = random.Random(61)
        for _ in range(300):
            hashes = [sampler.getrandbits(64)
                      for _ in range(sampler.randint(1, 40))]
            hashes += sampler.sample(edges, sampler.randint(0, 2))
            cases.append(hashes)
        for hashes in cases:
            assert hasher.hashed_signature(hashes) == oracle(hashes), hashes
        shingles = frozenset({"order", "item", "order>item"})
        assert hasher.signature(shingles) == oracle(
            [_shingle_hash(shingle) for shingle in shingles]
        )

    def test_empty_shingles_collide_only_with_empty(self):
        hasher = MinHashIndex()
        empty = hasher.signature(frozenset())
        assert hasher.signature(frozenset()) == empty
        other = hasher.signature(frozenset({"order", "order>item"}))
        # No position agrees, so the two share no LSH band either.
        assert not any(a == b for a, b in zip(empty, other))
        assert not set(hasher.band_hashes(empty)[0].tolist()) \
            & set(hasher.band_hashes(other)[0].tolist())


@pytest.fixture()
def builtin_corpus(tmp_path, po1_tree, po2_tree, book_tree, article_tree):
    corpus = SchemaCorpus(tmp_path / "corpus")
    for tree_ in (po1_tree, po2_tree, book_tree, article_tree):
        corpus.add(tree_)
    return corpus


def fresh_scores(corpus, tmp_path, query_tree, scorer="cosine"):
    """Lexical scores of a fresh single-segment build (the reference)."""
    fresh = SegmentedCorpusIndex.build(corpus, root=tmp_path / "fresh")
    return fresh._lexical_scores(fresh.query_tokens(query_tree),
                                 scorer=scorer)


class TestCorpusIndex:
    """Build, persistence and refresh of the corpus index."""

    def test_build_covers_corpus(self, builtin_corpus):
        index = SegmentedCorpusIndex.build(builtin_corpus)
        assert index.document_count == len(builtin_corpus)
        assert index.segment_count == 1
        assert not index.stale_for(builtin_corpus)

    def test_save_load_round_trip(self, builtin_corpus):
        index = SegmentedCorpusIndex.build(builtin_corpus)
        opened = SegmentedCorpusIndex.open(index.root)
        assert opened.manifest_payload() == index.manifest_payload()
        assert opened.live_doc_ids() == index.live_doc_ids()
        tokens = index.query_tokens(builtin_corpus.load("Book"))
        assert opened._lexical_scores(tokens) == index._lexical_scores(tokens)

    def test_rebuild_is_byte_identical(self, builtin_corpus, tmp_path):
        first = SegmentedCorpusIndex.build(builtin_corpus, root=tmp_path / "a")
        second = SegmentedCorpusIndex.build(builtin_corpus,
                                            root=tmp_path / "b")
        for path in first.root.rglob("*"):
            if path.is_file():
                relative = path.relative_to(first.root)
                assert path.read_bytes() \
                    == (second.root / relative).read_bytes()

    def test_refresh_equals_rebuild(self, builtin_corpus, tmp_path,
                                    human_tree, library_tree):
        index = SegmentedCorpusIndex.build(builtin_corpus)
        builtin_corpus.add(human_tree)
        builtin_corpus.add(library_tree)
        builtin_corpus.remove("PO2")
        assert index.stale_for(builtin_corpus)
        added, removed = index.refresh(builtin_corpus)
        assert (added, removed) == (2, 1)
        assert not index.stale_for(builtin_corpus)
        assert index.live_doc_ids() \
            == {entry.hash for entry in builtin_corpus.entries()}
        for scorer in ("cosine", "bm25"):
            for entry in builtin_corpus.entries():
                tree_ = builtin_corpus.load(entry.hash)
                assert index._lexical_scores(
                    index.query_tokens(tree_), scorer=scorer
                ) == fresh_scores(builtin_corpus, tmp_path, tree_, scorer)

    def test_refresh_after_removal_only(self, builtin_corpus, tmp_path):
        index = SegmentedCorpusIndex.build(builtin_corpus)
        removed = builtin_corpus.entry("PO2").hash
        builtin_corpus.remove("PO2")
        assert index.stale_for(builtin_corpus)
        assert index.refresh(builtin_corpus) == (0, 1)
        assert not index.stale_for(builtin_corpus)
        assert removed not in index.live_doc_ids()
        # Removal shifts N and every df: post-refresh scores must match
        # a from-scratch build over the remaining documents.
        tree_ = builtin_corpus.load("PO1")
        assert index._lexical_scores(index.query_tokens(tree_)) \
            == fresh_scores(builtin_corpus, tmp_path, tree_)

    def test_refresh_after_remove_and_readd_same_name(self, builtin_corpus,
                                                      po2_tree):
        index = SegmentedCorpusIndex.build(builtin_corpus)
        old_hash = builtin_corpus.entry("PO2").hash
        builtin_corpus.remove("PO2")
        index.refresh(builtin_corpus)
        builtin_corpus.add(po2_tree)
        assert index.stale_for(builtin_corpus)
        assert index.refresh(builtin_corpus) == (1, 0)
        assert not index.stale_for(builtin_corpus)
        assert old_hash in index.live_doc_ids()
        assert index.document_count == len(builtin_corpus)

    def test_version_mismatch_rejected(self, builtin_corpus):
        index = SegmentedCorpusIndex.build(builtin_corpus)
        manifest = index.root / SEGMENT_MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(
                '"version": 1', '"version": 99'
            ),
            encoding="utf-8",
        )
        with pytest.raises(SegmentError, match="version"):
            SegmentedCorpusIndex.open(index.root)

    def test_load_missing_path(self, builtin_corpus):
        # A corpus without a segment manifest (never indexed, or indexed
        # in an older format) must be rebuilt, and the error says how.
        from repro.service.server import build_searcher

        assert not (builtin_corpus.root / SEGMENTS_DIR).exists()
        with pytest.raises(CorpusError, match="qmatch index build$"):
            build_searcher(builtin_corpus.root)
        with pytest.raises(SegmentError, match="qmatch index build$"):
            SegmentedCorpusIndex.open(builtin_corpus.root / SEGMENTS_DIR)

    def test_no_thesaurus_config_uses_empty_thesaurus(self, tmp_path):
        index = SegmentedCorpusIndex(
            tmp_path, config=IndexConfig(use_thesaurus=False)
        )
        assert index.thesaurus.expand_abbreviation("qty") is None
        # Nor do the index's query tokens expand abbreviations.
        assert index.query_tokens(token_tree({"qty": 1})) \
            == Counter({"qty": 1})


class TestIndexingEdgeCaseLabels:
    """Schemas with awkward labels must index and retrieve cleanly."""

    @pytest.fixture()
    def odd_tree(self):
        return tree(element(
            "Straße",
            element("addr2", type_name="string"),
            element("x", type_name="string"),
            element("café", type_name="string"),
        ))

    def test_tokens_and_shingles_total(self, config, odd_tree):
        tokens = schema_tokens(odd_tree, config)
        assert tokens["straße"] == 1
        assert tokens["addr"] == 1 and tokens["2"] == 1
        assert tokens["x"] == 1
        shingles = schema_shingles(odd_tree, config)
        assert "straße>addr2" in shingles

    def test_self_retrieval(self, tmp_path, odd_tree):
        corpus = SchemaCorpus(tmp_path / "odd")
        entry = corpus.add(odd_tree, name="Odd")
        index = SegmentedCorpusIndex.build(corpus)
        scores, candidates = index.retrieve_scores(
            index.query_tokens(odd_tree), index.query_signature(odd_tree)
        )
        assert scores[entry.hash] == pytest.approx(1.0)
        assert entry.hash in candidates


class TestBM25Scoring:
    """The second lexical scorer over the same postings."""

    @pytest.fixture()
    def index(self, tmp_path):
        return token_index(tmp_path / "index", {
            "short": {"order": 2, "ship": 1},
            "long": {"order": 2, "book": 5, "author": 4, "title": 4},
            "books": {"book": 3, "title": 1},
        })

    def test_scores_dispatch(self, index):
        query = Counter({"order": 1})
        signature = index.query_signature(token_tree(query))
        bm25 = index._lexical_scores(query, scorer="bm25")
        cosine = index._lexical_scores(query)
        assert bm25 != cosine
        assert index.retrieve_scores(query, signature, scorer="bm25")[0] \
            == bm25
        assert index.retrieve_scores(query, signature)[0] == cosine
        with pytest.raises(SegmentError, match="unknown scorer"):
            index._lexical_scores(query, scorer="tfidf")

    def test_normalized_to_unit_interval(self, index):
        scores = index._lexical_scores(Counter({"order": 1, "book": 1}),
                                       scorer="bm25")
        assert scores
        assert all(0.0 < score <= 1.0 for score in scores.values())
        assert max(scores.values()) == pytest.approx(1.0)

    def test_only_documents_with_evidence_score(self, index):
        scores = index._lexical_scores(Counter({"order": 1}), scorer="bm25")
        assert set(scores) == {"short", "long"}
        assert index._lexical_scores(Counter({"nothing": 3}),
                                     scorer="bm25") == {}
        assert index._lexical_scores(Counter(), scorer="bm25") == {}

    def test_length_normalization_prefers_shorter_document(self, index):
        # Both carry tf("order") == 2; BM25's b-term penalizes the
        # longer document, where cosine-style tf alone would tie them.
        scores = index._lexical_scores(Counter({"order": 1}), scorer="bm25")
        assert scores["short"] > scores["long"]

    def test_lengths_survive_add_and_remove(self, index, tmp_path):
        def average_length():
            stats = index._ensure_stats()
            return stats["total_length"] / stats["n"]

        assert average_length() == pytest.approx((3 + 15 + 4) / 3)
        index.remove("long")
        assert average_length() == pytest.approx((3 + 4) / 2)
        index.add_batch([("long", token_tree({"order": 1}))])
        assert average_length() == pytest.approx((3 + 4 + 1) / 3)
        # Tombstone plus a second segment scores exactly like one
        # fresh segment over the same three documents.
        fresh = token_index(tmp_path / "fresh", {
            "short": {"order": 2, "ship": 1},
            "books": {"book": 3, "title": 1},
            "long": {"order": 1},
        })
        query = Counter({"order": 1, "title": 1})
        assert index._lexical_scores(query, scorer="bm25") \
            == fresh._lexical_scores(query, scorer="bm25")

    def test_common_token_still_contributes(self, tmp_path):
        # df == N floors the Robertson idf at epsilon instead of zero,
        # so tiny corpora where every schema shares a token still rank.
        index = token_index(tmp_path, {
            "a": {"order": 4}, "b": {"order": 1},
        })
        scores = index._lexical_scores(Counter({"order": 1}), scorer="bm25")
        assert scores["a"] > scores["b"] > 0.0
