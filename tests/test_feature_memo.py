"""The corpus index's cross-schema feature memo stays bounded.

The memo (:class:`repro.corpus.indexes.FeatureMemo`) keeps each label's
index tokens and normalized form and each shingle's hash across
schemas.  It is owned by the thesaurus, replaced (never cleared) once
it holds more than :data:`~repro.corpus.indexes.MAX_FEATURE_ENTRIES`
entries, keeps no key longer than
:data:`~repro.corpus.indexes.MAX_MEMO_KEY` characters, and is dropped
when the thesaurus changes; none of that may change a feature.
"""

from __future__ import annotations

import pytest

import repro.corpus.indexes as indexes
from repro.corpus import IndexConfig, SegmentedCorpusIndex
from repro.corpus.indexes import (
    MAX_FEATURE_ENTRIES,
    MAX_MEMO_KEY,
    feature_memo,
    schema_features,
)
from repro.linguistic.thesaurus import Thesaurus
from repro.xsd.builder import element, tree
from tests import retrieval_reference as reference

CONFIG = IndexConfig()


def query(labels):
    """A root with ``labels`` as a chain of children."""
    node = element(labels[-1], type_name="string")
    for label in reversed(labels[:-1]):
        node = element(label, node)
    return tree(element("Query", node))


@pytest.fixture()
def thesaurus():
    return Thesaurus.bundled()


def test_a_stream_of_unique_labels_turns_the_memo_over(tmp_path,
                                                       thesaurus):
    index = SegmentedCorpusIndex(tmp_path, config=CONFIG,
                                 thesaurus=thesaurus, max_candidates=4)
    index.add_batch(
        (f"doc{start}", query([f"Field{number}Code"
                               for number in range(start, start + 30)]))
        for start in range(0, 10_000, 400)
    )
    per_query = 20
    memos = set()
    for start in range(0, 10_000, per_query):
        tree_ = query([f"Field{number}Code"
                       for number in range(start, start + per_query)])
        tokens, signature = index.query_features(tree_)
        # Equal to a cold, per-node extraction.
        assert list(tokens.items()) == list(
            reference.schema_tokens(tree_, CONFIG, thesaurus).items()
        )
        assert signature == index._hasher.signature(
            reference.schema_shingles(tree_, CONFIG)
        )
        memo = feature_memo(CONFIG, thesaurus)
        memos.add(id(memo))
        # The cap is checked once per schema: one schema's labels,
        # tokens and shingles may pass it, nothing more.
        assert len(memo) <= MAX_FEATURE_ENTRIES + 6 * (per_query + 1)
        if start % 1000 == 0:
            # And so is retrieval, against an index with a cold memo.
            cold = SegmentedCorpusIndex.open(
                tmp_path, thesaurus=Thesaurus.bundled(), max_candidates=4
            )
            assert index.retrieve_scores(tokens, signature) \
                == cold.retrieve_scores(*cold.query_features(tree_))
    assert len(memos) > 1


def test_a_full_memo_is_replaced_not_cleared(thesaurus):
    memo = feature_memo(CONFIG, thesaurus)
    schema_features(query(["Order", "Line"]), CONFIG, thesaurus)
    held = dict(memo.labels)
    memo.hashes.update(
        (str(number), number) for number in range(MAX_FEATURE_ENTRIES)
    )
    fresh = feature_memo(CONFIG, thesaurus)
    assert fresh is not memo and len(fresh) == 0
    assert memo.labels == held


def test_large_labels_cost_one_pass_and_stay_out_of_the_memo(
        monkeypatch, thesaurus):
    read = []
    tokenize = indexes.tokenize
    monkeypatch.setattr(indexes, "tokenize", lambda label, **kw: (
        read.append(len(label)) or tokenize(label, **kw)
    ))
    monkeypatch.setattr(indexes, "normalize", None)  # never needed here
    big = "Purchase" * 50_000
    other = "OrderLine" * 40_000
    tree_ = query([big, other, "Qty"])
    tokens, shingles = schema_features(tree_, CONFIG, thesaurus)
    # Every node's label is read once: the text of the schema.
    assert sorted(read) == sorted(
        len(node.name) for node in tree_.root.iter_preorder()
    )
    assert tokens["purchase"] == 50_000
    memo = feature_memo(CONFIG, thesaurus)
    assert all(len(key) <= MAX_MEMO_KEY for key in memo.labels)
    assert all(len(key) <= MAX_MEMO_KEY for key in memo.hashes)
    assert set(memo.labels) == {"Query", "Qty"}
    # Once more: small labels from the memo, large ones read again.
    read.clear()
    assert schema_features(tree_, CONFIG, thesaurus) == (tokens, shingles)
    assert sorted(read) == sorted([len(big), len(other)])


@pytest.mark.parametrize("mutate", [
    lambda thesaurus: thesaurus.add_abbreviation("fld", "field"),
    lambda thesaurus: thesaurus.add_acronym("fc", ["field", "code"]),
    lambda thesaurus: thesaurus.add_synonyms(["field", "column"]),
    lambda thesaurus: thesaurus.add_hypernym("field", "item"),
])
def test_a_thesaurus_mutation_gives_a_fresh_memo(thesaurus, mutate):
    tree_ = query(["FldNo", "FC"])
    schema_features(tree_, CONFIG, thesaurus)
    memo = feature_memo(CONFIG, thesaurus)
    assert memo.labels
    mutate(thesaurus)
    fresh = feature_memo(CONFIG, thesaurus)
    assert fresh is not memo and len(fresh) == 0
    after, _ = schema_features(tree_, CONFIG, thesaurus)
    assert list(after.items()) == list(
        reference.schema_tokens(tree_, CONFIG, thesaurus).items()
    )


def test_each_thesaurus_and_config_has_its_own_memo(thesaurus):
    other = IndexConfig(use_stemming=False)
    assert feature_memo(CONFIG, thesaurus) is feature_memo(CONFIG, thesaurus)
    assert feature_memo(other, thesaurus) is not feature_memo(CONFIG,
                                                              thesaurus)
    assert feature_memo(CONFIG, Thesaurus.bundled()) is not feature_memo(
        CONFIG, thesaurus
    )
    # Without a thesaurus every call gets a private memo.
    assert feature_memo(CONFIG) is not feature_memo(CONFIG)
