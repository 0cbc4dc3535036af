"""Memo keys are sound: a cached comparison equals a cold one.

The property matcher caches on a *factored* key -- the two type names
plus one equality bit each for order, minOccurs, maxOccurs and kind --
instead of the full pair of node signatures, the context writes its
label memo and the linguistic lexicon its token-similarity rows in both
directions.
These tests pin both: a warm comparison equals a cold one, the property
memo holds exactly one entry per distinct factored key, and label
comparison is symmetric on fresh matchers.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.qmatch import QMatchMatcher
from repro.datasets import registry
from repro.linguistic.matcher import LinguisticMatcher
from repro.linguistic.thesaurus import Thesaurus
from repro.properties.matcher import (
    PropertyConfig,
    PropertyMatcher,
    drop_property_tables,
)
from repro.xsd.model import UNBOUNDED, NodeKind, SchemaNode, SchemaTree

TYPES = (None, "string", "integer", "decimal", "date", "anyURI", "token",
         "boolean", "PersonType")


def factored_key(source, target):
    """What a property comparison reads of a node pair."""
    return (
        source.type_name, target.type_name,
        source.order == target.order,
        source.min_occurs == target.min_occurs,
        source.max_occurs == target.max_occurs,
        source.kind is target.kind,
    )


@st.composite
def nodes(draw):
    node = SchemaNode(
        "n",
        kind=draw(st.sampled_from((NodeKind.ELEMENT, NodeKind.ATTRIBUTE))),
        type_name=draw(st.sampled_from(TYPES)),
        min_occurs=draw(st.sampled_from((0, 1))),
        max_occurs=draw(st.sampled_from((1, UNBOUNDED))),
    )
    # ``None`` is a root's order.
    node.properties["order"] = draw(st.sampled_from((None, 1, 2, 3, 7)))
    return node


def shifted(node, offset):
    """A copy of ``node`` whose (non-root) order is moved by ``offset``."""
    copy = SchemaNode(node.name, kind=node.kind,
                      properties=dict(node.properties))
    if copy.order is not None:
        copy.properties["order"] = copy.order + offset
    return copy


class TestFactoredPropertyKey:
    @pytest.mark.parametrize("compare_order", [True, False])
    @given(pairs=st.lists(st.tuples(nodes(), nodes()), min_size=1,
                          max_size=8),
           offset=st.integers(min_value=1, max_value=5))
    def test_warm_compare_equals_cold(self, compare_order, pairs, offset):
        config = PropertyConfig(compare_order=compare_order)
        # Matchers share one property table; count from an empty one.
        drop_property_tables()
        warm = PropertyMatcher(config)
        # Fill the memo through different pairs with the same factored
        # keys: both orders moved by one offset keep their equality bit.
        for source, target in pairs:
            other = (shifted(source, offset), shifted(target, offset))
            assert factored_key(*other) == factored_key(source, target)
            warm.compare(*other)
        for source, target in pairs:
            cold = PropertyMatcher(config)._compare_uncached(source, target)
            result = warm.compare(source, target)
            assert result == cold
            assert result.per_property == cold.per_property
        assert len(warm._cache) == len({factored_key(*p) for p in pairs})

    def test_memo_holds_one_entry_per_factored_key(self):
        pir = registry.load_schema("PIR")
        pdb = registry.load_schema("PDB")
        # A fixed, connected 50-node sample: the preorder prefix of the
        # first PDB subtree of 50 to 200 nodes.
        root = next(
            node for node in pdb.root.iter_preorder()
            if 50 <= sum(1 for _ in node.iter_preorder()) <= 200
        )
        kept = {id(node) for node in itertools.islice(root.iter_preorder(),
                                                      50)}

        def clone(node):
            copy = SchemaNode(node.name, kind=node.kind,
                              properties=dict(node.properties))
            for child in node.children:
                if id(child) in kept:
                    copy.add_child(clone(child))
            return copy

        sample = SchemaTree(clone(root), name="PDB-sample")
        assert sample.size == 50

        drop_property_tables()
        matcher = QMatchMatcher()
        matcher.match(pir, sample)
        keys = {factored_key(s, t) for s in pir for t in sample}
        signature_pairs = {
            (PropertyMatcher.signature(s), PropertyMatcher.signature(t))
            for s in pir for t in sample
        }
        assert len(matcher.property_matcher._cache) == len(keys)
        # Sibling order makes signatures nearly unique; the factored key
        # is what collapses them.
        assert len(keys) < len(signature_pairs) // 4


def builtin_labels():
    """Every distinct node label of the builtin schemas except PDB's."""
    return sorted({
        node.name
        for name in registry.schema_names() if name != "PDB"
        for node in registry.load_schema(name)
    })


class TestLabelSymmetry:
    def test_compare_labels_is_symmetric_on_fresh_matchers(self):
        pairs = list(itertools.combinations(builtin_labels(), 2))
        forward = LinguisticMatcher()
        # Matchers on one thesaurus share its lexicon; a second thesaurus
        # with the same data gives the backward matcher its own table.
        backward = LinguisticMatcher(thesaurus=Thesaurus.bundled())
        ab = [forward.compare_labels(a, b) for a, b in pairs]
        # Reversed order, so the backward matcher's memo and token rows
        # fill in a different sequence than the forward one's.
        ba = [backward.compare_labels(b, a) for a, b in reversed(pairs)]
        ba.reverse()
        asymmetric = [
            (pair, left, right)
            for pair, left, right in zip(pairs, ab, ba) if left != right
        ]
        assert not asymmetric, asymmetric[:5]

    def test_warm_token_rows_equal_cold_comparisons(self):
        pairs = list(itertools.combinations(builtin_labels(), 2))
        warm = LinguisticMatcher()
        results = [warm.compare_labels(a, b) for a, b in pairs]
        # A second thesaurus with the same data, its lexicons dropped
        # before each comparison: every cold comparison starts empty.
        thesaurus = Thesaurus.bundled()
        for (a, b), result in list(zip(pairs, results))[::25]:
            thesaurus.drop_lexicons()
            cold = LinguisticMatcher(thesaurus=thesaurus)
            assert cold.compare_labels(b, a) == result, (a, b)
