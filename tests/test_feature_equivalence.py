"""One feature pass equals the frozen per-node extraction.

:func:`repro.corpus.indexes.schema_features` walks a schema once,
tokenizes each distinct label once and keeps labels and shingle hashes
in a memo shared across schemas; ``tests/retrieval_reference.py``
keeps the per-node path it replaced.  On generated schemas -- repeated
labels, numeric tokens, abbreviations and acronyms, labels that
tokenize to nothing -- and with each feature option switched off, the
token ``Counter`` (its order included: document norms accumulate in
it), the shingle set, the query signature and the stored document rows
must equal the reference, from a cold memo and from a warm one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import IndexConfig, SegmentedCorpusIndex
from repro.corpus.indexes import schema_features
from repro.linguistic.thesaurus import Thesaurus
from repro.xsd.builder import element, tree
from repro.xsd.model import SchemaTree
from tests import retrieval_reference as reference

#: Label pieces: words that stem, abbreviations (qty, addr, no),
#: acronyms (PO, UOM, ISBN), numbers, non-ASCII text and delimiters
#: that tokenize to nothing on their own.
PIECES = ("Order", "order", "Lines", "shipping", "Item", "Qty", "qty",
          "Addr", "No", "PO", "UOM", "ISBN", "42", "7", "2005", "x",
          "Straße", "_", "#", "-")

CONFIGS = (
    IndexConfig(),
    IndexConfig(keep_numbers=False),
    IndexConfig(use_stemming=False),
    IndexConfig(use_thesaurus=False),
    IndexConfig(structural_shingles=False),
)

labels = st.lists(st.sampled_from(PIECES), min_size=1, max_size=3).map(
    "".join
)


@st.composite
def schemas(draw):
    """A tree over drawn labels; labels repeat, siblings included (so
    not every tree validates)."""
    names = draw(st.lists(labels, min_size=1, max_size=6))
    size = draw(st.integers(min_value=1, max_value=14))
    nodes = [element(draw(st.sampled_from(names)))]
    for _ in range(size - 1):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        child = element(draw(st.sampled_from(names)))
        parent.add_child(child)
        nodes.append(child)
    return SchemaTree(nodes[0])


def assert_features(tree_, config, thesaurus):
    tokens, shingles = schema_features(tree_, config, thesaurus)
    expected = reference.schema_tokens(tree_, config, thesaurus)
    assert list(tokens.items()) == list(expected.items())
    assert shingles == reference.schema_shingles(tree_, config)


SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(tree_=schemas(), config=st.sampled_from(CONFIGS))
def test_features_equal_reference(tree_, config):
    thesaurus = Thesaurus.bundled()
    assert_features(tree_, config, thesaurus)   # cold memo
    assert_features(tree_, config, thesaurus)   # every label memoized
    assert_features(tree_, config, None)        # no thesaurus


@SETTINGS
@given(trees=st.lists(schemas(), min_size=1, max_size=3),
       config=st.sampled_from(CONFIGS))
def test_query_and_document_features_equal_reference(trees, config):
    thesaurus = Thesaurus.bundled()
    with tempfile.TemporaryDirectory() as scratch:
        index = SegmentedCorpusIndex(Path(scratch), config=config,
                                     thesaurus=thesaurus)
        for tree_ in trees:
            expected = reference.schema_tokens(tree_, config, thesaurus)
            signature = reference.signature(
                reference.schema_shingles(tree_, config), config
            )
            tokens, got = index.query_features(tree_)
            assert list(tokens.items()) == list(expected.items())
            assert got == signature
            assert index.query_signature(tree_) == signature
            items, got = index._doc_features(tree_)
            assert items == list(expected.items())
            assert got == signature


def test_each_distinct_label_is_tokenized_once(monkeypatch):
    import repro.corpus.indexes as indexes

    calls = []
    tokenize = indexes.tokenize
    monkeypatch.setattr(indexes, "tokenize", lambda label, **kw: (
        calls.append(label) or tokenize(label, **kw)
    ))
    node = element("PurchaseOrder", element("Line", element("Qty")),
                   element("Lines", element("Qty"), element("Line")),
                   element("Qty"))
    schema_features(tree(node), IndexConfig(), Thesaurus.bundled())
    assert sorted(calls) == ["Line", "Lines", "PurchaseOrder", "Qty"]
