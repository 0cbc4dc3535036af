"""Unit tests for the linguistic matcher, anchored on the paper's examples."""

import pytest

from repro.engine.context import LABEL_CACHE, MatchContext
from repro.linguistic.matcher import LinguisticConfig, LinguisticMatcher
from repro.linguistic.thesaurus import Thesaurus
from repro.matching.classes import MatchStrength


@pytest.fixture(scope="module")
def matcher():
    return LinguisticMatcher()


class TestPaperExamples:
    """Section 2.1's label-axis walk-through, as executable assertions."""

    def test_orderno_exact(self, matcher):
        comparison = matcher.compare_labels("OrderNo", "OrderNo")
        assert comparison.strength is MatchStrength.EXACT
        assert comparison.score == 1.0

    def test_uom_acronym_is_relaxed(self, matcher):
        comparison = matcher.compare_labels("Unit Of Measure", "UOM")
        assert comparison.strength is MatchStrength.RELAXED
        assert comparison.mechanism == "acronym"
        assert comparison.score >= 0.8

    def test_quantity_qty_is_relaxed(self, matcher):
        comparison = matcher.compare_labels("Quantity", "Qty")
        assert comparison.strength is MatchStrength.RELAXED
        assert comparison.score >= 0.8

    def test_po_purchase_order_acronym(self, matcher):
        comparison = matcher.compare_labels("PO", "PurchaseOrder")
        assert comparison.strength is MatchStrength.RELAXED
        assert comparison.mechanism == "acronym"

    def test_lines_items_relaxed(self, matcher):
        comparison = matcher.compare_labels("Lines", "Items")
        assert comparison.strength is MatchStrength.RELAXED

    def test_purchasedate_date_relaxed(self, matcher):
        comparison = matcher.compare_labels("PurchaseDate", "Date")
        assert comparison.strength is MatchStrength.RELAXED
        assert 0.5 <= comparison.score < 1.0

    def test_billingaddr_billto_relaxed(self, matcher):
        comparison = matcher.compare_labels("BillingAddr", "BillTo")
        assert comparison.strength is MatchStrength.RELAXED

    def test_unrelated_labels_none(self, matcher):
        comparison = matcher.compare_labels("Quantity", "ShippingAddr")
        assert comparison.strength is MatchStrength.NONE


class TestClassification:
    def test_naming_convention_variants_exact(self, matcher):
        for variant in ("purchase_order", "PURCHASE-ORDER", "Purchase Order"):
            comparison = matcher.compare_labels("PurchaseOrder", variant)
            assert comparison.strength is MatchStrength.EXACT, variant
            assert comparison.score == 1.0

    def test_synonym_exact(self, matcher):
        comparison = matcher.compare_labels("Writer", "Author")
        assert comparison.strength is MatchStrength.EXACT
        assert comparison.mechanism == "synonym"

    def test_plural_exact_via_stemming(self, matcher):
        assert matcher.compare_labels("Keywords", "Keyword").is_exact

    def test_token_synonym_combination_exact(self, matcher):
        comparison = matcher.compare_labels("BookWriter", "BookAuthor")
        assert comparison.strength is MatchStrength.EXACT

    def test_hypernym_relaxed(self, matcher):
        comparison = matcher.compare_labels("Article", "Book")
        assert comparison.strength is MatchStrength.RELAXED

    def test_numbers_matter(self, matcher):
        same = matcher.compare_labels("PO1", "PO1")
        different = matcher.compare_labels("PO1", "PO2")
        assert same.score == 1.0
        assert different.score < 1.0

    def test_empty_label(self, matcher):
        comparison = matcher.compare_labels("", "anything")
        assert comparison.score == 0.0
        assert comparison.strength is MatchStrength.NONE

    def test_acronym_capped_below_exact(self, matcher):
        assert matcher.compare_labels("UnitOfMeasure", "UOM").score <= 0.9

    def test_scores_bounded(self, matcher):
        labels = ["OrderNo", "Qty", "UOM", "BillTo", "x", "PurchaseInfo"]
        for left in labels:
            for right in labels:
                assert 0.0 <= matcher.compare_labels(left, right).score <= 1.0


class TestSymmetryAndCaching:
    def test_symmetric_scores(self, matcher):
        ab = matcher.compare_labels("Quantity", "Qty")
        ba = matcher.compare_labels("Qty", "Quantity")
        assert ab.score == ba.score
        assert ab.strength is ba.strength

    # Label pairs are memoized per match by the context, the one label
    # memo; the matcher itself may outlive a match and keeps none.

    # The memo keeps plain values and builds an equal comparison per
    # read, so these pin one comparison and one hit, not one object.

    @staticmethod
    def _spied_context(po1_tree, book_tree, monkeypatch):
        ctx = MatchContext(po1_tree, book_tree, linguistic=LinguisticMatcher())
        calls = []
        compare = ctx.linguistic.compare_labels
        monkeypatch.setattr(ctx.linguistic, "compare_labels",
                            lambda *args: calls.append(args) or compare(*args))
        return ctx, calls

    def test_cache_returns_same_object(self, po1_tree, book_tree,
                                       monkeypatch):
        ctx, calls = self._spied_context(po1_tree, book_tree, monkeypatch)
        first = ctx.label_comparison("A", "B")
        second = ctx.label_comparison("A", "B")
        assert first == second
        assert len(calls) == 1
        counts = ctx.stats.cache(LABEL_CACHE)
        assert (counts.misses, counts.hits) == (1, 1)

    def test_cache_is_symmetric(self, po1_tree, book_tree, monkeypatch):
        ctx, calls = self._spied_context(po1_tree, book_tree, monkeypatch)
        first = ctx.label_comparison("A", "B")
        second = ctx.label_comparison("B", "A")
        assert first == second
        assert len(calls) == 1
        counts = ctx.stats.cache(LABEL_CACHE)
        assert (counts.misses, counts.hits) == (1, 1)


class TestConfig:
    def test_higher_threshold_downgrades_to_none(self):
        strict = LinguisticMatcher(
            config=LinguisticConfig(relaxed_threshold=0.95)
        )
        comparison = strict.compare_labels("PurchaseDate", "Date")
        assert comparison.strength is MatchStrength.NONE

    def test_empty_thesaurus_kills_synonyms(self):
        bare = LinguisticMatcher(thesaurus=Thesaurus.empty())
        comparison = bare.compare_labels("Writer", "Author")
        assert comparison.strength is not MatchStrength.EXACT

    def test_empty_thesaurus_keeps_string_matches(self):
        bare = LinguisticMatcher(thesaurus=Thesaurus.empty())
        assert bare.compare_labels("OrderNo", "OrderNo").is_exact

    def test_stemming_can_be_disabled(self):
        no_stem = LinguisticMatcher(
            config=LinguisticConfig(use_stemming=False)
        )
        comparison = no_stem.compare_labels("Keywords", "Keyword")
        assert comparison.strength is not MatchStrength.EXACT


class TestScoreMatrix:
    def test_full_matrix(self, matcher, po1_tree, po2_tree):
        matrix = matcher.score_matrix(po1_tree, po2_tree)
        assert len(matrix) == po1_tree.size * po2_tree.size

    def test_matrix_scores_match_label_comparison(self, matcher, po1_tree, po2_tree):
        matrix = matcher.score_matrix(po1_tree, po2_tree)
        source = po1_tree.find("PO/OrderNo")
        target = po2_tree.find("PurchaseOrder/OrderNo")
        assert matrix.get(source, target) == 1.0
