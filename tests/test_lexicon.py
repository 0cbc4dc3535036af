"""The token lexicon: one per thesaurus and config, bounded, thread-safe.

Every linguistic matcher on one thesaurus shares that thesaurus's
lexicon for its config (:mod:`repro.linguistic.lexicon`).  These tests
pin what sharing must not change: a mutated thesaurus answers like a
fresh one, threads sharing a lexicon agree with a serial run, a lexicon
over its cap is replaced between matches with outputs unchanged, and
the direct greedy for labels of one or two tokens equals the sorting
reference, whether it scans each left token afresh or reads the scan
back from the right label's best-two entries.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from repro.core.qmatch import QMatchMatcher
from repro.datasets import registry
from repro.linguistic import lexicon as lexicon_module
from repro.linguistic.lexicon import MAX_LEXICONS, NUMERIC_MISMATCH
from repro.linguistic.matcher import LinguisticConfig, LinguisticMatcher
from repro.linguistic.thesaurus import Thesaurus
from repro.matching.io import result_to_payload


def builtin_labels(skip=("PDB",)):
    return sorted({
        node.name
        for name in registry.schema_names() if name not in skip
        for node in registry.load_schema(name)
    })


class TestSharing:
    def test_matchers_on_one_thesaurus_share_one_lexicon(self):
        thesaurus = Thesaurus.bundled()
        first = LinguisticMatcher(thesaurus=thesaurus)
        second = LinguisticMatcher(thesaurus=thesaurus)
        assert first.lexicon() is second.lexicon()
        assert QMatchMatcher(thesaurus=thesaurus).linguistic.lexicon() is (
            first.lexicon()
        )

    def test_configs_and_thesauri_get_their_own(self):
        thesaurus = Thesaurus.bundled()
        default = LinguisticMatcher(thesaurus=thesaurus)
        stemless = LinguisticMatcher(
            thesaurus=thesaurus, config=LinguisticConfig(use_stemming=False),
        )
        assert default.lexicon() is not stemless.lexicon()
        assert LinguisticMatcher(
            thesaurus=thesaurus, config=LinguisticConfig(),
        ).lexicon() is default.lexicon()
        assert LinguisticMatcher().lexicon() is not default.lexicon()

    def test_a_thesaurus_keeps_a_bounded_number_of_lexicons(self):
        thesaurus = Thesaurus.bundled()
        configs = [LinguisticConfig(relaxed_threshold=0.1 * step)
                   for step in range(1, MAX_LEXICONS + 2)]
        first = thesaurus.lexicon(configs[0])
        for config in configs[1:]:
            thesaurus.lexicon(config)
        assert len(thesaurus._lexicons) == MAX_LEXICONS
        last = thesaurus.lexicon(configs[-1])
        assert thesaurus.lexicon(configs[-1]) is last
        # The oldest config's lexicon went; asking again builds a new one.
        assert thesaurus.lexicon(configs[0]) is not first

    def test_numeric_mismatches_are_not_stored(self):
        matcher = LinguisticMatcher(thesaurus=Thesaurus.bundled())
        lexicon = matcher.lexicon()
        before = len(lexicon)
        result = matcher.compare_labels("residue42", "residue7")
        assert result.score > 0
        left, right = lexicon.token_id("42"), lexicon.token_id("7")
        assert lexicon.token_similarity(left, right) is NUMERIC_MISMATCH
        assert right not in lexicon._token_rows[left]
        # Two labels, three tokens, the exact "residue" pair (stored
        # once) and one best-two entry per left token; "42" x "7" adds
        # no row entry.
        assert len(lexicon) == before + 2 + 2 + 3 + 1 + 2


class TestMutationDropsLexicons:
    """A matcher used before its thesaurus changes answers like one on
    a fresh thesaurus loaded with the changed data."""

    LABELS = [("zorpDate", "blickDate"), ("zorp", "blick"),
              ("qtyOrdered", "zorpOrdered"), ("WxyCode", "blickZorpCode")]

    @pytest.mark.parametrize("mutate", [
        lambda thesaurus: thesaurus.add_synonyms(["zorp", "blick"]),
        lambda thesaurus: thesaurus.add_hypernym("zorp", "blick"),
        lambda thesaurus: thesaurus.add_abbreviation("zorp", "quantity"),
        lambda thesaurus: thesaurus.add_acronym("wxy", ["blick", "zorp"]),
        lambda thesaurus: thesaurus.loads("syn\tzorp\tblick\n"),
    ], ids=["synonyms", "hypernym", "abbreviation", "acronym", "loads"])
    def test_compare_after_mutation_equals_fresh(self, mutate):
        thesaurus = Thesaurus.bundled()
        matcher = LinguisticMatcher(thesaurus=thesaurus)
        before = [matcher.compare_labels(a, b) for a, b in self.LABELS]
        mutate(thesaurus)
        after = [matcher.compare_labels(a, b) for a, b in self.LABELS]
        fresh = Thesaurus.bundled()
        mutate(fresh)
        expected = [
            LinguisticMatcher(thesaurus=fresh).compare_labels(a, b)
            for a, b in self.LABELS
        ]
        assert after == expected
        assert after != before

    def test_resident_qmatch_sees_new_synonyms(self):
        source = registry.load_schema("PO1")
        target = registry.load_schema("Book")
        thesaurus = Thesaurus.bundled()
        matcher = QMatchMatcher(thesaurus=thesaurus)
        matcher.match(source, target)
        thesaurus.add_synonyms(["order", "book"])
        fresh = Thesaurus.bundled().add_synonyms(["order", "book"])
        assert result_to_payload(matcher.match(source, target)) == (
            result_to_payload(QMatchMatcher(thesaurus=fresh).match(source,
                                                                   target))
        )


class TestConcurrency:
    def test_threads_sharing_a_lexicon_agree_with_serial(self):
        labels = builtin_labels()[::3]
        pairs = list(itertools.combinations(labels, 2))
        serial = LinguisticMatcher(thesaurus=Thesaurus.bundled())
        expected = {pair: serial.compare_labels(*pair) for pair in pairs}

        shared = Thesaurus.bundled()
        threads_count = 6
        results = [None] * threads_count
        errors = []

        def work(slot):
            # Each thread walks the pairs in its own order, so threads
            # intern tokens and score token pairs in different orders.
            order = list(pairs)
            random.Random(slot).shuffle(order)
            matcher = LinguisticMatcher(thesaurus=shared)
            try:
                results[slot] = {
                    pair: matcher.compare_labels(*pair) for pair in order
                }
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for got in results:
            assert got == expected
        # Every token got exactly one id, and every row entry was
        # counted once.
        lexicon = LinguisticMatcher(thesaurus=shared).lexicon()
        texts = lexicon._token_texts
        assert len(set(texts)) == len(texts)
        assert all(texts[token_id] == token
                   for token, token_id in lexicon._token_ids.items())
        assert lexicon._pairs == sum(map(len, lexicon._token_rows))
        # A raced label kept one preparation, so every best-two entry
        # was counted once, in the dict its label reads.
        assert lexicon._best_twos == sum(
            len(info[4]) for info in lexicon.labels.values()
        )


class TestCap:
    def test_full_lexicon_is_replaced_between_matches(self, monkeypatch):
        source = registry.load_schema("DCMDItem")
        target = registry.load_schema("DCMDOrd")
        expected = result_to_payload(
            QMatchMatcher(thesaurus=Thesaurus.bundled()).match(source, target)
        )
        monkeypatch.setattr(lexicon_module, "MAX_LEXICON_ENTRIES", 50)
        matcher = QMatchMatcher(thesaurus=Thesaurus.bundled())
        ctx = matcher.make_context(source, target)
        first = ctx.lexicon
        assert result_to_payload(
            matcher.match(source, target, context=ctx)
        ) == expected
        # The match read one lexicon throughout, far past the cap ...
        assert ctx.lexicon is first
        assert len(first) > 50
        # ... and the next match starts a fresh one, answering the same.
        replacement = matcher.linguistic.lexicon()
        assert replacement is not first
        assert len(replacement) == 0
        assert result_to_payload(matcher.match(source, target)) == expected

    def test_best_two_entries_count_toward_the_cap(self, monkeypatch):
        source = registry.load_schema("DCMDItem")
        target = registry.load_schema("DCMDOrd")
        matcher = QMatchMatcher(thesaurus=Thesaurus.bundled())
        expected = result_to_payload(matcher.match(source, target))
        first = matcher.linguistic.lexicon()
        assert first._best_twos > 0
        # Full only through its best-two entries ...
        monkeypatch.setattr(lexicon_module, "MAX_LEXICON_ENTRIES",
                            len(first) - first._best_twos)
        # ... it is replaced before the next match, which answers the
        # same from a cold lexicon.
        replacement = matcher.linguistic.lexicon()
        assert replacement is not first
        assert result_to_payload(matcher.match(source, target)) == expected
        assert replacement._best_twos == first._best_twos

    def test_lexicon_under_the_cap_is_kept(self):
        matcher = LinguisticMatcher(thesaurus=Thesaurus.bundled())
        lexicon = matcher.lexicon()
        matcher.compare_labels("orderDate", "purchaseDate")
        assert not lexicon.full()
        assert matcher.lexicon() is lexicon


#: Token texts for the differential test: repeats give equal scores in
#: several columns, digits give all-zero rows, and the thesaurus below
#: gives synonym, abbreviation and hypernym ties.
VOCABULARY = ("order", "purchase", "buy", "qty", "quantity", "amount",
              "date", "day", "book", "novel", "publication", "7", "42",
              "2024", "zq", "xv", "orders", "dates")


def differential_thesaurus() -> Thesaurus:
    return (
        Thesaurus()
        .add_synonyms(["order", "purchase", "buy"])
        .add_synonyms(["quantity", "amount"])
        .add_abbreviation("qty", "quantity")
        .add_hypernym("book", "publication")
        .add_hypernym("novel", "book")
    )


class TestShortLabelGreedy:
    def test_random_short_labels_equal_the_sorting_reference(self):
        lexicon = differential_thesaurus().lexicon(LinguisticConfig())
        ids = [lexicon.token_id(token) for token in VOCABULARY]
        rng = random.Random(23)
        for _ in range(20_000):
            left = tuple(rng.choice(ids) for _ in range(rng.randint(1, 2)))
            right = tuple(rng.choice(ids) for _ in range(rng.randint(0, 5)))
            assert lexicon.align(left, right, {}) == (
                lexicon.align_sorted(left, right)
            ), ([VOCABULARY[ids.index(t)] for t in left],
                [VOCABULARY[ids.index(t)] for t in right])

    def test_tied_and_zero_rows(self):
        lexicon = differential_thesaurus().lexicon(LinguisticConfig())
        order, purchase, seven, forty_two, zq = (
            lexicon.token_id(token)
            for token in ("order", "purchase", "7", "42", "zq")
        )
        cases = [
            ((order, purchase), (purchase, order)),
            ((order, order), (order,)),
            ((order, seven), (seven, order)),
            ((seven, forty_two), (order, purchase)),
            ((seven,), (forty_two, zq)),
            ((order,), ()),
            ((purchase, order), (order, order, purchase)),
        ]
        for left, right in cases:
            assert lexicon.align(left, right, {}) == (
                lexicon.align_sorted(left, right)
            ), (left, right)

    def test_best_two_entries_equal_the_sorting_reference(self):
        # Right labels keep their best-two entries across calls, as a
        # prepared label does, so later calls read scans earlier calls
        # stored; each call is also checked against a cold dict.
        lexicon = differential_thesaurus().lexicon(LinguisticConfig())
        ids = [lexicon.token_id(token) for token in VOCABULARY]
        rng = random.Random(29)
        rights = [tuple(rng.choice(ids) for _ in range(rng.randint(1, 5)))
                  for _ in range(200)]
        warm = [{} for _ in rights]
        for _ in range(20_000):
            left = tuple(rng.choice(ids) for _ in range(rng.randint(1, 2)))
            slot = rng.randrange(len(rights))
            right = rights[slot]
            expected = lexicon.align_sorted(left, right)
            assert lexicon.align(left, right, warm[slot]) == expected, (
                left, right,
            )
            assert lexicon.align(left, right, {}) == expected
        assert sum(map(len, warm)) > len(rights)
        for right, entries in zip(rights, warm):
            for left, found in entries.items():
                assert found == lexicon._best_two(left, right, {})

    def test_builtin_label_pairs_equal_the_sorting_reference(self):
        lexicon = Thesaurus.bundled().lexicon(LinguisticConfig())
        labels = [lexicon.prepare_label(label)[2]
                  for label in builtin_labels(())]
        short = [tokens for tokens in labels if len(tokens) <= 2]
        compared = 0
        for left in short[::2]:
            for right in labels[::7]:
                assert lexicon.align(left, right, {}) == (
                    lexicon.align_sorted(left, right)
                )
                compared += 1
        assert compared > 10_000
