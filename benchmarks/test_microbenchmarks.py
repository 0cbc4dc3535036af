"""Micro-benchmarks of the hot substrate paths.

Not a paper experiment -- the standard performance safety net of a
library release: parsing, tokenization, string metrics, label
comparison, the property matcher and instance generation.  The QMatch
inner loop touches each of these O(n*m) times, so regressions here
multiply straight into Figure 4.
"""

import pytest

from conftest import cold_start
from repro.linguistic.matcher import LinguisticMatcher
from repro.linguistic.string_metrics import (
    blended_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
)
from repro.linguistic.tokenizer import tokenize
from repro.properties.matcher import PropertyMatcher
from repro.xsd.generator import GeneratorConfig, SchemaGenerator
from repro.xsd.instances import generate_instance
from repro.xsd.parser import parse_xsd
from repro.xsd.serializer import to_xsd

LABELS = [
    "PurchaseOrder", "purchase_order", "Unit Of Measure", "UOMCode",
    "Item#", "QuantityOnHand", "author_last_name", "PO1",
]


@pytest.fixture(scope="module")
def medium_schema():
    return SchemaGenerator(
        GeneratorConfig(n_nodes=200, max_depth=5, seed=99)
    ).generate()


@pytest.fixture(scope="module")
def medium_xsd_text(medium_schema):
    return to_xsd(medium_schema)


def test_bench_tokenize(benchmark):
    benchmark(lambda: [tokenize(label) for label in LABELS])


def test_bench_levenshtein(benchmark):
    benchmark(levenshtein_distance, "QuantityOnHand", "quantity_available")


def test_bench_jaro_winkler(benchmark):
    benchmark(jaro_winkler_similarity, "QuantityOnHand", "quantity_available")


def test_bench_blended_similarity(benchmark):
    benchmark(blended_similarity, "shippingaddress", "shipto")


def test_bench_label_comparison_cold(benchmark):
    def compare_all():
        matcher = LinguisticMatcher()
        return [
            matcher.compare_labels(left, right)
            for left in LABELS for right in LABELS
        ]
    # Matchers share their thesaurus's token lexicon; each round starts
    # from cold tables.
    benchmark.pedantic(compare_all, setup=cold_start, rounds=5, iterations=1)


def test_bench_label_comparison_warm(benchmark):
    matcher = LinguisticMatcher()
    for left in LABELS:
        for right in LABELS:
            matcher.compare_labels(left, right)

    def compare_all():
        return [
            matcher.compare_labels(left, right)
            for left in LABELS for right in LABELS
        ]
    benchmark(compare_all)


def test_bench_property_matcher(benchmark, medium_schema):
    matcher = PropertyMatcher()
    nodes = list(medium_schema)[:20]

    def compare_all():
        return [
            matcher.compare(left, right) for left in nodes for right in nodes
        ]
    benchmark(compare_all)


def test_bench_xsd_parse(benchmark, medium_xsd_text):
    parsed = benchmark(parse_xsd, medium_xsd_text)
    assert parsed.size == 200


def test_bench_xsd_serialize(benchmark, medium_schema):
    text = benchmark(to_xsd, medium_schema)
    assert "schema" in text


def test_bench_schema_generation(benchmark):
    config = GeneratorConfig(n_nodes=200, max_depth=5, seed=7)
    tree = benchmark(lambda: SchemaGenerator(config).generate())
    assert tree.size == 200


def test_bench_instance_generation(benchmark, medium_schema):
    document = benchmark(generate_instance, medium_schema)
    assert document is not None
