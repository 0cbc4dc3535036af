"""Unit tests for the synthetic schema generator."""

import pytest

from repro.xsd.errors import SchemaValidationError
from repro.xsd.generator import (
    CORPUS_MASTER_SEED,
    GeneratorConfig,
    SchemaGenerator,
    derive_seed,
    synthetic_corpus_configs,
    vocabulary_pool,
)
from repro.xsd.serializer import to_xsd


def generate(**kwargs):
    defaults = dict(n_nodes=50, max_depth=4, seed=7)
    defaults.update(kwargs)
    return SchemaGenerator(GeneratorConfig(**defaults)).generate()


class TestExactness:
    @pytest.mark.parametrize("n_nodes,max_depth", [
        (10, 2), (50, 4), (231, 6), (500, 7),
    ])
    def test_exact_size_and_depth(self, n_nodes, max_depth):
        generated = generate(n_nodes=n_nodes, max_depth=max_depth)
        assert generated.size == n_nodes
        assert generated.max_depth == max_depth

    def test_minimal_tree(self):
        generated = generate(n_nodes=3, max_depth=2)
        assert generated.size == 3
        assert generated.max_depth == 2

    def test_tree_is_valid(self):
        generate(n_nodes=120, max_depth=5).validate()


class TestDeterminism:
    def test_same_seed_same_tree(self):
        first = generate(seed=42)
        second = generate(seed=42)
        assert first.root.structurally_equal(second.root)

    def test_different_seed_different_tree(self):
        first = generate(seed=1)
        second = generate(seed=2)
        assert not first.root.structurally_equal(second.root)

    def test_generator_reusable(self):
        generator = SchemaGenerator(GeneratorConfig(n_nodes=30, max_depth=3, seed=5))
        assert generator.generate().root.structurally_equal(
            generator.generate().root
        )


class TestContent:
    def test_leaves_have_types(self):
        generated = generate()
        for leaf in generated.leaves:
            assert leaf.type_name is not None

    def test_types_from_pool(self):
        generated = generate(type_pool=("boolean",))
        assert {leaf.type_name for leaf in generated.leaves} == {"boolean"}

    def test_vocabulary_used(self):
        generated = generate(vocabulary=("alpha", "beta"),
                             compound_name_probability=0.0)
        for node in generated:
            if node is generated.root:
                continue
            base = node.name.rstrip("0123456789")
            assert base in ("alpha", "beta")

    def test_no_attributes_when_probability_zero(self):
        generated = generate(attribute_probability=0.0)
        assert all(not node.is_attribute for node in generated)

    def test_root_name(self):
        assert generate(root_name="Proteome").root.name == "Proteome"

    def test_names_globally_unique(self):
        generated = generate(n_nodes=200, max_depth=5)
        names = [node.name for node in generated]
        assert len(names) == len(set(names))


class TestCorpusScaleDerivation:
    """One master seed -> a byte-for-byte reproducible corpus."""

    def test_derive_seed_stable_and_separated(self):
        assert derive_seed(2005, 0) == derive_seed(2005, 0)
        assert derive_seed(2005, 0) != derive_seed(2005, 1)
        assert derive_seed(2005, 0) != derive_seed(2006, 0)
        assert derive_seed(2005, 0, label="pick") != derive_seed(2005, 0)
        assert 0 <= derive_seed(2005, 123456) < 2 ** 64

    def test_vocabulary_pool_is_deterministic_prefix(self):
        small = vocabulary_pool(10)
        large = vocabulary_pool(50)
        assert small == large[:10]
        assert len(set(large)) == 50
        assert vocabulary_pool(10, master_seed=1) \
            != vocabulary_pool(10, master_seed=2)

    def test_corpus_is_reproducible(self):
        first = [
            SchemaGenerator(config).generate()
            for config in synthetic_corpus_configs(3)
        ]
        second = [
            SchemaGenerator(config).generate()
            for config in synthetic_corpus_configs(3)
        ]
        assert [to_xsd(tree) for tree in first] \
            == [to_xsd(tree) for tree in second]
        assert [tree.name for tree in first] \
            == ["Synth000000", "Synth000001", "Synth000002"]

    def test_schemas_are_distinct(self):
        trees = [
            SchemaGenerator(config).generate()
            for config in synthetic_corpus_configs(4, n_nodes=12,
                                                   max_depth=3)
        ]
        assert len({to_xsd(tree) for tree in trees}) == 4

    def test_explicit_pool_keeps_counts_prefix_stable(self):
        pool = vocabulary_pool(64, CORPUS_MASTER_SEED)
        small = list(synthetic_corpus_configs(2, pool=pool))
        large = list(synthetic_corpus_configs(5, pool=pool))[:2]
        assert small == large

    def test_default_pool_scales_with_count(self):
        # sqrt scaling keeps the label space (and so the LSH shingle
        # space) growing with the corpus.
        few = {
            word
            for config in synthetic_corpus_configs(2)
            for word in config.vocabulary
        }
        assert len(few) <= 64

    def test_suffixed_words_stay_unique_among_siblings(self):
        # "id" twice is named "id", "id2" -- which the word "id2" is too.
        tree = generate(n_nodes=40, max_depth=1, vocabulary=("id", "id2"),
                        compound_name_probability=0.0)
        names = [child.name for child in tree.root.children]
        assert len(names) == 39 == len(set(names))

    def test_every_schema_of_a_5000_corpus_generates(self):
        # The pool at this size holds suffixed words ("entryInfo2"); five
        # of these schemas once gave two siblings the same name.
        for config in synthetic_corpus_configs(5000):
            tree = SchemaGenerator(config).generate()
            for node in tree.root.iter_preorder():
                names = [child.name for child in node.children]
                assert len(names) == len(set(names)), node.path


class TestConfigValidation:
    def test_too_few_nodes_for_depth(self):
        with pytest.raises(SchemaValidationError, match="cannot fit"):
            GeneratorConfig(n_nodes=3, max_depth=5)

    def test_depth_must_be_positive(self):
        with pytest.raises(SchemaValidationError, match="max_depth"):
            GeneratorConfig(n_nodes=10, max_depth=0)

    def test_children_range_checked(self):
        with pytest.raises(SchemaValidationError, match="min_children"):
            GeneratorConfig(n_nodes=10, max_depth=2, min_children=5, max_children=2)
