"""Deterministic synthetic schema generation.

The paper evaluates on two protein schemas (PIR: 231 elements, depth 6;
PDB: 3753 elements, depth 7) that are not publicly archived.  This module
generates schemas with an *exact* requested node count and maximum depth
from a seeded RNG, using a configurable vocabulary, so the scale
experiments (Figure 4/5) run on inputs with the paper's reported
characteristics.

Generation is reproducible: the same :class:`GeneratorConfig` always
yields the same tree.  For *corpus-scale* generation (the segmented
index benchmarks index 100k synthetic schemas), :func:`derive_seed`
expands one master seed into per-schema seeds via blake2b -- so the
whole corpus is byte-for-byte reproducible from a single published
integer -- and :func:`synthetic_corpus_configs` builds the per-schema
configs, each drawing its name vocabulary from a shared pool sized
``~sqrt(count)`` (:func:`vocabulary_pool`).  The pool scaling grows
the *label* space with the corpus: since LSH shingles are whole
normalized labels, MinHash buckets stay sparse as the corpus grows
(a 23-word shared vocabulary would put every schema in every bucket).
Index *tokens*, by contrast, split compound labels into their base
stems, so posting lists stay dense at any scale -- which is exactly
the regime the segmented index's candidate-admission budget
(``max_candidates``) is built for.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.xsd.errors import SchemaValidationError
from repro.xsd.model import NodeKind, SchemaNode, SchemaTree

#: Master seed the committed benchmark corpora are derived from.
CORPUS_MASTER_SEED = 2005

#: Default name vocabulary -- deliberately generic; domain datasets pass
#: their own (see :mod:`repro.datasets.protein`).
DEFAULT_VOCABULARY = (
    "record", "entry", "item", "group", "set", "info", "data", "detail",
    "code", "name", "value", "id", "type", "status", "date", "count",
    "source", "target", "ref", "description", "label", "unit", "note",
)

DEFAULT_TYPE_POOL = (
    "string", "integer", "decimal", "boolean", "date", "dateTime", "anyURI",
)


@dataclass
class GeneratorConfig:
    """Parameters for :class:`SchemaGenerator`.

    ``n_nodes`` and ``max_depth`` are met exactly (an exception is raised
    when they are inconsistent, e.g. fewer nodes than depth requires).
    """

    n_nodes: int
    max_depth: int
    seed: int = 0
    min_children: int = 2
    max_children: int = 6
    attribute_probability: float = 0.15
    compound_name_probability: float = 0.4
    vocabulary: tuple = DEFAULT_VOCABULARY
    type_pool: tuple = DEFAULT_TYPE_POOL
    root_name: str = "Root"
    domain: str = None

    def __post_init__(self):
        if self.n_nodes < self.max_depth + 1:
            raise SchemaValidationError(
                f"cannot fit max_depth {self.max_depth} in {self.n_nodes} nodes"
            )
        if self.max_depth < 1:
            raise SchemaValidationError("max_depth must be at least 1")
        if not 1 <= self.min_children <= self.max_children:
            raise SchemaValidationError(
                "need 1 <= min_children <= max_children"
            )


class SchemaGenerator:
    """Generates schema trees that hit an exact size and depth.

    Strategy: first lay down a *spine* of ``max_depth`` nodes below the
    root so the depth target is met exactly, then repeatedly attach the
    remaining nodes to randomly chosen expandable nodes (those whose
    depth leaves room below ``max_depth``).  Names are drawn from the
    vocabulary (optionally compounded camelCase pairs) and disambiguated
    with numeric suffixes so sibling names stay unique.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._name_counts = {}

    def generate(self) -> SchemaTree:
        """Build and return a validated tree matching the config exactly."""
        config = self.config
        self._rng = random.Random(config.seed)
        self._name_counts = {}
        root = SchemaNode(config.root_name, type_name=None)
        budget = config.n_nodes - 1

        # Spine: guarantees one path of exactly max_depth edges.
        spine_parent = root
        for _ in range(config.max_depth):
            node = self._make_node(spine_parent, allow_attribute=False)
            spine_parent.add_child(node)
            spine_parent = node
            budget -= 1

        # Everything that may still receive children.
        expandable = [
            node for node in root.iter_preorder()
            if node.level < config.max_depth and not node.is_attribute
        ]
        while budget > 0:
            parent = self._rng.choice(expandable)
            batch = min(
                budget,
                self._rng.randint(config.min_children, config.max_children),
            )
            for _ in range(batch):
                allow_attr = parent.level + 1 <= config.max_depth
                child = self._make_node(parent, allow_attribute=allow_attr)
                parent.add_child(child)
                budget -= 1
                if (
                    not child.is_attribute
                    and child.level < config.max_depth
                ):
                    expandable.append(child)

        self._assign_leaf_types(root)
        tree = SchemaTree(
            root, name=config.root_name, domain=config.domain
        ).validate()
        assert tree.size == config.n_nodes
        assert tree.max_depth == config.max_depth
        return tree

    # ------------------------------------------------------------------

    def _make_node(self, parent, allow_attribute=True) -> SchemaNode:
        config = self.config
        is_attribute = (
            allow_attribute
            and self._rng.random() < config.attribute_probability
        )
        name = self._fresh_name(parent)
        if is_attribute:
            return SchemaNode(
                name,
                kind=NodeKind.ATTRIBUTE,
                type_name=self._rng.choice(config.type_pool),
                min_occurs=self._rng.choice((0, 1)),
                max_occurs=1,
                properties={"use": "optional"},
            )
        max_occurs = self._rng.choice((1, 1, 1, -1))
        return SchemaNode(
            name,
            kind=NodeKind.ELEMENT,
            min_occurs=self._rng.choice((0, 1, 1)),
            max_occurs=max_occurs,
        )

    def _fresh_name(self, parent) -> str:
        """A name for a new child of ``parent``, unique among its
        siblings."""
        config = self.config
        word = self._rng.choice(config.vocabulary)
        if self._rng.random() < config.compound_name_probability:
            second = self._rng.choice(config.vocabulary)
            word = word + second.capitalize()
        count = self._name_counts.get(word, 0)
        name = f"{word}{count + 1}" if count else word
        # A vocabulary word may already end in a suffix (``entryInfo2``
        # next to ``entryInfo``), so a name can still repeat a sibling's:
        # take the word's next free suffix, drawing nothing from the RNG.
        siblings = {child.name for child in parent.children}
        while name in siblings:
            count += 1
            name = f"{word}{count + 1}"
        self._name_counts[word] = count + 1
        return name

    def _assign_leaf_types(self, root):
        for node in root.iter_preorder():
            if node.is_leaf and node.type_name is None:
                node.type_name = self._rng.choice(self.config.type_pool)


# ----------------------------------------------------------------------
# Corpus-scale generation: one master seed -> N reproducible schemas
# ----------------------------------------------------------------------

def derive_seed(master_seed: int, index: int, label: str = "schema") -> int:
    """A per-item seed derived from one master seed, stable forever.

    blake2b over ``label:master_seed:index`` rather than e.g.
    ``master_seed + index`` so derived streams never overlap (schema 1
    of seed 7 is unrelated to schema 0 of seed 8) and never depend on
    Python's salted :func:`hash`.
    """
    material = f"{label}:{master_seed}:{index}".encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def vocabulary_pool(size: int, master_seed: int = CORPUS_MASTER_SEED,
                    ) -> tuple:
    """A deterministic pool of ``size`` distinct compound names.

    Words pair two base-vocabulary stems (camelCase, as real schema
    labels compound) and disambiguate with a numeric suffix once the
    pair space is exhausted; the pairing order is a seeded shuffle so
    different master seeds give different (but reproducible) pools.
    """
    rng = random.Random(derive_seed(master_seed, 0, label="vocab"))
    base = list(DEFAULT_VOCABULARY)
    pairs = [
        first + second.capitalize()
        for first in base for second in base if first != second
    ]
    rng.shuffle(pairs)
    words = []
    suffix = 0
    while len(words) < size:
        chunk = pairs if suffix == 0 else [
            f"{pair}{suffix + 1}" for pair in pairs
        ]
        words.extend(chunk[:size - len(words)])
        suffix += 1
    return tuple(words)


def synthetic_corpus_configs(count: int,
                             master_seed: int = CORPUS_MASTER_SEED,
                             n_nodes: int = 24,
                             max_depth: int = 4,
                             schema_vocab: int = 24,
                             pool: Optional[tuple] = None,
                             ) -> Iterator[GeneratorConfig]:
    """Per-schema configs for a reproducible ``count``-schema corpus.

    Every config is a pure function of ``(master_seed, index)``:
    the schema seed comes from :func:`derive_seed` and its vocabulary
    is a seeded sample of ``schema_vocab`` words from a shared pool
    sized ``max(64, 8 * sqrt(count))`` (unless an explicit ``pool`` is
    given).  Generating the corpus twice -- on different machines, in
    CI -- yields byte-identical schemas for equal indexes; pass an
    explicit ``pool`` to also keep a smaller count a byte-identical
    prefix of a larger one (the default pool scales with ``count``).
    """
    if pool is None:
        pool = vocabulary_pool(
            max(64, int(8 * math.sqrt(count))), master_seed
        )
    for index in range(count):
        seed = derive_seed(master_seed, index)
        vocab_rng = random.Random(derive_seed(master_seed, index,
                                              label="pick"))
        vocabulary = tuple(
            vocab_rng.sample(pool, min(schema_vocab, len(pool)))
        )
        yield GeneratorConfig(
            n_nodes=n_nodes,
            max_depth=max_depth,
            seed=seed,
            vocabulary=vocabulary,
            root_name=f"Synth{index:06d}",
        )
