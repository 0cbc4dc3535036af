"""Cupid-style structural matcher (label-blind).

Scores every (source node, target node) pair from schema *shape* alone:

- **leaf pairs** score by data-type similarity (the XSD type lattice)
  blended with occurrence compatibility and kind agreement;
- **inner pairs** score by the classic Cupid structural similarity
  (ssim): the fraction of descendant leaves on both sides that have a
  *strong link* -- a leaf counterpart with similarity at or above the
  strong-link threshold -- blended with arity and height similarity;
- **leaf vs inner** pairs score low by construction (a single-leaf
  "subtree" rarely covers a populated one).

This is deliberately label-blind: on the paper's Figure 7/8 example
(structurally identical, linguistically disjoint trees) it scores high
where the linguistic matcher scores near zero, which is exactly the
behaviour Figure 9 depends on.

Implementation note: strong-link counts are aggregated bottom-up with a
dynamic program over (source node, target node) pairs (``linked(u, v) =
sum over children c of u of linked(c, v)``), vectorized with numpy, so
the whole matrix costs O(n*m) -- the paper-scale protein pair
(231 x 3753 nodes) completes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.base import Matcher
from repro.matching.result import ScoreMatrix, checked_score
from repro.properties.matcher import occurs_range_overlaps
from repro.linguistic.tokenizer import normalize
from repro.properties.types import type_similarity
from repro.xsd.model import SchemaNode


@dataclass(frozen=True)
class StructuralConfig:
    """Knobs of the structural matcher.

    ``strong_link_threshold`` is Cupid's th-accept for leaf links; the
    three blend weights (ssim / arity / height) must sum to 1.
    """

    strong_link_threshold: float = 0.6
    ssim_weight: float = 0.6
    arity_weight: float = 0.2
    height_weight: float = 0.2
    #: Leaf-score blend.  ``leaf_type_weight`` goes to data-type
    #: similarity; ``leaf_label_weight`` to *raw* normalized-string
    #: equality (Cupid's structure phase seeds leaf similarities with
    #: name equality -- no thesaurus, no tokens: that is the linguistic
    #: matcher's domain); ``order_weight`` rewards sibling-position
    #: proximity (element order is structural information inherent in
    #: XML that the paper highlights); the remainder is split evenly
    #: between occurrence compatibility and kind agreement.
    leaf_type_weight: float = 0.4
    leaf_label_weight: float = 0.25
    order_weight: float = 0.1

    def __post_init__(self):
        total = self.ssim_weight + self.arity_weight + self.height_weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"ssim/arity/height weights must sum to 1, got {total}"
            )


def _leaf_shape(node: SchemaNode):
    """A leaf's descriptor minus its name: leaves of equal shape score
    equally against a third leaf, up to the name-equality part."""
    return (
        node.type_name, node.min_occurs, node.max_occurs, node.kind,
        node.order or 1,
    )


class StructuralMatcher(Matcher):
    """The structural algorithm: shape-only similarity for all node pairs."""

    name = "structural"

    def __init__(self, config=None):
        self.config = config or StructuralConfig()

    # ------------------------------------------------------------------
    # Public pieces
    # ------------------------------------------------------------------

    def leaf_similarity(self, source: SchemaNode, target: SchemaNode) -> float:
        """Shape similarity of two leaves (no labels involved)."""
        names_differ, names_equal = self._shape_scores(
            _leaf_shape(source), _leaf_shape(target)
        )
        if normalize(source.name) == normalize(target.name):
            return names_equal
        return names_differ

    def _shape_scores(self, source_shape, target_shape) -> tuple:
        """Leaf similarity of two shapes as ``(names differ, names
        equal)``: the blend with a name-equality part of 0.0 and 1.0."""
        s_type, s_min, s_max, s_kind, s_order = source_shape
        t_type, t_min, t_max, t_kind, t_order = target_shape
        type_part = type_similarity(s_type, t_type)
        if (s_min, s_max) == (t_min, t_max):
            occurs_part = 1.0
        elif occurs_range_overlaps(s_min, s_max, t_min, t_max):
            occurs_part = 0.7
        else:
            occurs_part = 0.0
        kind_part = 1.0 if s_kind is t_kind else 0.5
        order_part = 1.0 / (1.0 + abs(s_order - t_order))
        config = self.config
        rest = (
            1.0
            - config.leaf_type_weight
            - config.leaf_label_weight
            - config.order_weight
        ) / 2
        return tuple(
            config.leaf_type_weight * type_part
            + config.leaf_label_weight * label_part
            + config.order_weight * order_part
            + rest * occurs_part
            + rest * kind_part
            for label_part in (0.0, 1.0)
        )

    # ------------------------------------------------------------------
    # Matcher protocol
    # ------------------------------------------------------------------

    def match_context(self, ctx) -> ScoreMatrix:
        source, target = ctx.source_table, ctx.target_table
        n, m = len(source), len(target)
        s_leaves = np.flatnonzero(source.leaves)
        t_leaves = np.flatnonzero(target.leaves)

        # Leaf-pair scores: one pair of blends per *shape* pair (leaves
        # of equal shape are interchangeable, which keeps the pairwise
        # leaf pass tiny even for thousands of leaves), picked per leaf
        # pair by whether the normalized names are equal.
        shape_ids: dict = {}
        name_ids: dict = {}

        def leaf_ids(table, leaves):
            shapes, names = [], []
            for index in leaves:
                node = table.nodes[index]
                shape = _leaf_shape(node)
                shapes.append(shape_ids.setdefault(shape, len(shape_ids)))
                names.append(
                    name_ids.setdefault(normalize(node.name), len(name_ids))
                )
            return np.array(shapes, dtype=np.intp), np.array(names)

        s_shapes, s_names = leaf_ids(source, s_leaves)
        t_shapes, t_names = leaf_ids(target, t_leaves)
        shapes = list(shape_ids)
        names_differ = np.zeros((len(shapes), len(shapes)))
        names_equal = np.zeros((len(shapes), len(shapes)))
        for a in set(s_shapes.tolist()):
            for b in set(t_shapes.tolist()):
                names_differ[a, b], names_equal[a, b] = self._shape_scores(
                    shapes[a], shapes[b]
                )
        leaf_scores = np.where(
            s_names[:, None] == t_names[None, :],
            names_equal[np.ix_(s_shapes, t_shapes)],
            names_differ[np.ix_(s_shapes, t_shapes)],
        )
        strong = (
            leaf_scores >= self.config.strong_link_threshold
        ).astype(np.int32)

        # linked_s[i, j]: leaves under source node i strongly linked into
        # the leaf set of target node j (and the transpose for linked_t).
        # Base case: a source leaf is linked into a target subtree when
        # any strong partner lives under it -- an OR up the target tree
        # (postorder puts children first); the mirror for target leaves.
        linked_s = np.zeros((n, m), dtype=np.int32)
        linked_t = np.zeros((n, m), dtype=np.int32)
        linked_s[np.ix_(s_leaves, t_leaves)] = strong
        linked_t[np.ix_(s_leaves, t_leaves)] = strong
        for j, children in enumerate(target.children):
            if children:
                linked_s[s_leaves, j] = linked_s[
                    np.ix_(s_leaves, children)
                ].max(axis=1)
        for i, children in enumerate(source.children):
            if children:
                linked_t[i, t_leaves] = linked_t[
                    np.ix_(children, t_leaves)
                ].max(axis=0)
        # DP: aggregate children into parents.  linked_s rows aggregate
        # over the source tree; linked_t columns over the target tree.
        for i, children in enumerate(source.children):
            if children:
                linked_s[i] = np.sum(linked_s[list(children)], axis=0)
        for j, children in enumerate(target.children):
            if children:
                linked_t[:, j] = np.sum(linked_t[:, list(children)], axis=1)

        s_leaf_count, s_height = _leaf_counts_and_heights(source)
        t_leaf_count, t_height = _leaf_counts_and_heights(target)
        ssim = (linked_s + linked_t) / (
            s_leaf_count[:, None] + t_leaf_count[None, :]
        )

        s_arity = np.array([len(c) for c in source.children], dtype=np.float64)
        t_arity = np.array([len(c) for c in target.children], dtype=np.float64)
        arity_max = np.maximum(s_arity[:, None], t_arity[None, :])
        arity_min = np.minimum(s_arity[:, None], t_arity[None, :])
        with np.errstate(invalid="ignore", divide="ignore"):
            arity = np.where(arity_max > 0, arity_min / arity_max, 1.0)

        height = (np.minimum(s_height[:, None], t_height[None, :]) + 1) / (
            np.maximum(s_height[:, None], t_height[None, :]) + 1
        )

        config = self.config
        scores = (
            config.ssim_weight * ssim
            + config.arity_weight * arity
            + config.height_weight * height
        )
        # Leaf-leaf pairs use the direct leaf similarity instead.
        scores[np.ix_(s_leaves, t_leaves)] = leaf_scores

        outside = ~((scores >= -1e-9) & (scores <= 1 + 1e-9))
        if outside.any():
            i, j = np.argwhere(outside)[0]
            checked_score(float(scores[i, j]), source.paths[i],
                          target.paths[j])  # raises
        scores = np.clip(scores, 0.0, 1.0)
        matrix = ScoreMatrix(ctx.source, ctx.target, "postorder", scores)
        ctx.stats.count("structural.pairs", len(matrix))
        return matrix


def _leaf_counts_and_heights(table) -> tuple:
    """Per-node leaf counts and heights of one side, bottom-up."""
    leaf_count = np.ones(len(table))
    height = np.zeros(len(table))
    for i, children in enumerate(table.children):
        if children:
            leaf_count[i] = sum(leaf_count[c] for c in children)
            height[i] = 1 + max(height[c] for c in children)
    return leaf_count, height
