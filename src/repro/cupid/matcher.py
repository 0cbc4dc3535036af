"""Cupid's TreeMatch algorithm.

Cupid computes a weighted similarity for every node pair::

    wsim(s, t) = w_struct * ssim(s, t) + (1 - w_struct) * lsim(s, t)

- ``lsim`` is the linguistic similarity of the labels (we reuse the
  same Cupid-style linguistic matcher QMatch uses -- exactly how the
  QMatch paper set up its own comparison);
- ``ssim`` for leaves is data-type compatibility (the XSD type lattice);
- ``ssim`` for inner nodes is the fraction of *strongly linked* leaves
  in the two subtrees: a leaf is strongly linked when some leaf on the
  other side has ``wsim`` above ``th_accept``.

The characteristic Cupid twist is **leaf-similarity propagation**,
applied while walking the pair grid bottom-up: when an inner pair's
``wsim`` exceeds ``th_high``, the structural similarity of each leaf
pair underneath is multiplied by ``c_inc`` (capped at 1); when it falls
below ``th_low``, by ``c_dec``.  This lets agreement between containers
pull their contents together -- and makes the result order-dependent in
exactly the way the original is.

Mapping elements are then selected from the final wsim matrix by the
library's shared one-to-one selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.linguistic.matcher import LinguisticMatcher
from repro.matching.base import Matcher
from repro.matching.result import ScoreMatrix
from repro.properties.types import type_similarity


@dataclass(frozen=True)
class CupidConfig:
    """Cupid's published knobs (defaults follow the VLDB'01 paper).

    ``w_struct`` balances structure against names; ``th_accept`` is the
    strong-link threshold; ``th_high`` / ``th_low`` trigger the
    leaf-similarity increase / decrease by the multiplicative factors
    ``c_inc`` / ``c_dec``.
    """

    w_struct: float = 0.5
    th_accept: float = 0.5
    th_high: float = 0.6
    th_low: float = 0.35
    c_inc: float = 1.2
    c_dec: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.w_struct <= 1.0:
            raise ValueError(f"w_struct must be in [0, 1], got {self.w_struct}")
        if not self.th_low <= self.th_high:
            raise ValueError(
                f"need th_low <= th_high, got {self.th_low} > {self.th_high}"
            )
        if self.c_inc < 1.0 or not 0.0 < self.c_dec <= 1.0:
            raise ValueError("need c_inc >= 1 and 0 < c_dec <= 1")


class CupidMatcher(Matcher):
    """Cupid's TreeMatch over schema trees."""

    name = "cupid"

    def __init__(self, config=None, linguistic=None):
        self.config = config or CupidConfig()
        self.linguistic = linguistic or LinguisticMatcher()

    def make_context(self, source, target, stats=None, cache_enabled=True,
                     tracer=None):
        from repro.engine.context import MatchContext

        return MatchContext(
            source, target, linguistic=self.linguistic,
            stats=stats, cache_enabled=cache_enabled, tracer=tracer,
        )

    def match_context(self, ctx) -> ScoreMatrix:
        config = self.config
        source, target = ctx.source, ctx.target
        s_nodes = ctx.source_postorder
        t_nodes = ctx.target_postorder

        # Mutable leaf-pair structural similarity, subject to propagation.
        leaf_ssim: dict[tuple[int, int], float] = {}
        for s_leaf in ctx.leaves(source.root):
            for t_leaf in ctx.leaves(target.root):
                leaf_ssim[(id(s_leaf), id(t_leaf))] = type_similarity(
                    s_leaf.type_name, t_leaf.type_name
                )

        def lsim(s_node, t_node):
            return ctx.label_score(s_node.name, t_node.name)

        def leaf_wsim(s_leaf, t_leaf):
            return (
                config.w_struct * leaf_ssim[(id(s_leaf), id(t_leaf))]
                + (1 - config.w_struct) * lsim(s_leaf, t_leaf)
            )

        matrix = ScoreMatrix(source, target, "postorder")
        for s_node in s_nodes:
            s_leaves = ctx.leaves(s_node)
            for t_node in t_nodes:
                t_leaves = ctx.leaves(t_node)
                if s_node.is_leaf and t_node.is_leaf:
                    wsim = leaf_wsim(s_node, t_node)
                    matrix.set(s_node, t_node, min(1.0, wsim))
                    continue
                ssim = self._structural_similarity(
                    s_leaves, t_leaves, leaf_wsim
                )
                wsim = config.w_struct * ssim + (1 - config.w_struct) * lsim(
                    s_node, t_node
                )
                matrix.set(s_node, t_node, min(1.0, wsim))
                self._propagate(wsim, s_leaves, t_leaves, leaf_ssim)

        # Mapping generation reads post-propagation leaf similarities
        # (the inner-pair walk above has been mutating leaf_ssim), so
        # refresh every leaf pair's final wsim.
        for s_leaf in ctx.leaves(source.root):
            for t_leaf in ctx.leaves(target.root):
                matrix.set(s_leaf, t_leaf, min(1.0, leaf_wsim(s_leaf, t_leaf)))
        ctx.stats.count("cupid.pairs", len(matrix))
        return matrix

    # ------------------------------------------------------------------

    def _structural_similarity(self, s_leaves, t_leaves, leaf_wsim):
        """Fraction of leaves on both sides with a strong link across."""
        if not s_leaves or not t_leaves:
            return 0.0
        th_accept = self.config.th_accept
        linked_s = 0
        linked_t_ids = set()
        for s_leaf in s_leaves:
            strongly_linked = False
            for t_leaf in t_leaves:
                if leaf_wsim(s_leaf, t_leaf) > th_accept:
                    strongly_linked = True
                    linked_t_ids.add(id(t_leaf))
            if strongly_linked:
                linked_s += 1
        return (linked_s + len(linked_t_ids)) / (len(s_leaves) + len(t_leaves))

    def _propagate(self, wsim, s_leaves, t_leaves, leaf_ssim):
        """Cupid's leaf-similarity increase / decrease."""
        config = self.config
        if wsim > config.th_high:
            factor = config.c_inc
        elif wsim < config.th_low:
            factor = config.c_dec
        else:
            return
        for s_leaf in s_leaves:
            for t_leaf in t_leaves:
                key = (id(s_leaf), id(t_leaf))
                leaf_ssim[key] = min(1.0, leaf_ssim[key] * factor)
