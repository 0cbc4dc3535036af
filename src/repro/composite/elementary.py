"""Elementary matchers in COMA's style.

Each uses a single kind of evidence; alone they are weak, but the
composite combiner turns a set of them into a competitive matcher --
which is COMA's whole point.
"""

from __future__ import annotations

from repro.linguistic.matcher import LinguisticMatcher
from repro.matching.base import Matcher
from repro.matching.result import ScoreMatrix
from repro.properties.types import type_similarity


class NameMatcher(Matcher):
    """COMA's ``Name``: label similarity only (one token-aware compare
    per pair; the thesaurus-backed comparison the library already has)."""

    name = "name"

    def __init__(self, linguistic=None):
        self.linguistic = linguistic or LinguisticMatcher()

    def match_context(self, ctx) -> ScoreMatrix:
        matrix = ScoreMatrix(ctx.source, ctx.target)
        t_nodes = ctx.target_preorder
        for s_node in ctx.source_preorder:
            for t_node in t_nodes:
                matrix.set(
                    s_node, t_node,
                    ctx.label_score(s_node.name, t_node.name),
                )
        return matrix


class NamePathMatcher(Matcher):
    """COMA's ``NamePath``: similarity of the full root-to-node label
    paths.

    Two nodes named alike but living in different contexts
    (``authors/name`` vs ``journal/name``) diverge here because their
    ancestor labels enter the comparison.  Paths are compared as
    space-joined pseudo-labels through the linguistic matcher, so all
    tokenization / thesaurus machinery applies.
    """

    name = "name-path"

    def __init__(self, linguistic=None):
        self.linguistic = linguistic or LinguisticMatcher()

    def match_context(self, ctx) -> ScoreMatrix:
        matrix = ScoreMatrix(ctx.source, ctx.target)
        t_nodes = ctx.target_preorder
        for s_node in ctx.source_preorder:
            s_path_label = s_node.path.replace("/", " ")
            for t_node in t_nodes:
                t_path_label = t_node.path.replace("/", " ")
                matrix.set(
                    s_node, t_node,
                    ctx.label_score(s_path_label, t_path_label),
                )
        return matrix


class TypeMatcher(Matcher):
    """COMA's ``Type``: data-type compatibility via the XSD lattice.

    Inner nodes usually carry no simple type; their ``None`` types
    compare as exact against each other and as weakly compatible against
    typed leaves, which is the desired behaviour for a single-evidence
    matcher.
    """

    name = "type"

    def match_context(self, ctx) -> ScoreMatrix:
        matrix = ScoreMatrix(ctx.source, ctx.target)
        t_nodes = ctx.target_preorder
        for s_node in ctx.source_preorder:
            for t_node in t_nodes:
                matrix.set(
                    s_node, t_node,
                    type_similarity(s_node.type_name, t_node.type_name),
                )
        return matrix
