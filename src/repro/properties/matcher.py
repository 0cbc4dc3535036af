"""The property matcher (the QoM properties axis).

Implements Section 2.1's properties-axis rules:

- each property is compared individually;
- the axis is **exact** when every compared property matches exactly;
- **relaxed** when the consensus of the individual matches is relaxed --
  e.g. a differing ``order``, or a ``minOccurs``/``maxOccurs``/``type``
  generalization or specialization;
- **none** as soon as an individual property has no match at all.

Besides the classification, the matcher produces a numeric axis score
(QoM_P): a weighted mean of per-property scores where an exact property
contributes 1.0, a relaxed one its partial credit, a failed one 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from repro.matching.base import Matcher
from repro.matching.classes import MatchStrength, consensus
from repro.properties.types import type_similarity, type_strength
from repro.xsd.model import UNBOUNDED, SchemaNode

#: Default per-property weights.  ``type`` dominates (it is the one
#: property matchers traditionally trust most); the remaining weight is
#: split over occurrence constraints, sibling order and node kind.
DEFAULT_PROPERTY_WEIGHTS = MappingProxyType({
    "type": 0.45,
    "order": 0.15,
    "min_occurs": 0.15,
    "max_occurs": 0.15,
    "kind": 0.10,
})


@dataclass(frozen=True)
class PropertyConfig:
    """Knobs of the property matcher.

    ``relaxed_credit`` is the numeric score a relaxed property match
    contributes; ``compare_order`` may be disabled for matchers that do
    not trust sibling order (order is the piece of XML-specific
    information the paper highlights, so it defaults to on).
    """

    weights: MappingProxyType = field(
        default_factory=lambda: DEFAULT_PROPERTY_WEIGHTS
    )
    relaxed_credit: float = 0.5
    compare_order: bool = True


@dataclass(frozen=True)
class PropertyComparison:
    """Outcome of comparing two property sets.

    ``per_property`` maps each compared property name to its
    :class:`MatchStrength`; ``strength`` is their consensus, ``score``
    the weighted numeric QoM_P.
    """

    score: float
    strength: MatchStrength
    per_property: dict = field(default_factory=dict)

    @property
    def is_exact(self):
        return self.strength is MatchStrength.EXACT


class PropertyMatcher:
    """Compares the property sets of two schema nodes.

    Each property is compared on its own, so a comparison reads only the
    two type names and four equality bits (order, minOccurs, maxOccurs,
    kind).  Results are cached on exactly that factored key rather than
    on the pair of full signatures: sibling ``order`` makes nearly every
    signature unique, but only whether two orders are *equal* matters.
    """

    def __init__(self, config=None):
        self.config = config or PropertyConfig()
        # (source type, target type, order ==, min_occurs ==,
        #  max_occurs ==, kind is) -> PropertyComparison.
        self._cache: dict = {}
        # (type strength, type similarity) per type-name pair.
        self._type_cache: dict = {}
        # The compared properties in scoring order, their weights and
        # the weight total -- fixed by the config, so summed once here
        # (in the same order the per-comparison sum used).
        self._compared = (
            ("type", "order", "min_occurs", "max_occurs", "kind")
            if self.config.compare_order
            else ("type", "min_occurs", "max_occurs", "kind")
        )
        weights = self.config.weights
        self._weights = tuple(weights.get(name, 0.0) for name in self._compared)
        self._total_weight = sum(self._weights)
        if self._total_weight <= 0:
            raise ValueError("property weights sum to zero for compared properties")

    def resident_entries(self) -> int:
        """Entries in the comparison and type memos."""
        return len(self._cache) + len(self._type_cache)

    @staticmethod
    def signature(node: SchemaNode):
        """The node's property tuple; equal signatures compare equal."""
        properties = node.properties
        return (
            properties.get("type"), properties.get("order"),
            properties.get("min_occurs", 1), properties.get("max_occurs", 1),
            node.kind,
        )

    # Backwards-compatible alias (pre-engine name).
    _signature = signature

    def compare(self, source: SchemaNode, target: SchemaNode) -> PropertyComparison:
        """Compare ``source`` and ``target`` along the properties axis."""
        left, right = source.properties, target.properties
        key = (
            left.get("type"), right.get("type"),
            left.get("order") == right.get("order"),
            left.get("min_occurs", 1) == right.get("min_occurs", 1),
            left.get("max_occurs", 1) == right.get("max_occurs", 1),
            source.kind is target.kind,
        )
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compare_uncached(source, target)
            self._cache[key] = cached
        return cached

    def _compare_uncached(self, source, target) -> PropertyComparison:
        relaxed_credit = self.config.relaxed_credit
        type_key = (source.type_name, target.type_name)
        type_outcome = self._type_cache.get(type_key)
        if type_outcome is None:
            type_outcome = self._type_cache[type_key] = (
                type_strength(*type_key), type_similarity(*type_key)
            )

        outcomes = {"type": type_outcome[0]}
        scores = [type_outcome[1]]
        if self.config.compare_order:
            outcomes["order"] = self._order_strength(source, target)
        outcomes["min_occurs"] = self._occurs_strength(
            source.min_occurs, target.min_occurs
        )
        outcomes["max_occurs"] = self._occurs_strength(
            source.max_occurs, target.max_occurs
        )
        outcomes["kind"] = (
            MatchStrength.EXACT if source.kind is target.kind
            else MatchStrength.RELAXED
        )
        for name in self._compared[1:]:
            scores.append(_strength_score(outcomes[name], relaxed_credit))

        score = sum(
            weight * value for weight, value in zip(self._weights, scores)
        ) / self._total_weight
        return PropertyComparison(
            score=score,
            strength=consensus(outcomes.values()),
            per_property=outcomes,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _order_strength(source, target) -> MatchStrength:
        """Sibling order: exact when equal, relaxed otherwise (paper rule).

        Roots (order ``None``) compare exact against roots, relaxed
        against positioned nodes.
        """
        if source.order == target.order:
            return MatchStrength.EXACT
        return MatchStrength.RELAXED

    @staticmethod
    def _occurs_strength(source_value, target_value) -> MatchStrength:
        """Occurrence constraint: exact when equal, relaxed otherwise.

        Any two occurrence values relate by generalization (the smaller
        ``minOccurs`` / the larger ``maxOccurs`` is the generalization --
        the paper's ``minOccurs=0`` generalizes ``minOccurs=1`` example),
        so a differing value is a relaxed match, never a failed one.
        """
        if source_value == target_value:
            return MatchStrength.EXACT
        return MatchStrength.RELAXED


def _strength_score(strength, relaxed_credit) -> float:
    if strength is MatchStrength.EXACT:
        return 1.0
    if strength is MatchStrength.RELAXED:
        return relaxed_credit
    return 0.0


class PropertiesMatcher(Matcher):
    """Single-axis matcher: the properties axis as a standalone algorithm.

    Scores every node pair by :class:`PropertyMatcher.compare` alone --
    weak on its own (like every single-evidence matcher) but a useful
    registry citizen for composites and ablations, and the natural
    "properties" family entry of the engine's matcher registry.
    """

    name = "properties"

    def __init__(self, property_matcher=None, config=None):
        self.property_matcher = property_matcher or PropertyMatcher(config=config)

    def resident_entries(self) -> int:
        return self.property_matcher.resident_entries()

    def match_context(self, ctx):
        from repro.matching.result import ScoreMatrix

        matrix = ScoreMatrix(ctx.source, ctx.target)
        t_nodes = ctx.target_preorder
        for s_node in ctx.source_preorder:
            for t_node in t_nodes:
                matrix.set(
                    s_node, t_node,
                    ctx.property_comparison(s_node, t_node).score,
                )
        ctx.stats.count("properties.pairs", len(matrix))
        return matrix


def occurs_range_overlaps(min_a, max_a, min_b, max_b) -> bool:
    """Whether two occurrence ranges overlap (``UNBOUNDED`` = infinity).

    Utility used by tests and the structural matcher's leaf comparison.
    """
    upper_a = float("inf") if max_a == UNBOUNDED else max_a
    upper_b = float("inf") if max_b == UNBOUNDED else max_b
    return min_a <= upper_b and min_b <= upper_a
