"""The shared per-pair match context.

A :class:`MatchContext` is built once per (source, target) schema pair
and handed to every matcher that scores the pair.  It owns:

- the **shared services**: one :class:`LinguisticMatcher` and one
  :class:`PropertyMatcher` instance used by every matcher running under
  the context, so tokenization, thesaurus lookups and property
  comparisons happen once per distinct input instead of once per
  matcher; the linguistic matcher's token lexicon is fetched once per
  context, so one match reads one token table throughout;
- the **per-node precomputation**: postorder/preorder node lists, leaf
  sets, depths, tokenized labels and property signatures -- everything
  the paper's O(n*m) bound assumes is not redone inside the hot loop;
- the **interned pair tables** (:class:`SideTable`, one per side): each
  side's postorder nodes as parallel arrays -- path, level, leaf flag,
  child indices -- plus an interned label id and property-signature id
  per node, so a pair loop addresses nodes by postorder index and never
  rebuilds a path string or a signature tuple;
- the **pairwise memo**: label comparisons keyed by unordered interned
  label-id pairs and property comparisons keyed by interned signature-id
  pairs (equal ids exactly when the label texts / signatures are equal),
  the label memo holding plain ``(score, strength code, mechanism)``
  values rather than comparison objects, with hit/miss accounting in
  :class:`EngineStats` (each memo counts on its :class:`CacheStats`
  record, bound on the memo's first lookup);
- the **node grids**: every node pair's name comparison and property
  comparison as n x m numpy arrays (score and strength code), gathered
  from dense tables over the distinct label ids and signature ids and
  filled through the same memos, so a block scorer never looks a pair
  up one at a time;
- the **instrumentation**: an :class:`EngineStats` collecting per-stage
  wall time, pair counts and cache counters for the whole run.

Matchers receive the context through
:meth:`repro.matching.base.Matcher.match_context`; a matcher run
standalone builds its own context (injecting its configured services via
:meth:`Matcher.make_context`), while a composite or harness run builds
one context and shares it across all constituent matchers.

The memos are always on: a memoized comparison is the one the service
returns for that input, which the tests check cell by cell against cold
service instances.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.stats import CacheStats, EngineStats
from repro.linguistic.lexicon import Lexicon
from repro.linguistic.matcher import LabelComparison, LinguisticMatcher
from repro.matching.classes import MatchStrength
from repro.obs.trace import NULL_TRACER
from repro.properties.matcher import PropertyComparison, PropertyMatcher
from repro.xsd.model import SchemaNode, SchemaTree

#: Names of the engine-level caches (as they appear in ``EngineStats``).
LABEL_CACHE = "context.labels"
PROPERTY_CACHE = "context.properties"
INSTANCE_CACHE = "context.instances"

#: Deterministic table-size counters: distinct node labels and distinct
#: property signatures over both sides, counted once per context.
LABEL_IDS_COUNTER = "context.label_ids"
SIGNATURE_IDS_COUNTER = "context.signature_ids"


class SideTable:
    """One schema side's postorder nodes as parallel arrays.

    Index ``i`` everywhere is the node's position in postorder, so a
    node's children always have smaller indices than the node itself.
    ``children[i]`` holds child indices in document order; ``index``
    maps ``id(node)`` back to its position.
    """

    __slots__ = ("nodes", "index", "paths", "levels", "leaves", "children",
                 "label_ids", "signature_ids")

    def __init__(self, nodes: list[SchemaNode], label_id, signature_id):
        self.nodes = nodes
        self.index = {id(node): i for i, node in enumerate(nodes)}
        paths: dict[int, str] = {}
        # Reversed postorder visits every parent before its children.
        for node in reversed(nodes):
            parent = node.parent
            paths[id(node)] = (
                node.name if parent is None
                else f"{paths[id(parent)]}/{node.name}"
            )
        self.paths = [paths[id(node)] for node in nodes]
        self.levels = [node.level for node in nodes]
        self.leaves = [not node.children for node in nodes]
        self.children = [
            tuple(self.index[id(child)] for child in node.children)
            for node in nodes
        ]
        self.label_ids = [label_id(node.name) for node in nodes]
        self.signature_ids = [signature_id(node) for node in nodes]

    def __len__(self):
        return len(self.nodes)


def _unordered(left: int, right: int) -> tuple:
    """The label memo's key of an id pair: comparison is symmetric, so
    ``(a, b)`` and ``(b, a)`` share one entry."""
    return (left, right) if left <= right else (right, left)


#: ``MatchStrength`` members by value, the label memo's strength codes.
_STRENGTHS = tuple(sorted(MatchStrength, key=lambda strength: strength.value))


def _memo_value(comparison: LabelComparison) -> tuple:
    """What the label memo stores of a comparison: a tuple of atomic
    values, which the cyclic collector stops tracking, so a memo of
    ~10^5-10^6 entries adds nothing to a full collection's walk."""
    return (comparison.score, comparison.strength._value_,
            comparison.mechanism)


def _memo_comparison(value: tuple) -> LabelComparison:
    """The comparison a label memo value stands for."""
    score, code, mechanism = value
    return LabelComparison(score, _STRENGTHS[code], mechanism)


def _distinct(ids):
    """``(position of each distinct id's first occurrence, each
    position's index among the distinct ids)``: the rows of a dense
    table over ``ids`` and the gather from it back to positions."""
    slot_of: dict[int, int] = {}
    firsts = []
    slots = []
    for position, key in enumerate(ids):
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(firsts)
            firsts.append(position)
        slots.append(slot)
    return firsts, np.array(slots, dtype=np.intp)


class MatchContext:
    """Precomputed, cached state for matching one (source, target) pair."""

    def __init__(
        self,
        source: SchemaTree,
        target: SchemaTree,
        linguistic: Optional[LinguisticMatcher] = None,
        property_matcher: Optional[PropertyMatcher] = None,
        stats: Optional[EngineStats] = None,
        tracer=None,
    ):
        self.source = source
        self.target = target
        self.linguistic = linguistic or LinguisticMatcher()
        self.property_matcher = property_matcher or PropertyMatcher()
        self.stats = stats if stats is not None else EngineStats()
        #: Decision-trace recorder (see :mod:`repro.obs.trace`).  The
        #: default :data:`NULL_TRACER` is falsy-``enabled``, so matchers
        #: pay exactly one branch per pair when tracing is off.
        self.tracer = tracer if tracer is not None else NULL_TRACER

        # Node-list precomputation is lazy: cheap matchers (tree-edit,
        # flooding) walk the trees themselves and never pay for it.
        self._source_postorder: Optional[list[SchemaNode]] = None
        self._target_postorder: Optional[list[SchemaNode]] = None
        self._source_preorder: Optional[list[SchemaNode]] = None
        self._target_preorder: Optional[list[SchemaNode]] = None
        self._leaf_lists: dict[int, list[SchemaNode]] = {}
        self._source_table: Optional[SideTable] = None
        self._target_table: Optional[SideTable] = None

        # Interning: every label text (node names, documentation) and
        # every property signature compared under this context gets one
        # small integer id; the memos are keyed by id pairs.
        self._label_ids: dict[str, int] = {}
        self._label_texts: list[str] = []
        self._signature_ids: dict[tuple, int] = {}

        # Pairwise memos.
        # Label values are ``(score, strength code, mechanism)``
        # (:func:`_memo_value`), read back as ``LabelComparison``.
        self._label_memo: dict[tuple[int, int], tuple] = {}
        self._property_memo: dict[tuple[int, int], PropertyComparison] = {}
        self._instance_memo: dict[tuple[int, int], float] = {}
        # Their hit/miss records in ``stats``, bound on each memo's first
        # lookup so caches appear in ``stats`` in first-use order.
        self._label_stats: Optional[CacheStats] = None
        self._property_stats: Optional[CacheStats] = None
        self._instance_stats: Optional[CacheStats] = None
        # The node grids, built once per context.
        self._label_grids: Optional[tuple] = None
        self._property_grids: Optional[tuple] = None
        self._lexicon: Optional[Lexicon] = None

    # ------------------------------------------------------------------
    # Per-node precomputed state
    # ------------------------------------------------------------------

    @property
    def source_postorder(self) -> list[SchemaNode]:
        """Source nodes, children before parents (computed once)."""
        if self._source_postorder is None:
            self._source_postorder = list(self.source.root.iter_postorder())
        return self._source_postorder

    @property
    def target_postorder(self) -> list[SchemaNode]:
        """Target nodes, children before parents (computed once)."""
        if self._target_postorder is None:
            self._target_postorder = list(self.target.root.iter_postorder())
        return self._target_postorder

    @property
    def source_preorder(self) -> list[SchemaNode]:
        if self._source_preorder is None:
            self._source_preorder = list(self.source.root.iter_preorder())
        return self._source_preorder

    @property
    def target_preorder(self) -> list[SchemaNode]:
        if self._target_preorder is None:
            self._target_preorder = list(self.target.root.iter_preorder())
        return self._target_preorder

    @property
    def pair_count(self) -> int:
        """Size of the full pair grid (``n * m``)."""
        return len(self.source_postorder) * len(self.target_postorder)

    @property
    def source_table(self) -> SideTable:
        """The source side's interned postorder arrays (built once)."""
        if self._source_table is None:
            self._build_tables()
        return self._source_table

    @property
    def target_table(self) -> SideTable:
        """The target side's interned postorder arrays (built once)."""
        if self._target_table is None:
            self._build_tables()
        return self._target_table

    def _build_tables(self):
        source = SideTable(self.source_postorder, self.label_id,
                           self.signature_id)
        target = SideTable(self.target_postorder, self.label_id,
                           self.signature_id)
        self._source_table, self._target_table = source, target
        self.stats.count(
            LABEL_IDS_COUNTER,
            len(set(source.label_ids) | set(target.label_ids)),
        )
        self.stats.count(
            SIGNATURE_IDS_COUNTER,
            len(set(source.signature_ids) | set(target.signature_ids)),
        )

    def label_id(self, text: str) -> int:
        """The interned id of a label text (assigned on first sight)."""
        label_id = self._label_ids.get(text)
        if label_id is None:
            label_id = self._label_ids[text] = len(self._label_texts)
            self._label_texts.append(text)
        return label_id

    def signature_id(self, node: SchemaNode) -> int:
        """The interned id of ``node``'s property signature."""
        signature = self.property_matcher.signature(node)
        signature_id = self._signature_ids.get(signature)
        if signature_id is None:
            signature_id = self._signature_ids[signature] = len(
                self._signature_ids
            )
        return signature_id

    def leaves(self, node: SchemaNode) -> list[SchemaNode]:
        """The leaf set of ``node``'s subtree, computed once per node."""
        cached = self._leaf_lists.get(id(node))
        if cached is None:
            cached = list(node.iter_leaves())
            self._leaf_lists[id(node)] = cached
        return cached

    @property
    def lexicon(self) -> Lexicon:
        """The linguistic matcher's token lexicon, fetched on first use
        and kept for the rest of the match."""
        lexicon = self._lexicon
        if lexicon is None:
            lexicon = self._lexicon = self.linguistic.lexicon()
        return lexicon

    # ------------------------------------------------------------------
    # Memoized pairwise scores
    # ------------------------------------------------------------------

    def label_comparison(self, left: str, right: str) -> LabelComparison:
        """Linguistic comparison of two labels, memoized per text pair.

        This is the single entry point for label evidence inside the
        engine: QMatch's label axis, Cupid's lsim, the linguistic
        baseline's matrix and documentation-text comparisons all route
        through here, so any label pair is analysed once per context no
        matter how many matchers ask.
        """
        return self.label_pair(self.label_id(left), self.label_id(right))

    def label_pair(self, left: int, right: int) -> LabelComparison:
        """:meth:`label_comparison` of two interned label ids."""
        return _memo_comparison(self._label_value(left, right))

    def _label_value(self, left: int, right: int) -> tuple:
        """The label memo's value of two interned label ids, compared
        on a miss and counted as a hit or a miss."""
        counts = self._label_stats
        if counts is None:
            counts = self._label_stats = self.stats.cache(LABEL_CACHE)
        # Label comparison is symmetric: one entry per unordered pair.
        key = (left, right) if left <= right else (right, left)
        cached = self._label_memo.get(key)
        if cached is None:
            counts.misses += 1
            texts = self._label_texts
            cached = self._label_memo[key] = _memo_value(
                self.linguistic.compare_labels(texts[left], texts[right],
                                               self.lexicon)
            )
        else:
            counts.hits += 1
        return cached

    def node_label(self, source_index: int,
                   target_index: int) -> LabelComparison:
        """Label comparison of two nodes' names, by postorder index."""
        return self.label_pair(
            self._source_table.label_ids[source_index],
            self._target_table.label_ids[target_index],
        )

    def label_score(self, left: str, right: str) -> float:
        return self._label_value(self.label_id(left),
                                 self.label_id(right))[0]

    def node_label_cached(self, source_index: int,
                          target_index: int) -> bool:
        """Whether the label memo already holds two nodes' names, by
        postorder index (trace provenance: checked *before* the
        comparison runs)."""
        return _unordered(
            self._source_table.label_ids[source_index],
            self._target_table.label_ids[target_index],
        ) in self._label_memo

    def node_properties_cached(self, source_index: int,
                               target_index: int) -> bool:
        """Whether the property memo already holds two nodes' signature
        pair, by postorder index."""
        return (
            self._source_table.signature_ids[source_index],
            self._target_table.signature_ids[target_index],
        ) in self._property_memo

    def property_comparison(
        self, source: SchemaNode, target: SchemaNode
    ) -> PropertyComparison:
        """Properties-axis comparison, memoized per signature pair.

        Two node pairs with identical (type, order, occurs, kind)
        signatures share one comparison -- schema vocabularies repeat
        these heavily, so the memo collapses the O(n*m) property work to
        the number of distinct signature pairs.
        """
        return self._property_pair(
            self.signature_id(source), self.signature_id(target),
            source, target,
        )

    def node_properties(self, source_index: int,
                        target_index: int) -> PropertyComparison:
        """:meth:`property_comparison` of two nodes, by postorder index."""
        source_table, target_table = self._source_table, self._target_table
        return self._property_pair(
            source_table.signature_ids[source_index],
            target_table.signature_ids[target_index],
            source_table.nodes[source_index],
            target_table.nodes[target_index],
        )

    def _property_pair(self, left: int, right: int, source: SchemaNode,
                       target: SchemaNode) -> PropertyComparison:
        counts = self._property_stats
        if counts is None:
            counts = self._property_stats = self.stats.cache(PROPERTY_CACHE)
        key = (left, right)
        cached = self._property_memo.get(key)
        if cached is None:
            counts.misses += 1
            cached = self.property_matcher.compare(source, target)
            self._property_memo[key] = cached
        else:
            counts.hits += 1
        return cached

    def stored_label(self, source_index: int,
                     target_index: int) -> LabelComparison:
        """The memo's comparison of two nodes' names, read without
        counting a lookup: for a caller whose pair was already counted
        by :meth:`node_label_grids`."""
        return _memo_comparison(self._label_memo[_unordered(
            self._source_table.label_ids[source_index],
            self._target_table.label_ids[target_index],
        )])

    # ------------------------------------------------------------------
    # Node grids: every pair at once
    # ------------------------------------------------------------------

    def node_label_grids(self):
        """Every node pair's name comparison as two n x m arrays over the
        postorder tables: float64 scores and ``MatchStrength`` codes.

        The grids gather a dense table over (distinct source label x
        distinct target label), filled one cell per label pair through
        the label memo: a cell already in the memo (in either order) is
        read, a new one is compared once and stored, so
        :meth:`label_pair` and the table read the same entries.  A node
        pair counts as a hit when its cell was already filled and as a
        miss when it fills it, so a fresh context's hits and misses add
        up to n * m.  The grids are kept for the context's lifetime; a
        second call counts n * m hits.
        """
        if self._label_grids is not None:
            self._label_stats.hits += self.pair_count
            return self._label_grids
        source, target = self.source_table, self.target_table
        counts = self._label_stats
        if counts is None:
            counts = self._label_stats = self.stats.cache(LABEL_CACHE)
        s_firsts, s_slots = _distinct(source.label_ids)
        t_firsts, t_slots = _distinct(target.label_ids)
        scores, codes, misses = self._label_table(
            [source.label_ids[i] for i in s_firsts],
            [target.label_ids[j] for j in t_firsts],
        )
        counts.misses += misses
        counts.hits += self.pair_count - misses
        self._label_grids = grids = (scores[s_slots[:, None], t_slots],
                                     codes[s_slots[:, None], t_slots])
        return grids

    def _label_table(self, left_ids, right_ids):
        """(scores, strength codes, memo misses) over ``left_ids`` x
        ``right_ids``, comparing each unordered pair once through the
        label memo."""
        compare = self.linguistic.compare_labels
        lexicon = self.lexicon
        texts = self._label_texts
        memo = self._label_memo
        scores, codes = [], []
        misses = 0
        for left in left_ids:
            left_text = texts[left]
            for right in right_ids:
                key = (left, right) if left <= right else (right, left)
                cached = memo.get(key)
                if cached is None:
                    misses += 1
                    cached = memo[key] = _memo_value(
                        compare(left_text, texts[right], lexicon)
                    )
                scores.append(cached[0])
                codes.append(cached[1])
        shape = (len(left_ids), len(right_ids))
        return (np.array(scores, dtype=np.float64).reshape(shape),
                np.array(codes, dtype=np.int8).reshape(shape), misses)

    def node_property_grids(self):
        """Every node pair's property comparison as two n x m arrays:
        float64 scores and ``MatchStrength`` codes.

        Filled like :meth:`node_label_grids`, from a dense table over
        (distinct source signature x distinct target signature) that
        compares each signature pair once through the property memo;
        hits and misses are counted per node pair the same way.
        """
        if self._property_grids is not None:
            self._property_stats.hits += self.pair_count
            return self._property_grids
        counts = self._property_stats
        if counts is None:
            counts = self._property_stats = self.stats.cache(PROPERTY_CACHE)
        source, target = self.source_table, self.target_table
        # Equal signatures compare equal, so a signature's first node
        # (the one a row-major walk compares first) stands for it.
        s_firsts, s_slots = _distinct(source.signature_ids)
        t_firsts, t_slots = _distinct(target.signature_ids)
        s_keys = [source.signature_ids[i] for i in s_firsts]
        t_keys = [target.signature_ids[j] for j in t_firsts]
        s_nodes = [source.nodes[i] for i in s_firsts]
        t_nodes = [target.nodes[j] for j in t_firsts]
        compare = self.property_matcher.compare
        memo = self._property_memo
        scores, codes = [], []
        misses = 0
        for left, left_node in zip(s_keys, s_nodes):
            for right, right_node in zip(t_keys, t_nodes):
                cached = memo.get((left, right))
                if cached is None:
                    misses += 1
                    cached = memo[(left, right)] = compare(left_node,
                                                           right_node)
                scores.append(cached.score)
                codes.append(cached.strength._value_)
        counts.misses += misses
        counts.hits += self.pair_count - misses
        shape = (len(s_keys), len(t_keys))
        scores = np.array(scores, dtype=np.float64).reshape(shape)
        codes = np.array(codes, dtype=np.int8).reshape(shape)
        self._property_grids = grids = (scores[s_slots[:, None], t_slots],
                                        codes[s_slots[:, None], t_slots])
        return grids

    def instance_cached(self, source: SchemaNode,
                        target: SchemaNode) -> bool:
        """Whether the instance memo already holds this node pair."""
        return (id(source), id(target)) in self._instance_memo

    def instance_score(self, source: SchemaNode,
                       target: SchemaNode) -> float:
        """Instance-axis (value-profile) similarity, memoized per node pair.

        Profiles are attached ahead of matching (see
        :func:`repro.ingest.profile.attach_profiles`); nodes without one
        score by the evidence rules of
        :func:`repro.ingest.profile.profile_similarity` (no evidence ->
        1.0, one-sided evidence -> 0.5).  Only ever invoked when the
        configured ``instance`` weight is nonzero, so four-axis runs pay
        nothing -- not even an empty memo lookup -- for the fifth axis.
        """
        from repro.ingest.profile import PROFILE_PROPERTY, profile_similarity

        counts = self._instance_stats
        if counts is None:
            counts = self._instance_stats = self.stats.cache(INSTANCE_CACHE)
        key = (id(source), id(target))
        cached = self._instance_memo.get(key)
        if cached is None:
            counts.misses += 1
            cached = profile_similarity(
                source.properties.get(PROFILE_PROPERTY),
                target.properties.get(PROFILE_PROPERTY),
            )
            self._instance_memo[key] = cached
        else:
            counts.hits += 1
        return cached

    # ------------------------------------------------------------------

    def __repr__(self):
        return (
            f"<MatchContext {self.source.name!r} x {self.target.name!r} "
            f"labels={len(self._label_memo)} props={len(self._property_memo)}>"
        )
