"""The QMatch hybrid algorithm (paper Section 4, Figure 3).

QMatch computes a quality-of-match (QoM) value for every (source node,
target node) pair by combining four axes::

    QoM(s, t) = WL*QoM_L + WP*QoM_P + WH*QoM_H + WC*QoM_C

- ``QoM_L`` comes from the linguistic matcher (the label axis);
- ``QoM_P`` from the property matcher (type, order, occurrences, kind);
- ``QoM_H`` is 1 when the nodes sit at the same nesting level, else 0;
- ``QoM_C`` is the children axis: ``(Rw + Rs) / 2`` where ``Rw`` is the
  normalized sum of the above-threshold child-pair QoMs and ``Rs`` the
  fraction of source children with a match (Eqs. 3-5).

An optional fifth term, ``WI*QoM_I``, mixes in **instance evidence**
(value profiles attached by :mod:`repro.ingest.profile`) when the
configured ``instance`` weight is nonzero; at the default weight of
zero the model is exactly the paper's and the axis is never evaluated.

The paper's Figure 3 presents this as a recursion from the roots; here
it is computed as an equivalent bottom-up dynamic program over the
postorder x postorder pair grid, so *every* subtree pair gets a QoM (the
paper's tree-match step "match the sub-tree rooted at PurchaseInfo with
all sub-trees in the Purchase Order schema" falls out for free) and the
total cost is the O(n*m) the paper claims.

Only interior x interior pairs need the recursion: Eq. 2 fixes the
children axis at 1.0 for leaf x leaf pairs and footnote 1 zeroes its
weight for leaf x interior pairs.  An untraced run therefore scores
every pair as numpy blocks gathered from the context's label and
property grids and walks only the interior pairs in Python; traced runs,
``explain`` and incremental re-matching take the scalar per-pair path,
which stays the reference.  Both paths add the axes in one expression,
:func:`_combine`, so their floats are identical.

Alongside the numeric matrix, the matcher classifies every pair with the
Section 2 taxonomy (leaf-exact ... partial-relaxed), which is reported
per correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import Optional

import numpy as np

from repro.core.config import QMatchConfig
from repro.core.taxonomy import (
    CoverageLevel,
    MatchCategory,
    classify_leaf,
    classify_subtree,
)
from repro.linguistic.matcher import LabelComparison, LinguisticMatcher
from repro.matching.base import Matcher
from repro.matching.classes import MatchStrength
from repro.matching.result import CATEGORY_CODES, SCORE_NOISE, ScoreMatrix, checked_score
from repro.properties.matcher import PropertyMatcher
from repro.xsd.model import SchemaTree


@dataclass(frozen=True)
class AxisBreakdown:
    """Per-axis detail of one pair's QoM -- what ``explain`` returns."""

    source_path: str
    target_path: str
    qom: float
    category: MatchCategory
    label_score: float
    label_strength: MatchStrength
    label_mechanism: str
    properties_score: float
    properties_strength: MatchStrength
    level_score: float
    children_score: float
    coverage: CoverageLevel
    matched_children: int
    total_children: int
    #: Instance-axis (value-profile) similarity; ``None`` when the
    #: configured ``instance`` weight is zero and the axis never ran.
    instance_score: Optional[float] = None

    def __str__(self):
        lines = [
            f"{self.source_path} <-> {self.target_path}",
            f"  QoM      : {self.qom:.4f}  [{self.category}]",
            f"  label    : {self.label_score:.3f} ({self.label_strength}, "
            f"{self.label_mechanism})",
            f"  props    : {self.properties_score:.3f} ({self.properties_strength})",
            f"  level    : {self.level_score:.1f}",
            f"  children : {self.children_score:.3f} ({self.coverage}, "
            f"{self.matched_children}/{self.total_children} matched)",
        ]
        if self.instance_score is not None:
            lines.append(f"  instance : {self.instance_score:.3f}")
        return "\n".join(lines)


class QMatchMatcher(Matcher):
    """The hybrid QMatch algorithm."""

    name = "qmatch"
    #: QMatch is a tree algorithm: correspondence extraction uses the
    #: parent-context-aware strategy by default.
    default_strategy = "hierarchical"

    def __init__(self, config=None, linguistic=None, property_matcher=None,
                 thesaurus=None):
        """Create a QMatch instance.

        ``linguistic`` / ``property_matcher`` default to fresh instances;
        ``thesaurus`` is a convenience forwarded to the default
        linguistic matcher (ignored when ``linguistic`` is given).
        """
        self.config = config or QMatchConfig()
        self.linguistic = linguistic or LinguisticMatcher(thesaurus=thesaurus)
        self.property_matcher = property_matcher or PropertyMatcher()

    # ------------------------------------------------------------------
    # Matcher protocol
    # ------------------------------------------------------------------

    def config_signature(self) -> dict:
        """Expose every score-shaping knob of :class:`QMatchConfig`."""
        config = self.config
        return {
            "algorithm": self.name,
            "weights": config.weights.as_tuple(),
            "child_threshold": config.threshold,
            "children_aggregation": config.children_aggregation,
            "leaf_level_mode": config.leaf_level_mode,
            "structural_child_gate": config.structural_child_gate,
            "use_documentation": config.use_documentation,
            "documentation_discount": config.documentation_discount,
        }

    def match_context(self, ctx) -> ScoreMatrix:
        """Score the full postorder x postorder pair grid.

        Pairs are addressed by postorder index into the context's
        interned :class:`~repro.engine.context.SideTable` arrays; the
        QoMs and category codes land in flat row-major lists (which is
        where the children axis reads them back), and the postorder
        :class:`ScoreMatrix` takes them over as its grids.

        A traced run scores pair by pair (:meth:`_score_row`); an
        untraced one by :meth:`_score_blocks`, with the same floats and
        categories.
        """
        source, target = ctx.source_table, ctx.target_table
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.begin_run(
                algorithm=self.name,
                source=ctx.source.name,
                target=ctx.target.name,
                weights=self.config.weights.as_dict(),
                threshold=self.config.threshold,
                config=self.config_signature(),
            )
            grid = [0.0] * (len(source) * len(target))
            categories = [-1] * len(grid) if self.config.record_categories else None
            for s_index in range(len(source)):
                self._score_row(s_index, grid, categories, ctx)
        else:
            grid, categories = self._score_blocks(ctx)
        matrix = ScoreMatrix(ctx.source, ctx.target, "postorder", grid,
                             categories)
        stats = ctx.stats
        stats.count("qmatch.pairs", len(matrix))
        recursive = (source.leaves.count(False)
                     * target.leaves.count(False))
        stats.count("qmatch.pairs.block",
                    len(source) * len(target) - recursive)
        stats.count("qmatch.pairs.recursive", recursive)
        return matrix

    def _score_row(self, s_index, grid, categories, ctx):
        """Score source node ``s_index`` against every target node,
        writing clamped QoMs (and category codes) into its grid row."""
        target = ctx.target_table
        width = len(target)
        row = s_index * width
        s_path = ctx.source_table.paths[s_index]
        tracer = ctx.tracer
        for t_index in range(width):
            # Zero-cost when disabled: this is the single per-pair
            # trace branch the observability layer is allowed.
            if tracer.enabled:
                qom, category = self._traced_pair(
                    s_index, t_index, grid, categories, ctx, tracer
                )
            else:
                qom, category = self._pair_qom(
                    s_index, t_index, grid, categories, ctx
                )
            grid[row + t_index] = checked_score(
                qom, s_path, target.paths[t_index]
            )
            if categories is not None:
                categories[row + t_index] = CATEGORY_CODES[category._value_]

    def _score_blocks(self, ctx):
        """Score every pair of an untraced run; returns the
        row-major QoM grid and category code grid (``None`` when
        categories are not recorded) as lists.

        Leaf x leaf and leaf x interior pairs need no recursion, so
        their QoMs come from one :func:`_combine` over n x m arrays
        gathered from the context's label and property grids, and their
        categories from :data:`_BLOCK_CATEGORY`.  The interior x interior
        pairs are then walked in row-major order (children first, as in
        postorder) through :meth:`_children_axis`, which reads the child
        gate as a precomputed grid.
        """
        config = self.config
        weights = config.weights
        source, target = ctx.source_table, ctx.target_table
        width = len(target)
        names, name_codes = ctx.node_label_grids()
        props, prop_codes = ctx.node_property_grids()
        labels, label_codes = names, name_codes
        if config.use_documentation:
            labels, label_codes = self._documented_grids(ctx, names,
                                                         name_codes)
        s_leaves = np.array(source.leaves)[:, None]
        t_leaves = np.array(target.leaves)
        leaf_pairs = s_leaves & t_leaves
        mixed_pairs = s_leaves != t_leaves
        same_level = (np.array(source.levels)[:, None]
                      == np.array(target.levels))
        level = same_level.astype(np.float64)
        effective_level = (
            np.where(leaf_pairs, 1.0, level)
            if config.leaf_level_mode == "constant" else level
        )
        instance = None
        if weights.uses_instance:
            score_instance = ctx.instance_score
            instance = np.array([
                score_instance(s_node, t_node)
                for s_node in source.nodes for t_node in target.nodes
            ]).reshape(names.shape)
        # Eq. 2: leaf pairs take the children axis at 1.0; footnote 1:
        # mixed pairs give it no weight.  Interior pairs are rescored
        # below.
        qom = _combine(
            weights, labels, props, effective_level,
            np.where(leaf_pairs, weights.children, 0.0),
            leaf_pairs.astype(np.float64), instance,
        ).ravel()
        interior = ~(leaf_pairs | mixed_pairs).ravel()
        out_of_range = np.flatnonzero(
            ~((qom >= -SCORE_NOISE) & (qom <= 1 + SCORE_NOISE)) & ~interior
        )
        # The scalar loop raises at the first bad pair in row-major
        # order: interior pairs before it are still scored (and may
        # raise first), those after it are not.
        first_bad = out_of_range[0] if out_of_range.size else qom.size
        # checked_score's clamp: max(0.0, q), then min(1.0, q).
        clamped = np.where(qom > 0.0, qom, 0.0)
        grid = np.where(clamped < 1.0, clamped, 1.0).tolist()
        categories = None
        if config.record_categories:
            categories = _BLOCK_CATEGORY[
                mixed_pairs.astype(np.intp), label_codes, prop_codes,
                same_level.astype(np.intp),
            ].ravel().tolist()
        gate = ((name_codes != MatchStrength.NONE.value)
                | (props >= config.structural_child_gate)).ravel().tolist()
        pairs = np.flatnonzero(interior)
        pairs = pairs[pairs < first_bad]
        interior_pairs = zip(
            pairs.tolist(), labels.ravel()[pairs].tolist(),
            props.ravel()[pairs].tolist(), level.ravel()[pairs].tolist(),
            label_codes.ravel()[pairs].tolist(),
            prop_codes.ravel()[pairs].tolist(),
            repeat(None) if instance is None
            else instance.ravel()[pairs].tolist(),
        )
        for (index, label, prop, level_score, label_code, prop_code,
             instance_score) in interior_pairs:
            s_index, t_index = divmod(index, width)
            children_score, coverage, _, children_strength = (
                self._children_axis(s_index, t_index, grid, categories,
                                    gate, ctx)
            )
            grid[index] = checked_score(
                _combine(weights, label, prop, level_score,
                         weights.children, children_score, instance_score),
                source.paths[s_index], target.paths[t_index],
            )
            if categories is not None:
                categories[index] = CATEGORY_CODES[classify_subtree(
                    _STRENGTHS[label_code], _STRENGTHS[prop_code],
                    MatchStrength.EXACT if level_score
                    else MatchStrength.NONE,
                    coverage, children_strength,
                )._value_]
        if first_bad < qom.size:
            s_index, t_index = divmod(int(first_bad), width)
            checked_score(float(qom[first_bad]), source.paths[s_index],
                          target.paths[t_index])
        return grid, categories

    def _documented_grids(self, ctx, names, name_codes):
        """Copies of the name grids with documentation evidence folded
        in, one :meth:`_label_evidence` per pair of documented nodes."""
        labels, codes = names.copy(), name_codes.copy()
        source, target = ctx.source_table, ctx.target_table
        documented = [
            t_index for t_index, node in enumerate(target.nodes)
            if node.properties.get("documentation")
        ]
        for s_index, node in enumerate(source.nodes):
            if not node.properties.get("documentation"):
                continue
            for t_index in documented:
                label = self._label_evidence(
                    ctx.stored_label(s_index, t_index), s_index, t_index,
                    ctx,
                )
                labels[s_index, t_index] = label.score
                codes[s_index, t_index] = label.strength.value
        return labels, codes

    def _traced_pair(self, s_index, t_index, grid, categories, ctx, tracer):
        """Score one pair with full span recording (the traced path).

        Cache provenance is probed *before* the comparisons run (a
        memoized lookup afterwards would always report a hit).
        """
        weights = self.config.weights
        uses_instance = weights.uses_instance
        source, target = ctx.source_table, ctx.target_table
        label_cache = (
            "hit" if ctx.node_label_cached(s_index, t_index) else "miss"
        )
        property_cache = (
            "hit" if ctx.node_properties_cached(s_index, t_index) else "miss"
        )
        if uses_instance:
            instance_cache = (
                "hit" if ctx.instance_cached(source.nodes[s_index],
                                             target.nodes[t_index])
                else "miss"
            )
        detail: dict = {}
        qom, category = self._pair_qom(
            s_index, t_index, grid, categories, ctx, trace_out=detail
        )
        label = detail["label"]
        props = detail["properties"]
        level_score = detail["level_score"]
        children_score = detail["children_score"]
        children_weight = detail["children_weight"]
        axes = {
            "label": {
                "score": label.score,
                "weight": weights.label,
                "contribution": weights.label * label.score,
                "strength": str(label.strength),
                "mechanism": label.mechanism,
                "cache": label_cache,
            },
            "properties": {
                "score": props.score,
                "weight": weights.properties,
                "contribution": weights.properties * props.score,
                "strength": str(props.strength),
                "cache": property_cache,
            },
            "level": {
                "score": level_score,
                "weight": weights.level,
                "contribution": weights.level * level_score,
            },
            "children": {
                "score": children_score,
                "weight": children_weight,
                "contribution": children_weight * children_score,
                "coverage": str(detail["coverage"]),
                "matched": detail["matched_children"],
                "total": detail["total_children"],
            },
        }
        if uses_instance:
            # Only present at nonzero instance weight, so four-axis
            # traces stay byte-identical to the pre-instance format.
            instance_score = detail["instance_score"]
            axes["instance"] = {
                "score": instance_score,
                "weight": weights.instance,
                "contribution": weights.instance * instance_score,
                "cache": instance_cache,
            }
        children_spans = []
        for s_child, t_child in detail["matched_pairs"]:
            span_id = tracer.span_id(source.paths[s_child],
                                     target.paths[t_child])
            if span_id is not None:
                children_spans.append(span_id)
        threshold = self.config.threshold
        tracer.record_pair(
            source.paths[s_index], target.paths[t_index],
            qom=qom,
            category=str(category),
            threshold=threshold,
            accepted=qom >= threshold,
            axes=axes,
            children_spans=children_spans,
        )
        return qom, category

    # ------------------------------------------------------------------
    # The QoM model
    # ------------------------------------------------------------------

    def _pair_qom(self, s_index: int, t_index: int, grid, categories, ctx,
                  trace_out: Optional[dict] = None):
        """QoM and taxonomy category of one pair, by postorder index.

        The one scoring implementation: the untraced and traced loops,
        :meth:`explain` and incremental re-matching all call it.
        ``grid`` (row-major, ``len(ctx.target_table)`` wide) must hold
        the clamped QoM of every child pair already, which postorder
        iteration guarantees; ``categories`` is the parallel grid of
        :class:`MatchCategory` codes, or ``None`` when categories are
        not recorded.  ``trace_out`` (only passed on the traced path)
        receives the per-axis evidence the span recorder serializes;
        the numeric result is identical with or without it.
        """
        source, target = ctx.source_table, ctx.target_table
        weights = self.config.weights
        label = self._label_evidence(ctx.node_label(s_index, t_index),
                                     s_index, t_index, ctx)
        props = ctx.node_properties(s_index, t_index)
        level_strength = (
            MatchStrength.EXACT
            if source.levels[s_index] == target.levels[t_index]
            else MatchStrength.NONE
        )
        level_score = 1.0 if level_strength is MatchStrength.EXACT else 0.0
        matched_pairs = [] if trace_out is not None else None
        s_leaf = source.leaves[s_index]

        if s_leaf and target.leaves[t_index]:
            if self.config.leaf_level_mode == "constant":
                # Eq. 2: children and level exact by default for leaves.
                effective_level = 1.0
            else:
                effective_level = level_score
            children_score, children_weight = 1.0, weights.children
            coverage, matched, total = CoverageLevel.TOTAL, 0, 0
            category = classify_leaf(label.strength, props.strength)
        elif s_leaf != target.leaves[t_index]:
            # Leaf vs interior: no children-axis credit (footnote 1 of
            # the paper -- comparable by altering the level axis).
            effective_level = level_score
            children_score, children_weight = 0.0, 0.0
            coverage, matched = CoverageLevel.NONE, 0
            total = len(source.children[s_index])
            category = classify_subtree(
                label.strength, props.strength, level_strength,
                CoverageLevel.NONE, MatchStrength.NONE,
            )
        else:
            effective_level = level_score
            children_score, coverage, matched, children_strength = (
                self._children_axis(
                    s_index, t_index, grid, categories,
                    _MemoGate(ctx, self.config.structural_child_gate), ctx,
                    matched_pairs=matched_pairs,
                )
            )
            children_weight = weights.children
            total = len(source.children[s_index])
            category = classify_subtree(
                label.strength, props.strength, level_strength,
                coverage, children_strength,
            )
        instance_score = None
        if weights.uses_instance:
            # The fifth axis only ever runs at nonzero weight: the
            # zero-weight model touches no profile, fills no memo and
            # adds not a single float to the sum.
            instance_score = ctx.instance_score(source.nodes[s_index],
                                                target.nodes[t_index])
        qom = _combine(weights, label.score, props.score, effective_level,
                       children_weight, children_score, instance_score)
        if trace_out is not None:
            trace_out.update(
                label=label,
                properties=props,
                level_score=effective_level,
                children_score=children_score,
                children_weight=children_weight,
                coverage=coverage,
                matched_children=matched,
                total_children=total,
                matched_pairs=matched_pairs,
                instance_score=instance_score,
            )
        return qom, category

    def _label_evidence(self, label, s_index, t_index, ctx):
        """Label-axis evidence: names, optionally backed by documentation.

        ``label`` is the comparison of the two nodes' names.  With
        ``use_documentation`` on and both nodes carrying
        ``xs:documentation`` text, the documentation's linguistic
        similarity (discounted) can lift a label axis the names alone
        would fail -- it never lowers the name-based score, and
        doc-mediated evidence is at best relaxed.
        """
        if not self.config.use_documentation:
            return label
        s_doc = ctx.source_table.nodes[s_index].properties.get(
            "documentation"
        )
        t_doc = ctx.target_table.nodes[t_index].properties.get(
            "documentation"
        )
        if not s_doc or not t_doc:
            return label
        doc = ctx.label_comparison(s_doc, t_doc)
        doc_score = doc.score * self.config.documentation_discount
        if doc_score <= label.score:
            return label
        strength = label.strength
        if strength is MatchStrength.NONE and doc.strength.is_match:
            strength = MatchStrength.RELAXED
        return LabelComparison(doc_score, strength, "documentation")

    def _children_axis(self, s_index, t_index, grid, categories, gate, ctx,
                       matched_pairs=None):
        """Eqs. 3-5: (QoM_C, coverage, matched count, children strength).

        Child QoMs and category codes are read from the ``grid`` /
        ``categories`` index grids, and whether a child pair may count
        at all from the ``gate`` index grid.  ``matched_pairs`` (traced
        path only) collects the ``(source index, target index)`` child
        pairs that counted toward the axis, so spans can link to their
        contributing child spans.

        A child pair only counts when it is a genuine match (the gate):
        its names' label axis matched at least relaxed, *or* its
        properties axis agrees near-perfectly (the
        ``structural_child_gate`` -- what keeps the Figure 7-9
        structurally-identical case strong).  Without any
        gate, Eq. 2's constant (WH + WC for every leaf pair) would push
        arbitrary unrelated leaves over any threshold <= 0.5 and the
        coverage measure would stop discriminating.

        In ``best_match`` mode the candidate set for a source child also
        includes the target node *itself*: the paper's tree-match
        walk-through matches ``PurchaseInfo`` (a child of ``PO``) against
        ``Purchase Order`` (the root), absorbing one level of nesting
        difference.
        """
        threshold = self.config.threshold
        source = ctx.source_table
        width = len(ctx.target_table)
        s_children = source.children[s_index]
        t_children = ctx.target_table.children[t_index]
        total = len(s_children)

        matched = 0
        qom_sum = 0.0
        children_all_exact = True

        if self.config.children_aggregation == "best_match":
            candidates = t_children + (t_index,)
            for s_child in s_children:
                row = s_child * width
                # Absorption (the target node itself as a candidate)
                # only makes sense for subtrees.
                absorb = not source.leaves[s_child]
                best_qom = 0.0
                best_target = None
                for t_child in candidates:
                    if t_child == t_index and not absorb:
                        continue
                    child_qom = grid[row + t_child]
                    if child_qom > best_qom and gate[row + t_child]:
                        best_qom = child_qom
                        best_target = t_child
                if best_qom >= threshold:
                    matched += 1
                    qom_sum += best_qom
                    if matched_pairs is not None and best_target is not None:
                        matched_pairs.append((s_child, best_target))
                    if categories is not None and best_target is not None:
                        if categories[row + best_target] not in EXACT_CODES:
                            children_all_exact = False
                    elif best_qom < 1.0:
                        children_all_exact = False
                else:
                    children_all_exact = False
        else:  # all_pairs -- the literal Figure 3 pseudo-code.
            matched_sources = set()
            for s_child in s_children:
                row = s_child * width
                for t_child in t_children:
                    child_qom = grid[row + t_child]
                    if child_qom >= threshold and gate[row + t_child]:
                        qom_sum += child_qom
                        if matched_pairs is not None:
                            matched_pairs.append((s_child, t_child))
                        matched_sources.add(s_child)
                        if child_qom < 1.0:
                            children_all_exact = False
            matched = len(matched_sources)
            if matched < total:
                children_all_exact = False

        subtree_weight = qom_sum / total  # Rw, Eq. 3
        cardinality_ratio = matched / total  # Rs, Eq. 4
        children_score = (subtree_weight + cardinality_ratio) / 2  # Eq. 5
        children_score = min(children_score, 1.0)

        if matched == total:
            coverage = CoverageLevel.TOTAL
        elif matched > 0:
            coverage = CoverageLevel.PARTIAL
        else:
            coverage = CoverageLevel.NONE
        children_strength = (
            MatchStrength.EXACT
            if matched and children_all_exact
            else (MatchStrength.RELAXED if matched else MatchStrength.NONE)
        )
        return children_score, coverage, matched, children_strength

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------

    def explain(self, source: SchemaTree, target: SchemaTree,
                source_path: str, target_path: str,
                matrix: Optional[ScoreMatrix] = None,
                context=None) -> AxisBreakdown:
        """Full per-axis breakdown for one pair.

        When ``matrix`` is omitted the matcher recomputes it (fine for
        paper-sized schemas; pass the matrix from a previous
        :meth:`match` for large ones).  Passing the ``context`` of that
        run as well reuses its memoized per-pair comparisons instead of
        rebuilding them -- the service layer does this when attaching
        axis evidence to every correspondence of a result.

        The breakdown comes from the same :meth:`_pair_qom` the pair
        loop runs, reading child QoMs and category codes straight from
        ``matrix``'s grids (which are in the context's postorder).
        """
        s_node = source.find(source_path)
        t_node = target.find(target_path)
        if s_node is None:
            raise KeyError(f"no node {source_path!r} in source schema")
        if t_node is None:
            raise KeyError(f"no node {target_path!r} in target schema")
        ctx = context if context is not None else self.make_context(source, target)
        if matrix is None:
            matrix = self.match_context(ctx)
        source_table, target_table = ctx.source_table, ctx.target_table
        if (matrix.source_paths, matrix.target_paths) != (
                source_table.paths, target_table.paths):
            raise ValueError("explain needs a QMatch matrix of these schemas")
        s_index = source_table.index[id(s_node)]
        t_index = target_table.index[id(t_node)]
        codes = matrix.category_codes
        detail: dict = {}
        _, computed_category = self._pair_qom(
            s_index, t_index, matrix.scores.ravel(),
            None if codes is None else codes.ravel(), ctx, trace_out=detail,
        )
        categories = matrix.categories
        category_value = (None if categories is None
                          else categories.get((s_node.path, t_node.path)))
        label = detail["label"]
        props = detail["properties"]
        return AxisBreakdown(
            source_path=s_node.path,
            target_path=t_node.path,
            qom=matrix.get(s_node, t_node),
            category=(
                MatchCategory(category_value) if category_value is not None
                else computed_category
            ),
            label_score=label.score,
            label_strength=label.strength,
            label_mechanism=label.mechanism,
            properties_score=props.score,
            properties_strength=props.strength,
            level_score=detail["level_score"],
            children_score=float(detail["children_score"]),
            coverage=detail["coverage"],
            matched_children=detail["matched_children"],
            total_children=detail["total_children"],
            instance_score=detail["instance_score"],
        )


#: Codes of the categories that count as an exact child match (see
#: :attr:`MatchCategory.is_exact`); a matrix's int8 codes match them too.
EXACT_CODES = frozenset(CATEGORY_CODES[c.value] for c in MatchCategory if c.is_exact)


def _combine(weights, label, properties, level, children_weight, children,
             instance=None):
    """The QoM sum ``WL*L + WP*P + WH*H + WC*C`` (``+ WI*I`` when the
    instance axis runs), added left to right.

    The one formula for every pair shape -- the leaf case fixes the
    children axis at 1.0, the mixed case zeroes its weight -- and for
    both paths: the arguments are floats for one pair or numpy arrays
    for a block, and numpy's elementwise float64 operations round
    exactly like Python's, so the two give the same bits.
    """
    qom = (
        weights.label * label
        + weights.properties * properties
        + weights.level * level
        + children_weight * children
    )
    if instance is not None:
        qom = qom + weights.instance * instance
    return qom


#: ``MatchStrength`` by code (its value), as the context's grids hold it.
_STRENGTHS = tuple(MatchStrength(code) for code in range(len(MatchStrength)))

def _block_category_table():
    """The code of a block pair's category, by (leaf x interior?, label
    code, property code, same level?), from ``classify_leaf`` /
    ``classify_subtree`` -- so the taxonomy keeps one implementation."""
    codes = range(len(_STRENGTHS))
    table = np.empty((2, len(codes), len(codes), 2), dtype=np.intp)
    for mixed, label, properties, level in product((0, 1), codes, codes,
                                                   (0, 1)):
        label_strength = _STRENGTHS[label]
        properties_strength = _STRENGTHS[properties]
        category = (
            classify_subtree(
                label_strength, properties_strength,
                MatchStrength.EXACT if level else MatchStrength.NONE,
                CoverageLevel.NONE, MatchStrength.NONE,
            ) if mixed
            else classify_leaf(label_strength, properties_strength)
        )
        table[mixed, label, properties, level] = CATEGORY_CODES[category.value]
    return table


#: The block pairs' category code table (built once, at import).
_BLOCK_CATEGORY = _block_category_table()


class _MemoGate:
    """The child gate as a row-major index view over the context's
    counted memos: the scalar path's form of the gate grid
    :meth:`QMatchMatcher._score_blocks` precomputes."""

    __slots__ = ("ctx", "threshold", "width")

    def __init__(self, ctx, threshold):
        self.ctx = ctx
        self.threshold = threshold
        self.width = len(ctx.target_table)

    def __getitem__(self, index):
        s_index, t_index = divmod(index, self.width)
        ctx = self.ctx
        if ctx.node_label(s_index, t_index).strength is not (
            MatchStrength.NONE
        ):
            return True
        return ctx.node_properties(s_index, t_index).score >= self.threshold

