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
weight for leaf x interior pairs.  Every run therefore scores every pair
as numpy blocks gathered from the context's label and property grids
and walks only the interior pairs in Python.  Everything else reads the
grids that run holds: a traced run records its spans from them after
scoring, ``explain`` reads one pair's cell of them plus one children-axis
call, and incremental re-matching rescores its changed rows through the
same block fill.  The axes are added in one expression,
:func:`_combine`, for a block of pairs and for one pair alike.

Alongside the numeric matrix, the matcher classifies every pair with the
Section 2 taxonomy (leaf-exact ... partial-relaxed), which is reported
per correspondence.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import product, repeat
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.core.config import QMatchConfig
from repro.core.taxonomy import (
    CoverageLevel,
    MatchCategory,
    classify_leaf,
    classify_subtree,
)
from repro.engine.context import MECHANISMS
from repro.linguistic.matcher import LinguisticMatcher
from repro.matching.base import Matcher
from repro.matching.classes import MatchStrength
from repro.matching.result import (
    CATEGORY_CODES,
    CATEGORY_VALUES,
    SCORE_NOISE,
    ScoreMatrix,
    checked_score,
)
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

        Every run scores through :meth:`_score_blocks`; a traced run
        then records one span per pair from the same grids
        (:meth:`_record_spans`).
        """
        source, target = ctx.source_table, ctx.target_table
        tracer = ctx.tracer
        known = walk = None
        if tracer.enabled:
            tracer.begin_run(
                algorithm=self.name,
                source=ctx.source.name,
                target=ctx.target.name,
                weights=self.config.weights.as_dict(),
                threshold=self.config.threshold,
                config=self.config_signature(),
            )
            # Taken before anything is filled: the spans' provenance.
            known = ctx.memo_keys()
            walk = {}
        evidence = self._evidence(ctx)
        grid = [0.0] * (len(source) * len(target))
        categories = [-1] * len(grid) if self.config.record_categories else None
        blocks = self._score_blocks(ctx, evidence, evidence.gate.ravel().tolist(),
                                    grid, categories, walk)
        if tracer.enabled:
            self._record_spans(ctx, evidence, blocks, walk, known)
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

    def _evidence(self, ctx, rows=None):
        """This configuration's per-pair inputs over ``rows`` (source
        postorder indices; ``None`` for all) x every target node:
        ``labels`` / ``label_codes`` (with :meth:`_document`'s evidence),
        ``props`` / ``prop_codes``, the child ``gate`` and ``instance``
        (``None`` at zero weight).  Full evidence stays in
        ``ctx.derived`` for :meth:`explain`."""
        config = self.config
        source, target = ctx.source_table, ctx.target_table
        names, name_codes = ctx.node_label_grids(rows)
        props, prop_codes = ctx.node_property_grids(rows)
        evidence = SimpleNamespace(
            rows=rows, names=names, labels=names, label_codes=name_codes,
            props=props, prop_codes=prop_codes, instance=None, doc_ids=None,
            mechanisms=None,
            gate=_child_gate(name_codes, props, config.structural_child_gate),
        )
        s_rows = range(len(source)) if rows is None else rows
        if config.use_documentation:
            self._document(ctx, evidence, s_rows)
        if config.weights.uses_instance:
            # The fifth axis only ever runs at nonzero weight: the
            # zero-weight model touches no profile and fills no memo.
            evidence.instance = np.array([
                ctx.instance_score(source.nodes[s_index], t_node)
                for s_index in s_rows for t_node in target.nodes
            ]).reshape(names.shape)
        if rows is None:
            ctx.derived[("qmatch", config)] = evidence
        return evidence

    def _document(self, ctx, evidence, s_rows):
        """Fold documentation evidence into the label grids, in one loop
        over the pairs whose nodes both carry ``xs:documentation``: the
        discounted similarity of the texts lifts a label axis the names
        score lower, never lowers one, and is at best relaxed."""
        discount = self.config.documentation_discount

        def doc_id(node):
            text = node.properties.get("documentation")
            return ctx.label_id(text) if text else None

        s_docs = [doc_id(ctx.source_table.nodes[s_index]) for s_index in s_rows]
        t_docs = [doc_id(node) for node in ctx.target_table.nodes]
        documented = [(t_index, t_doc) for t_index, t_doc in enumerate(t_docs)
                      if t_doc is not None]
        labels = evidence.labels = evidence.labels.copy()
        codes = evidence.label_codes = evidence.label_codes.copy()
        for row, s_doc in enumerate(s_docs):
            if s_doc is None:
                continue
            for t_index, t_doc in documented:
                doc = ctx.label_pair(s_doc, t_doc)
                doc_score = doc.score * discount
                if doc_score > labels[row, t_index]:
                    labels[row, t_index] = doc_score
                    if codes[row, t_index] == _NONE and doc.strength.is_match:
                        codes[row, t_index] = MatchStrength.RELAXED.value
        evidence.doc_ids = (s_docs, t_docs)

    def _score_blocks(self, ctx, evidence, gate, grid, categories, walk=None):
        """Score ``evidence``'s rows into the row-major ``grid`` (clamped
        QoMs) and ``categories`` (codes, or ``None``) of every pair.

        Leaf x leaf and leaf x interior pairs take one :func:`_combine`
        over the rows' arrays and :data:`_BLOCK_CATEGORY`; interior
        pairs are then walked in row-major order (children first, as in
        postorder) through :meth:`_children_axis`, reading the child
        gate from ``gate`` by row-major index.  A traced run's ``walk``
        receives each interior pair's (QoM, children score, coverage,
        matched children, category code, matched child pairs), and gets
        back the blocks' unclamped QoMs, category codes, effective
        levels, children weights, children scores and coverages.
        """
        config = self.config
        weights = config.weights
        source, target = ctx.source_table, ctx.target_table
        width = len(target)
        rows = (np.arange(len(source)) if evidence.rows is None
                else np.array(evidence.rows, dtype=np.intp))
        s_leaves = np.array(source.leaves)[rows][:, None]
        t_leaves = np.array(target.leaves)
        leaf_pairs = s_leaves & t_leaves
        mixed_pairs = s_leaves != t_leaves
        same_level = (np.array(source.levels)[rows][:, None]
                      == np.array(target.levels))
        level = same_level.astype(np.float64)
        effective_level, children_weight, children = _shape_axes(
            config, leaf_pairs, level,
        )
        labels, props = evidence.labels, evidence.props
        qom = _combine(weights, labels, props, effective_level,
                       children_weight, children, evidence.instance).ravel()
        interior = ~(leaf_pairs | mixed_pairs).ravel()
        out_of_range = np.flatnonzero(
            ~((qom >= -SCORE_NOISE) & (qom <= 1 + SCORE_NOISE)) & ~interior
        )
        # checked_score raises at the first bad pair in row-major order:
        # interior pairs before it are still scored (and may raise
        # first), those after it are not.
        first_bad = out_of_range[0] if out_of_range.size else qom.size
        # checked_score's clamp: max(0.0, q), then min(1.0, q).
        clamped = np.where(qom > 0.0, qom, 0.0)
        clamped = np.where(clamped < 1.0, clamped, 1.0).reshape(len(rows), width)
        codes = None
        if categories is not None or walk is not None:
            codes = _BLOCK_CATEGORY[
                mixed_pairs.astype(np.intp), evidence.label_codes,
                evidence.prop_codes, same_level.astype(np.intp),
            ]
        row_list = rows.tolist()
        for s_index, values, row_codes in zip(
                row_list, clamped.tolist(),
                repeat(None) if categories is None else codes.tolist()):
            start = s_index * width
            grid[start:start + width] = values
            if categories is not None:
                categories[start:start + width] = row_codes
        pairs = np.flatnonzero(interior)
        pairs = pairs[pairs < first_bad]
        interior_pairs = zip(
            pairs.tolist(), labels.ravel()[pairs].tolist(),
            props.ravel()[pairs].tolist(), level.ravel()[pairs].tolist(),
            evidence.label_codes.ravel()[pairs].tolist(),
            evidence.prop_codes.ravel()[pairs].tolist(),
            repeat(None) if evidence.instance is None
            else evidence.instance.ravel()[pairs].tolist(),
        )
        for (pair, label, prop, level_score, label_code, prop_code,
             instance_score) in interior_pairs:
            row, t_index = divmod(pair, width)
            s_index = row_list[row]
            index = s_index * width + t_index
            matched_pairs = None if walk is None else []
            children_score, children_coverage, matched, children_strength = (
                self._children_axis(s_index, t_index, grid, categories,
                                    gate, ctx, matched_pairs)
            )
            pair_qom = _combine(weights, label, prop, level_score,
                                weights.children, children_score,
                                instance_score)
            grid[index] = checked_score(pair_qom, source.paths[s_index],
                                        target.paths[t_index])
            if codes is None:
                continue
            category = _interior_category(label_code, prop_code, level_score,
                                          children_coverage, children_strength)
            if categories is not None:
                categories[index] = category
            if walk is not None:
                walk[index] = (pair_qom, children_score, children_coverage,
                               matched, category, matched_pairs)
        if first_bad < qom.size:
            row, t_index = divmod(int(first_bad), width)
            checked_score(float(qom[first_bad]), source.paths[row_list[row]],
                          target.paths[t_index])
        return (qom, codes.ravel(), effective_level.ravel(),
                children_weight.ravel(), children.ravel(),
                leaf_pairs.ravel()) if walk is not None else None

    def _record_spans(self, ctx, evidence, blocks, walk, known):
        """Record one span per pair of a traced run, in row-major
        postorder, from the run's grids.

        Cache provenance is derived: a label reads ``hit`` when its
        unordered label-id pair is in ``known`` (the memos' keys before
        the run) or was met at an earlier pair, by name or documentation
        lookup; a property likewise over ordered signature-id pairs; an
        instance only when known.  Child span ids are the recorder's
        span count before the run plus the child pair's row-major index.
        The collector is paused while the spans (which hold no cycles)
        are built: its full passes over them and the memos cost about as
        much as the spans on Protein.
        """
        weights = self.config.weights
        w_label, w_props, w_level = (weights.label, weights.properties,
                                     weights.level)
        w_children, w_instance = weights.children, weights.instance
        threshold = self.config.threshold
        tracer = ctx.tracer
        source, target = ctx.source_table, ctx.target_table
        width = len(target)
        qoms, codes, levels, children_weights, children_scores, leaves = (
            array.tolist() for array in blocks
        )
        coverages = (str(CoverageLevel.NONE), str(CoverageLevel.TOTAL))
        labels, label_codes, mechanisms, props, prop_codes = (
            grid.ravel().tolist() for grid in (
                evidence.labels, evidence.label_codes,
                _mechanisms(ctx, evidence), evidence.props,
                evidence.prop_codes,
            )
        )
        instance = (None if evidence.instance is None
                    else evidence.instance.ravel().tolist())
        labels_seen, props_seen, instances_known = known
        s_docs, t_docs = evidence.doc_ids or (repeat(None), repeat(None))
        t_sides = list(zip(target.paths, target.label_ids,
                           target.signature_ids, t_docs, target.nodes))
        strengths = [str(strength) for strength in _STRENGTHS]
        caches = ("miss", "hit")
        base = len(tracer.spans)
        collecting = gc.isenabled()
        gc.disable()
        try:
            index = 0
            for s_path, children, s_label, s_sig, s_doc, s_node in zip(
                    source.paths, source.children, source.label_ids,
                    source.signature_ids, s_docs, source.nodes):
                for t_path, t_label, t_sig, t_doc, t_node in t_sides:
                    label_key = ((s_label, t_label) if s_label <= t_label
                                 else (t_label, s_label))
                    label_hit = label_key in labels_seen
                    labels_seen.add(label_key)
                    if s_doc is not None and t_doc is not None:
                        labels_seen.add((s_doc, t_doc) if s_doc <= t_doc
                                        else (t_doc, s_doc))
                    property_hit = (s_sig, t_sig) in props_seen
                    props_seen.add((s_sig, t_sig))
                    detail = walk.get(index)
                    if detail is None:
                        qom, category = qoms[index], codes[index]
                        children_score = children_scores[index]
                        children_weight = children_weights[index]
                        coverage = coverages[leaves[index]]
                        matched, spans = 0, ()
                    else:
                        (qom, children_score, coverage, matched, category,
                         matched_pairs) = detail
                        coverage, children_weight = str(coverage), w_children
                        spans = [base + s_child * width + t_child
                                 for s_child, t_child in matched_pairs]
                    label, prop, level = labels[index], props[index], levels[index]
                    axes = {
                        "label": {
                            "score": label, "weight": w_label,
                            "contribution": w_label * label,
                            "strength": strengths[label_codes[index]],
                            "mechanism": MECHANISMS[mechanisms[index]],
                            "cache": caches[label_hit],
                        },
                        "properties": {
                            "score": prop, "weight": w_props,
                            "contribution": w_props * prop,
                            "strength": strengths[prop_codes[index]],
                            "cache": caches[property_hit],
                        },
                        "level": {"score": level, "weight": w_level,
                                  "contribution": w_level * level},
                        "children": {
                            "score": children_score, "weight": children_weight,
                            "contribution": children_weight * children_score,
                            "coverage": coverage, "matched": matched,
                            "total": len(children),
                        },
                    }
                    if instance is not None:
                        # Only present at nonzero instance weight, so
                        # four-axis traces keep the pre-instance format.
                        axes["instance"] = {
                            "score": instance[index], "weight": w_instance,
                            "contribution": w_instance * instance[index],
                            "cache": caches[(id(s_node), id(t_node))
                                            in instances_known],
                        }
                    tracer.record_pair(
                        s_path, t_path, qom=qom,
                        category=CATEGORY_VALUES[category],
                        threshold=threshold, accepted=qom >= threshold,
                        axes=axes, children_spans=spans,
                    )
                    index += 1
        finally:
            if collecting:
                gc.enable()

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
        run as well reuses the evidence grids it left there instead of
        filling them again -- the service layer does this when attaching
        axis evidence to every correspondence of a result.

        The breakdown reads the pair's cell of those grids and, for an
        interior pair, one :meth:`_children_axis` call over ``matrix``'s
        grids (which are in the context's postorder).
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
        evidence = (ctx.derived.get(("qmatch", self.config))
                    or self._evidence(ctx))
        s_index = source_table.index[id(s_node)]
        t_index = target_table.index[id(t_node)]
        cell = (s_index, t_index)
        label_code = int(evidence.label_codes[cell])
        prop_code = int(evidence.prop_codes[cell])
        s_leaf, t_leaf = source_table.leaves[s_index], target_table.leaves[t_index]
        same_level = source_table.levels[s_index] == target_table.levels[t_index]
        level_score, _, children_score = _shape_axes(
            self.config, s_leaf and t_leaf, float(same_level),
        )
        coverage = (CoverageLevel.TOTAL if s_leaf and t_leaf
                    else CoverageLevel.NONE)
        matched = 0
        if s_leaf or t_leaf:
            computed = _BLOCK_CATEGORY[int(s_leaf != t_leaf), label_code,
                                       prop_code, int(same_level)]
        else:
            codes = matrix.category_codes
            children_score, coverage, matched, children_strength = (
                self._children_axis(
                    s_index, t_index, matrix.scores.ravel(),
                    None if codes is None else codes.ravel(),
                    evidence.gate.ravel(), ctx,
                )
            )
            computed = _interior_category(label_code, prop_code, level_score,
                                          coverage, children_strength)
        categories = matrix.categories
        category_value = (None if categories is None
                          else categories.get((s_node.path, t_node.path)))
        return AxisBreakdown(
            source_path=s_node.path,
            target_path=t_node.path,
            qom=matrix.get(s_node, t_node),
            category=MatchCategory(
                CATEGORY_VALUES[int(computed)] if category_value is None
                else category_value
            ),
            label_score=float(evidence.labels[cell]),
            label_strength=_STRENGTHS[label_code],
            label_mechanism=MECHANISMS[_mechanisms(ctx, evidence)[cell]],
            properties_score=float(evidence.props[cell]),
            properties_strength=_STRENGTHS[prop_code],
            level_score=level_score,
            children_score=float(children_score),
            coverage=coverage,
            matched_children=matched,
            total_children=len(source_table.children[s_index]),
            instance_score=(None if evidence.instance is None
                            else float(evidence.instance[cell])),
        )


#: Codes of the categories that count as an exact child match (see
#: :attr:`MatchCategory.is_exact`); a matrix's int8 codes match them too.
EXACT_CODES = frozenset(CATEGORY_CODES[c.value] for c in MatchCategory if c.is_exact)


def _combine(weights, label, properties, level, children_weight, children,
             instance=None):
    """The QoM sum ``WL*L + WP*P + WH*H + WC*C`` (``+ WI*I`` when the
    instance axis runs), added left to right.

    The one formula for every pair shape -- the leaf case fixes the
    children axis at 1.0, the mixed case zeroes its weight: the
    arguments are numpy arrays for a block of pairs or floats for one
    interior pair, and numpy's elementwise float64 operations round
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

def _interior_category(label_code, prop_code, level_score, coverage,
                       children_strength):
    """The category code of an interior x interior pair."""
    return CATEGORY_CODES[classify_subtree(
        _STRENGTHS[label_code], _STRENGTHS[prop_code],
        MatchStrength.EXACT if level_score else MatchStrength.NONE,
        coverage, children_strength,
    )._value_]


def _block_category_table():
    """The code of a block pair's category, by (leaf x interior?, label
    code, property code, same level?), from ``classify_leaf`` /
    ``classify_subtree`` -- so the taxonomy keeps one implementation."""
    codes = range(len(_STRENGTHS))
    table = np.empty((2, len(codes), len(codes), 2), dtype=np.intp)
    for mixed, label, properties, level in product((0, 1), codes, codes,
                                                   (0, 1)):
        table[mixed, label, properties, level] = (
            _interior_category(label, properties, level, CoverageLevel.NONE,
                               MatchStrength.NONE) if mixed
            else CATEGORY_CODES[classify_leaf(_STRENGTHS[label],
                                              _STRENGTHS[properties])._value_]
        )
    return table


#: The block pairs' category code table (built once, at import).
_BLOCK_CATEGORY = _block_category_table()


#: The strength code of "no match", which the child gate reads.
_NONE = MatchStrength.NONE.value


def _child_gate(label_codes, props, threshold):
    """Whether a child pair may count toward its parent's children axis:
    its names matched at least relaxed, or its properties score at least
    ``threshold``.  Elementwise over grids, or for one pair."""
    return (label_codes != _NONE) | (props >= threshold)


def _shape_axes(config, leaf_pairs, level):
    """(effective level, children weight, children score) of pairs by
    shape, for a ``leaf_pairs`` mask and ``level`` scores -- arrays or
    one pair's values.  Eq. 2: a leaf x leaf pair takes the children axis
    at 1.0 with total coverage and, in the ``constant`` leaf-level mode,
    the level axis at 1.0.  Other pairs get footnote 1's leaf x interior
    values (no children weight, no coverage), which the recursion
    replaces for interior pairs."""
    if config.leaf_level_mode == "constant":
        level = level + leaf_pairs * (1.0 - level)  # exact: level is 0 or 1
    return level, leaf_pairs * config.weights.children, leaf_pairs * 1.0


def _mechanisms(ctx, evidence):
    """The label mechanism codes (:data:`MECHANISMS`) of every pair of
    full ``evidence``, built on the first call (only traces and
    ``explain`` read them): ``documentation`` where it lifted the label,
    else the names'."""
    if evidence.mechanisms is None:
        evidence.mechanisms = np.where(
            evidence.labels != evidence.names,
            MECHANISMS.index("documentation"), ctx.node_label_mechanisms(),
        )
    return evidence.mechanisms
