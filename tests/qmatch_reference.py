"""Frozen, test-only reference of QMatch's scalar per-pair scoring.

This is the pair loop that traced runs, ``explain`` and incremental
re-matching ran before every QMatch run went through the block path
(``QMatchMatcher._score_blocks``), kept verbatim in behaviour: each
pair is scored on its own by :func:`pair_qom` from per-pair memo reads
(:func:`node_label`, :func:`node_properties`), documentation evidence is
applied per pair by :func:`label_evidence`, the child gate is read
through :class:`MemoGate`, and a traced pair probes the memos for cache
provenance *before* its comparisons run (:func:`traced_pair`).

``tests/test_block_scoring.py`` and ``tests/test_qmatch_reference.py``
compare the shipped block path (matrices, categories, trace JSON lines,
``explain`` rows, incremental matrices) against these functions; do
not change them to follow the shipped code.  Only ``_children_axis``,
``_combine`` and the taxonomy are shared with it, as they were.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.qmatch import AxisBreakdown, _combine
from repro.core.taxonomy import (
    CoverageLevel,
    MatchCategory,
    classify_leaf,
    classify_subtree,
)
from repro.linguistic.matcher import LabelComparison
from repro.matching.classes import MatchStrength
from repro.matching.incremental import changed_source_paths
from repro.matching.result import CATEGORY_CODES, ScoreMatrix, checked_score


# ----------------------------------------------------------------------
# Per-pair memo reads and provenance probes
# ----------------------------------------------------------------------

def node_label(ctx, s_index, t_index) -> LabelComparison:
    """Label comparison of two nodes' names, by postorder index."""
    return ctx.label_pair(ctx.source_table.label_ids[s_index],
                          ctx.target_table.label_ids[t_index])


def node_properties(ctx, s_index, t_index):
    """Property comparison of two nodes, by postorder index."""
    return ctx.property_comparison(ctx.source_table.nodes[s_index],
                                   ctx.target_table.nodes[t_index])


def _unordered(left, right):
    return (left, right) if left <= right else (right, left)


def node_label_cached(ctx, s_index, t_index) -> bool:
    return _unordered(ctx.source_table.label_ids[s_index],
                      ctx.target_table.label_ids[t_index]) in ctx._label_memo


def node_properties_cached(ctx, s_index, t_index) -> bool:
    return (ctx.source_table.signature_ids[s_index],
            ctx.target_table.signature_ids[t_index]) in ctx._property_memo


def instance_cached(ctx, source, target) -> bool:
    return (id(source), id(target)) in ctx._instance_memo


class MemoGate:
    """The child gate as a row-major index view over the counted memos."""

    __slots__ = ("ctx", "threshold", "width")

    def __init__(self, ctx, threshold):
        self.ctx = ctx
        self.threshold = threshold
        self.width = len(ctx.target_table)

    def __getitem__(self, index):
        s_index, t_index = divmod(index, self.width)
        ctx = self.ctx
        if node_label(ctx, s_index, t_index).strength is not (
            MatchStrength.NONE
        ):
            return True
        return node_properties(ctx, s_index, t_index).score >= self.threshold


# ----------------------------------------------------------------------
# The QoM model, one pair at a time
# ----------------------------------------------------------------------

def label_evidence(matcher, label, s_index, t_index, ctx):
    """Names, optionally lifted by discounted documentation evidence."""
    config = matcher.config
    if not config.use_documentation:
        return label
    s_doc = ctx.source_table.nodes[s_index].properties.get("documentation")
    t_doc = ctx.target_table.nodes[t_index].properties.get("documentation")
    if not s_doc or not t_doc:
        return label
    doc = ctx.label_comparison(s_doc, t_doc)
    doc_score = doc.score * config.documentation_discount
    if doc_score <= label.score:
        return label
    strength = label.strength
    if strength is MatchStrength.NONE and doc.strength.is_match:
        strength = MatchStrength.RELAXED
    return LabelComparison(doc_score, strength, "documentation")


def pair_qom(matcher, s_index, t_index, grid, categories, ctx,
             trace_out: Optional[dict] = None):
    """QoM and taxonomy category of one pair, by postorder index."""
    source, target = ctx.source_table, ctx.target_table
    config = matcher.config
    weights = config.weights
    label = label_evidence(matcher, node_label(ctx, s_index, t_index),
                           s_index, t_index, ctx)
    props = node_properties(ctx, s_index, t_index)
    level_strength = (
        MatchStrength.EXACT
        if source.levels[s_index] == target.levels[t_index]
        else MatchStrength.NONE
    )
    level_score = 1.0 if level_strength is MatchStrength.EXACT else 0.0
    matched_pairs = [] if trace_out is not None else None
    s_leaf = source.leaves[s_index]

    if s_leaf and target.leaves[t_index]:
        if config.leaf_level_mode == "constant":
            effective_level = 1.0
        else:
            effective_level = level_score
        children_score, children_weight = 1.0, weights.children
        coverage, matched, total = CoverageLevel.TOTAL, 0, 0
        category = classify_leaf(label.strength, props.strength)
    elif s_leaf != target.leaves[t_index]:
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
            matcher._children_axis(
                s_index, t_index, grid, categories,
                MemoGate(ctx, config.structural_child_gate), ctx,
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


def traced_pair(matcher, s_index, t_index, grid, categories, ctx, tracer):
    """Score one pair and record its span; provenance probed first."""
    weights = matcher.config.weights
    uses_instance = weights.uses_instance
    source, target = ctx.source_table, ctx.target_table
    label_cache = "hit" if node_label_cached(ctx, s_index, t_index) else "miss"
    property_cache = (
        "hit" if node_properties_cached(ctx, s_index, t_index) else "miss"
    )
    if uses_instance:
        instance_cache = (
            "hit" if instance_cached(ctx, source.nodes[s_index],
                                     target.nodes[t_index])
            else "miss"
        )
    detail: dict = {}
    qom, category = pair_qom(matcher, s_index, t_index, grid, categories,
                             ctx, trace_out=detail)
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
        instance_score = detail["instance_score"]
        axes["instance"] = {
            "score": instance_score,
            "weight": weights.instance,
            "contribution": weights.instance * instance_score,
            "cache": instance_cache,
        }
    children_spans = []
    for s_child, t_child in detail["matched_pairs"]:
        span_id = tracer.span_ids.get((source.paths[s_child],
                                       target.paths[t_child]))
        if span_id is not None:
            children_spans.append(span_id)
    threshold = matcher.config.threshold
    tracer.span_ids[source.paths[s_index], target.paths[t_index]] = (
        len(tracer.spans))
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


def score_row(matcher, s_index, grid, categories, ctx):
    """Score source node ``s_index`` against every target node."""
    target = ctx.target_table
    width = len(target)
    row = s_index * width
    s_path = ctx.source_table.paths[s_index]
    tracer = ctx.tracer
    for t_index in range(width):
        if tracer.enabled:
            qom, category = traced_pair(matcher, s_index, t_index, grid,
                                        categories, ctx, tracer)
        else:
            qom, category = pair_qom(matcher, s_index, t_index, grid,
                                     categories, ctx)
        grid[row + t_index] = checked_score(qom, s_path, target.paths[t_index])
        if categories is not None:
            categories[row + t_index] = CATEGORY_CODES[category._value_]


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------

def match_context(matcher, ctx) -> ScoreMatrix:
    """The scalar run: every row through :func:`score_row` (a traced
    context records one span per pair, as ``match_context`` did)."""
    source, target = ctx.source_table, ctx.target_table
    tracer = ctx.tracer
    if tracer.enabled:
        # The recorder's path index as it was: each path pair's latest
        # span id, which child links were looked up in.
        tracer.span_ids = {(span["source"], span["target"]): span["id"]
                           for span in tracer.spans}
        config = matcher.config
        tracer.begin_run(
            algorithm=matcher.name,
            source=ctx.source.name,
            target=ctx.target.name,
            weights=config.weights.as_dict(),
            threshold=config.threshold,
            config=matcher.config_signature(),
        )
    grid = [0.0] * (len(source) * len(target))
    categories = [-1] * len(grid) if matcher.config.record_categories else None
    for s_index in range(len(source)):
        score_row(matcher, s_index, grid, categories, ctx)
    return ScoreMatrix(ctx.source, ctx.target, "postorder", grid, categories)


def explain(matcher, source, target, source_path, target_path, matrix=None,
            context=None) -> AxisBreakdown:
    """The per-axis breakdown of one pair through :func:`pair_qom`."""
    s_node = source.find(source_path)
    t_node = target.find(target_path)
    if s_node is None:
        raise KeyError(f"no node {source_path!r} in source schema")
    if t_node is None:
        raise KeyError(f"no node {target_path!r} in target schema")
    ctx = context if context is not None else matcher.make_context(source,
                                                                   target)
    if matrix is None:
        matrix = match_context(matcher, ctx)
    source_table, target_table = ctx.source_table, ctx.target_table
    if (matrix.source_paths, matrix.target_paths) != (
            source_table.paths, target_table.paths):
        raise ValueError("explain needs a QMatch matrix of these schemas")
    s_index = source_table.index[id(s_node)]
    t_index = target_table.index[id(t_node)]
    codes = matrix.category_codes
    detail: dict = {}
    _, computed_category = pair_qom(
        matcher, s_index, t_index, matrix.scores.ravel(),
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


def incremental_qmatch(matcher, old_matrix, new_source, target=None):
    """Incremental re-matching with every changed row through
    :func:`score_row` on a fresh context."""
    if target is None:
        target = old_matrix.target
    changed = changed_source_paths(old_matrix.source, new_source)
    old_codes = old_matrix.category_codes
    record = matcher.config.record_categories
    if record and old_codes is None:
        raise ValueError(
            "old matrix has no recorded categories but the matcher's "
            "config wants them; rerun the full match once with "
            "record_categories=True"
        )
    ctx = matcher.make_context(new_source, target)
    source_table, target_table = ctx.source_table, ctx.target_table
    shape = (len(source_table), len(target_table))
    scores = np.zeros(shape)
    codes = np.full(shape, -1, dtype=np.int8) if record else None
    columns = [old_matrix.column_index[path] for path in target_table.paths]
    reused = recomputed = 0
    for s_index, s_path in enumerate(source_table.paths):
        if s_path not in changed:
            old_row = old_matrix.row_index[s_path]
            scores[s_index] = old_matrix.scores[old_row, columns]
            if codes is not None:
                codes[s_index] = old_codes[old_row, columns]
            reused += 1
            continue
        score_row(matcher, s_index, scores.ravel(),
                  None if codes is None else codes.ravel(), ctx)
        recomputed += 1
    matrix = ScoreMatrix(ctx.source, ctx.target, "postorder", scores, codes)
    matrix.incremental_stats = {"reused": reused, "recomputed": recomputed}
    return matrix
