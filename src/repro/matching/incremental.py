"""Incremental re-matching after schema evolution.

Schemas evolve; recomputing the full n*m QoM matrix after every edit is
wasteful when most of the source tree is untouched.  QMatch's bottom-up
structure makes incremental recomputation sound:

- a pair's QoM depends only on the two nodes' labels/properties/levels
  and on the QoMs of their *children* pairs;
- therefore, if a source subtree is byte-identical (same labels,
  properties, structure **and** absolute position, so levels and paths
  agree), every pair rooted in it keeps its score.

:func:`incremental_qmatch` diffs the old and new source trees by
structural fingerprint, reuses the old matrix rows for unchanged nodes,
and recomputes only the changed nodes and their ancestors (whose
children axis may have shifted) through QMatch's block fill over grids
of those rows alone, in postorder, so recomputed parents see up-to-date
child scores.  The result is *identical* to a from-scratch run
(asserted by tests), just cheaper.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.core.qmatch import QMatchMatcher, _child_gate
from repro.matching.result import ScoreMatrix
from repro.xsd.model import SchemaNode, SchemaTree


def node_fingerprint(node: SchemaNode) -> str:
    """A structural hash of the subtree rooted at ``node``.

    Covers the label, the sorted property items and the ordered child
    fingerprints -- two nodes with equal fingerprints produce identical
    QoM contributions when placed at the same level and path.
    """
    hasher = hashlib.sha256()
    hasher.update(node.name.encode())
    hasher.update(str(node.kind).encode())
    for key in sorted(node.properties):
        hasher.update(f"|{key}={node.properties[key]!r}".encode())
    for child in node.children:
        hasher.update(node_fingerprint(child).encode())
    return hasher.hexdigest()


def changed_source_paths(old: SchemaTree, new: SchemaTree) -> set[str]:
    """Paths in ``new`` whose pairs cannot be reused from ``old``.

    A node is *changed* when no node at the same path existed in the old
    tree, when its subtree fingerprint differs, or when its level
    differs; ancestors of changed nodes are changed too (their children
    axis depends on the changed child).
    """
    old_by_path = {node.path: node for node in old}
    changed: set[str] = set()
    for node in new:
        counterpart = old_by_path.get(node.path)
        if (
            counterpart is None
            or counterpart.level != node.level
            or node_fingerprint(counterpart) != node_fingerprint(node)
        ):
            current = node
            while current is not None and current.path not in changed:
                changed.add(current.path)
                current = current.parent
    return changed


def incremental_qmatch(matcher: QMatchMatcher, old_matrix: ScoreMatrix,
                       new_source: SchemaTree,
                       target: Optional[SchemaTree] = None) -> ScoreMatrix:
    """Re-score ``new_source`` against ``target`` reusing ``old_matrix``.

    ``old_matrix`` must come from the same matcher (same config) run
    against the same target; ``target`` defaults to the old matrix's.
    Returns a fresh :class:`ScoreMatrix` equal to what a full
    ``matcher.score_matrix(new_source, target)`` would produce.
    """
    if target is None:
        target = old_matrix.target
    old_source = old_matrix.source
    changed = changed_source_paths(old_source, new_source)

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
    # The old matrix's column for each of this context's target nodes.
    columns = [old_matrix.column_index[path] for path in target_table.paths]
    rescored = []
    for s_index, s_path in enumerate(source_table.paths):
        if s_path in changed:
            rescored.append(s_index)
            continue
        old_row = old_matrix.row_index[s_path]
        scores[s_index] = old_matrix.scores[old_row, columns]
        if codes is not None:
            codes[s_index] = old_codes[old_row, columns]
    matcher._score_blocks(
        ctx, matcher._evidence(ctx, rescored),
        _GateCells(ctx, matcher.config.structural_child_gate),
        scores.ravel(), None if codes is None else codes.ravel(),
    )
    matrix = ScoreMatrix(ctx.source, ctx.target, "postorder", scores, codes)
    matrix.incremental_stats = {"reused": shape[0] - len(rescored),
                                "recomputed": len(rescored)}
    return matrix


class _GateCells(dict):
    """The child gate by row-major index, decided per cell on first read
    from the context's memos: a rescored row's children may be reused
    rows, and filling those whole would compare label pairs no read
    needs."""

    def __init__(self, ctx, threshold):
        super().__init__()
        self.ctx, self.threshold = ctx, threshold

    def __missing__(self, index):
        ctx = self.ctx
        source, target = ctx.source_table, ctx.target_table
        s_index, t_index = divmod(index, len(target))
        label = ctx.label_pair(source.label_ids[s_index],
                               target.label_ids[t_index])
        props = ctx.property_comparison(source.nodes[s_index],
                                        target.nodes[t_index])
        gate = self[index] = _child_gate(label.strength.value, props.score,
                                         self.threshold)
        return gate
