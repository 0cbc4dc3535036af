"""Zhang-Shasha tree edit distance.

The Nierman-Jagadish [15] structural-similarity baseline the paper's
related work cites: the minimum number of node insertions, deletions and
relabelings turning one ordered tree into the other, computed with the
classic Zhang-Shasha dynamic program (keyroots + forest distances).

Two cost models ship:

- ``structural`` (default) -- label-blind: relabeling two nodes is free
  when they agree on kind and (for leaves) have lattice-compatible
  types; this matches the spirit of the paper's structural baseline;
- ``label`` -- relabeling is free only for equal labels; the classic
  document-tree distance.

Besides the scalar distance, :class:`TreeEditMatcher` exposes the full
subtree-pair distance table the algorithm computes anyway as a score
matrix (``1 - dist / (size_i + size_j)``), so the tree-edit baseline
plugs into the same evaluation harness as every other matcher.

Complexity is O(n*m*depth_s*depth_t); fine for the paper's hand-sized
schemas, quadratic-ish for the 3753-node protein schema -- the harness
only runs this baseline on small and medium inputs (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.matching.base import Matcher
from repro.matching.result import ScoreMatrix
from repro.properties.types import type_strength
from repro.matching.classes import MatchStrength
from repro.xsd.model import SchemaNode, SchemaTree


@dataclass(frozen=True)
class TreeEditConfig:
    """Cost model for the edit distance."""

    insert_cost: float = 1.0
    delete_cost: float = 1.0
    #: "structural" or "label", or a callable (node, node) -> cost.
    relabel: object = "structural"

    def relabel_cost(self) -> Callable[[SchemaNode, SchemaNode], float]:
        if callable(self.relabel):
            return self.relabel
        if self.relabel == "structural":
            return _structural_relabel_cost
        if self.relabel == "label":
            return _label_relabel_cost
        raise ValueError(
            f"unknown relabel model {self.relabel!r}; "
            "expected 'structural', 'label' or a callable"
        )


def _structural_relabel_cost(left: SchemaNode, right: SchemaNode) -> float:
    if left.kind is not right.kind:
        return 1.0
    if left.is_leaf != right.is_leaf:
        return 1.0
    if left.is_leaf:
        strength = type_strength(left.type_name, right.type_name)
        if strength is MatchStrength.EXACT:
            return 0.0
        if strength is MatchStrength.RELAXED:
            return 0.5
        return 1.0
    return 0.0


def _label_relabel_cost(left: SchemaNode, right: SchemaNode) -> float:
    return 0.0 if left.name == right.name else 1.0


class _Annotated:
    """Postorder numbering, leftmost-leaf indices and keyroots of a tree."""

    def __init__(self, root: SchemaNode):
        self.nodes: list[SchemaNode] = list(root.iter_postorder())
        index_of = {id(node): i for i, node in enumerate(self.nodes)}
        self.lml = [0] * len(self.nodes)  # leftmost leaf descendant
        for i, node in enumerate(self.nodes):
            current = node
            while current.children:
                current = current.children[0]
            self.lml[i] = index_of[id(current)]
        # Keyroots: nodes that are not the leftmost child of their parent
        # (i.e. the highest node for each distinct lml value).
        highest = {}
        for i in range(len(self.nodes)):
            highest[self.lml[i]] = i
        self.keyroots = sorted(highest.values())


def _zhang_shasha(source_root, target_root, config: TreeEditConfig):
    """Run the DP; returns (treedist table, source nodes, target nodes)."""
    source = _Annotated(source_root)
    target = _Annotated(target_root)
    relabel = config.relabel_cost()
    insert_cost, delete_cost = config.insert_cost, config.delete_cost

    n, m = len(source.nodes), len(target.nodes)
    treedist = [[0.0] * m for _ in range(n)]

    for k1 in source.keyroots:
        for k2 in target.keyroots:
            _forest_distance(
                k1, k2, source, target, treedist,
                relabel, insert_cost, delete_cost,
            )
    return treedist, source.nodes, target.nodes


def _forest_distance(i, j, source, target, treedist,
                     relabel, insert_cost, delete_cost):
    li, lj = source.lml[i], target.lml[j]
    rows = i - li + 2
    cols = j - lj + 2
    fd = [[0.0] * cols for _ in range(rows)]
    for x in range(1, rows):
        fd[x][0] = fd[x - 1][0] + delete_cost
    for y in range(1, cols):
        fd[0][y] = fd[0][y - 1] + insert_cost
    for x in range(1, rows):
        node_x = x + li - 1
        for y in range(1, cols):
            node_y = y + lj - 1
            if source.lml[node_x] == li and target.lml[node_y] == lj:
                fd[x][y] = min(
                    fd[x - 1][y] + delete_cost,
                    fd[x][y - 1] + insert_cost,
                    fd[x - 1][y - 1]
                    + relabel(source.nodes[node_x], target.nodes[node_y]),
                )
                treedist[node_x][node_y] = fd[x][y]
            else:
                p = source.lml[node_x] - li
                q = target.lml[node_y] - lj
                fd[x][y] = min(
                    fd[x - 1][y] + delete_cost,
                    fd[x][y - 1] + insert_cost,
                    fd[p][q] + treedist[node_x][node_y],
                )


def tree_edit_distance(source: SchemaTree, target: SchemaTree,
                       config=None) -> float:
    """Zhang-Shasha edit distance between two schema trees."""
    config = config or TreeEditConfig()
    treedist, s_nodes, t_nodes = _zhang_shasha(
        source.root, target.root, config
    )
    return treedist[len(s_nodes) - 1][len(t_nodes) - 1]


def tree_edit_similarity(source: SchemaTree, target: SchemaTree,
                         config=None) -> float:
    """Distance normalized to a similarity: ``1 - d / (n + m)``."""
    distance = tree_edit_distance(source, target, config)
    return 1.0 - distance / (source.size + target.size)


class TreeEditMatcher(Matcher):
    """Tree-edit baseline exposing the full subtree-distance table.

    The Zhang-Shasha DP fills a distance for *every* (source subtree,
    target subtree) pair as a byproduct; each is normalized by the
    subtree sizes to yield a score matrix.
    """

    name = "tree-edit"

    def __init__(self, config=None):
        self.config = config or TreeEditConfig()

    def match_context(self, ctx) -> ScoreMatrix:
        matrix = ScoreMatrix(ctx.source, ctx.target, "postorder")
        treedist, s_nodes, t_nodes = _zhang_shasha(
            ctx.source.root, ctx.target.root, self.config
        )
        s_sizes = [node.size for node in s_nodes]
        t_sizes = [node.size for node in t_nodes]
        for i, s_node in enumerate(s_nodes):
            for j, t_node in enumerate(t_nodes):
                denominator = s_sizes[i] + t_sizes[j]
                score = max(0.0, 1.0 - treedist[i][j] / denominator)
                matrix.set(s_node, t_node, score)
        ctx.stats.count("tree-edit.pairs", len(matrix))
        return matrix
