"""Result types shared by every matcher."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.matching.classes import MatchCategory
from repro.xsd.model import SchemaNode, SchemaTree


@dataclass(frozen=True)
class Correspondence:
    """One proposed node-to-node match.

    ``category`` is the qualitative QoM taxonomy label when the producing
    matcher computes one (QMatch does; the baselines leave it ``None``).
    """

    source_path: str
    target_path: str
    score: float
    category: Optional[str] = None

    def as_tuple(self):
        return (self.source_path, self.target_path)

    def __str__(self):
        category = f" [{self.category}]" if self.category else ""
        return f"{self.source_path} <-> {self.target_path} ({self.score:.3f}){category}"


#: How far outside ``[0, 1]`` float noise may carry a score.
SCORE_NOISE = 1e-9


def checked_score(score: float, source_path: str, target_path: str) -> float:
    """``score`` clamped into ``[0, 1]``; a score outside the range by
    more than float noise raises, so a malformed QoM model fails loudly."""
    if not -SCORE_NOISE <= score <= 1 + SCORE_NOISE:
        raise ValueError(
            f"score {score!r} for ({source_path}, {target_path}) "
            "is outside [0, 1]"
        )
    return min(1.0, max(0.0, score))


class ScoreMatrix:
    """Pairwise similarity grid over the two trees' node paths.

    Rows are ``source_paths`` and columns ``target_paths`` (unique, as
    sibling labels are), both in the node ``order`` ("preorder" or
    "postorder") the producer names.  ``scores`` is one float64 grid in
    which **NaN means unset**: :meth:`get` returns its default there, and
    ``len`` and :meth:`items` skip the cell.  A producer hands over a
    grid of clamped scores or fills cells through :meth:`set`, which
    rejects scores outside ``[0, 1]`` so a malformed QoM model fails
    loudly.  ``categories`` is an optional parallel int8 grid of
    taxonomy codes (positions in :class:`MatchCategory`; -1 is unset).
    """

    def __init__(self, source: SchemaTree, target: SchemaTree,
                 order="preorder", scores=None, categories=None):
        walk = {"preorder": SchemaNode.iter_preorder, "postorder": SchemaNode.iter_postorder}[order]
        self.source, self.target, self.order = source, target, order
        self.source_paths = [node.path for node in walk(source.root)]
        self.target_paths = [node.path for node in walk(target.root)]
        self.row_index = {path: i for i, path in enumerate(self.source_paths)}
        self.column_index = {path: j for j, path in enumerate(self.target_paths)}
        shape = (len(self.source_paths), len(self.target_paths))
        self.scores = (np.full(shape, np.nan) if scores is None
                       else np.asarray(scores, dtype=np.float64).reshape(shape))
        self.category_codes = (
            None if categories is None
            else np.asarray(categories, dtype=np.int8).reshape(shape))

    def set(self, source_node: SchemaNode, target_node: SchemaNode, score: float):
        source_path, target_path = source_node.path, target_node.path
        row, column = self.row_index[source_path], self.column_index[target_path]
        self.scores[row, column] = checked_score(score, source_path, target_path)

    def cell(self, source_path, target_path) -> Optional[tuple[int, int]]:
        """``(row, column)`` of a path pair; ``None`` if a path is absent."""
        row = self.row_index.get(source_path)
        column = self.column_index.get(target_path)
        return None if row is None or column is None else (row, column)

    def get(self, source_node, target_node, default=0.0) -> float:
        return self.get_by_path(source_node.path, target_node.path, default)

    def get_by_path(self, source_path, target_path, default=0.0) -> float:
        cell = self.cell(source_path, target_path)
        score = np.nan if cell is None else self.scores[cell]
        return default if score != score else float(score)

    def items(self) -> Iterator[tuple[tuple[str, str], float]]:
        """Every set cell as ``((source path, target path), score)``, by row."""
        is_set = ~np.isnan(self.scores)
        return zip(self._pairs(is_set), self.scores[is_set].tolist())

    def _pairs(self, mask) -> Iterator[tuple[str, str]]:
        rows, columns = np.nonzero(mask)
        s_paths, t_paths = self.source_paths, self.target_paths
        return ((s_paths[row], t_paths[column])
                for row, column in zip(rows.tolist(), columns.tolist()))

    def __len__(self):
        return int(np.count_nonzero(~np.isnan(self.scores)))

    @property
    def categories(self) -> Optional[Mapping[tuple[str, str], str]]:
        """Read-only category value per path pair; ``None`` if not recorded."""
        return None if self.category_codes is None else CategoryView(self)

    def best_for_source(self, source_path) -> Optional[tuple[str, float]]:
        """The highest-scoring target for one source path, or ``None``."""
        candidates = self.top_candidates(source_path, 1)
        return candidates[0] if candidates else None

    def top_candidates(self, source_path, k=5) -> list[tuple[str, float]]:
        """The ``k`` best-scoring targets for one source path, ties by path.

        The debugging view: when a correspondence looks wrong, the
        runner-up list shows how close the alternatives were.
        """
        row = self.row_index.get(source_path)
        if row is None:
            return []
        candidates = [
            (t_path, score)
            for t_path, score in zip(self.target_paths, self.scores[row].tolist())
            if score == score  # not unset (NaN)
        ]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        return candidates[:k]


#: A category code's taxonomy value; code -1 (unset) reads the last, None.
CATEGORY_VALUES = tuple(category.value for category in MatchCategory) + (None,)

#: A category's code, keyed by its value.
CATEGORY_CODES = {value: code for code, value in enumerate(CATEGORY_VALUES[:-1])}


@dataclass(eq=False)  # equality is the Mapping's: same items
class CategoryView(Mapping):
    """A matrix's category codes as a path-pair mapping; unset cells are absent."""

    matrix: ScoreMatrix

    def __getitem__(self, pair):
        cell = self.matrix.cell(*pair)
        code = -1 if cell is None else self.matrix.category_codes[cell]
        if code < 0:
            raise KeyError(pair)
        return CATEGORY_VALUES[code]

    def __iter__(self):
        return self.matrix._pairs(self.matrix.category_codes >= 0)

    def __len__(self):
        return int(np.count_nonzero(self.matrix.category_codes >= 0))


@dataclass
class MatchResult:
    """Everything a matcher run produces.

    Attributes
    ----------
    algorithm:
        Name of the producing matcher (``"linguistic"``, ``"structural"``,
        ``"qmatch"``).
    matrix:
        The full pairwise :class:`ScoreMatrix`.
    correspondences:
        The selected one-to-one matches, sorted by descending score.
    tree_qom:
        The overall QoM of the two schemas -- the score of the root pair
        (what the paper reports to the user as "the total match value").
    """

    algorithm: str
    matrix: ScoreMatrix
    correspondences: list[Correspondence] = field(default_factory=list)
    tree_qom: float = 0.0
    #: Selection strategy that produced ``correspondences`` (refinement
    #: re-selects with the same one by default).
    strategy: str = "greedy"
    #: Per-stage instrumentation of the run (wall time, pair counts,
    #: cache hit/miss) -- an :class:`repro.engine.stats.EngineStats`
    #: when produced through :meth:`Matcher.match`, else ``None``.
    stats: Optional[object] = None
    #: Short hash of (algorithm config, threshold, strategy) identifying
    #: exactly which configuration produced this result -- set by
    #: :meth:`Matcher.match`, persisted by :meth:`to_json`, and the
    #: config component of the service result-store key.
    config_fingerprint: Optional[str] = None
    #: The :class:`repro.obs.trace.TraceRecorder` that captured this
    #: run's per-pair decision spans -- only set when the run's context
    #: carried an enabled tracer (``qmatch match --trace``), else
    #: ``None``.  Not persisted by :meth:`to_json`; traces have their
    #: own JSON-lines format.
    trace: Optional[object] = None

    @property
    def matched_source_paths(self) -> set[str]:
        return {c.source_path for c in self.correspondences}

    @property
    def pairs(self) -> set[tuple[str, str]]:
        return {c.as_tuple() for c in self.correspondences}

    def correspondence_for(self, source_path) -> Optional[Correspondence]:
        for correspondence in self.correspondences:
            if correspondence.source_path == source_path:
                return correspondence
        return None

    def unmatched_sources(self) -> list[str]:
        """Source node paths with no selected correspondence."""
        matched = self.matched_source_paths
        return [
            node.path for node in self.matrix.source
            if node.path not in matched
        ]

    def unmatched_targets(self) -> list[str]:
        """Target node paths with no selected correspondence."""
        matched = {c.target_path for c in self.correspondences}
        return [
            node.path for node in self.matrix.target
            if node.path not in matched
        ]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Self-describing JSON form (algorithm + config fingerprint).

        Round-trips through :meth:`from_json`; the payload is what
        ``qmatch match --save`` writes, ``qmatch diff`` reads, and the
        service's :class:`~repro.service.store.ResultStore` persists.
        """
        from repro.matching.io import result_to_json

        return result_to_json(self, indent=indent)

    @staticmethod
    def from_json(text: str):
        """Load a saved result as a :class:`repro.matching.io.StoredResult`.

        The score matrix is intentionally not persisted, so the loaded
        object is the lightweight stored form, not a full
        :class:`MatchResult`; correspondences, metadata and the config
        fingerprint survive the round trip.
        """
        from repro.matching.io import result_from_json

        return result_from_json(text)

    def summary(self) -> str:
        lines = [
            f"algorithm: {self.algorithm}",
            f"tree QoM : {self.tree_qom:.4f}",
            f"matches  : {len(self.correspondences)}",
        ]
        lines.extend(f"  {c}" for c in self.correspondences)
        return "\n".join(lines)
