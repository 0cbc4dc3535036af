"""Result types shared by every matcher."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

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
    """Dense pairwise similarity store keyed by node paths.

    Node identity inside a single tree is its label path; the paper's
    schemas (and ours) have unique paths because sibling labels are
    unique.  Scores outside ``[0, 1]`` are rejected at insertion so a
    malformed QoM model fails loudly.
    """

    def __init__(self, source: SchemaTree, target: SchemaTree):
        self.source = source
        self.target = target
        self._scores: dict[tuple[str, str], float] = {}
        #: Optional qualitative taxonomy category per pair, filled by
        #: matchers that classify (QMatch does).
        self.categories: dict[tuple[str, str], str] | None = None

    def set(self, source_node: SchemaNode, target_node: SchemaNode, score: float):
        source_path, target_path = source_node.path, target_node.path
        self._scores[(source_path, target_path)] = checked_score(
            score, source_path, target_path
        )

    def set_grid(self, source_paths, target_paths, scores):
        """Fill the matrix from a row-major grid of already-validated,
        clamped scores (``scores[i * len(target_paths) + j]`` belongs to
        ``(source_paths[i], target_paths[j])``), in that order."""
        keys = [(s, t) for s in source_paths for t in target_paths]
        self._scores.update(zip(keys, scores))
        return keys

    def get(self, source_node, target_node, default=0.0) -> float:
        return self._scores.get((source_node.path, target_node.path), default)

    def get_by_path(self, source_path, target_path, default=0.0) -> float:
        return self._scores.get((source_path, target_path), default)

    def items(self) -> Iterator[tuple[tuple[str, str], float]]:
        return iter(self._scores.items())

    def __len__(self):
        return len(self._scores)

    def best_for_source(self, source_path) -> Optional[tuple[str, float]]:
        """The highest-scoring target for one source path, or ``None``."""
        candidates = self.top_candidates(source_path, 1)
        return candidates[0] if candidates else None

    def top_candidates(self, source_path, k=5) -> list[tuple[str, float]]:
        """The ``k`` best-scoring targets for one source path.

        The debugging view: when a correspondence looks wrong, the
        runner-up list shows how close the alternatives were.
        """
        candidates = [
            (t_path, score)
            for (s_path, t_path), score in self._scores.items()
            if s_path == source_path
        ]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        return candidates[:k]


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
