"""Match evidence: the facts a constraint evaluator reads.

:class:`MatchEvidence` is a thin, backend-agnostic view over a match:
the tree QoM, the selected correspondences (with per-axis breakdowns
when the matcher can explain itself), and -- when available -- the
parsed source/target :class:`~repro.xsd.model.SchemaTree`\\ s that
structural predicates (``subtree-covered``, ``unmapped-count``,
``datatype-compatible``, ``cardinality-preserved``) need.

Evidence is always derived from the *payload dict* produced by
:func:`repro.matching.io.result_to_payload` (plus the axis keys attached
by :func:`attach_result_axes`), never from live matcher state.  That is
what makes constraint reports byte-identical across the inline and
pool backends: both produce the identical payload, and evaluation
happens over that payload alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MatchEvidence", "attach_result_axes", "breakdown_axes"]


def breakdown_axes(breakdown) -> dict:
    """Flatten an :class:`~repro.core.qmatch.AxisBreakdown` to axis floats."""
    axes = {
        "label": breakdown.label_score,
        "properties": breakdown.properties_score,
        "level": breakdown.level_score,
        "children": breakdown.children_score,
    }
    if breakdown.instance_score is not None:
        axes["instance"] = breakdown.instance_score
    return axes


def attach_result_axes(payload: dict, result, matcher, source, target, context=None) -> dict:
    """Attach per-correspondence ``axes`` and root-pair ``root_axes``.

    Mutates and returns ``payload``.  A no-op for matchers that cannot
    explain themselves (only :class:`~repro.core.qmatch.QMatchMatcher`
    exposes ``explain``); reusing the run's ``context`` avoids re-scoring
    every pair from scratch.
    """
    explain = getattr(matcher, "explain", None)
    if explain is None:
        return payload
    matrix = result.matrix
    for entry in payload.get("correspondences", ()):
        breakdown = explain(
            source,
            target,
            entry["source"],
            entry["target"],
            matrix=matrix,
            context=context,
        )
        entry["axes"] = breakdown_axes(breakdown)
    root = explain(
        source,
        target,
        source.root.name,
        target.root.name,
        matrix=matrix,
        context=context,
    )
    payload["root_axes"] = breakdown_axes(root)
    return payload


@dataclass
class MatchEvidence:
    """Everything the constraint evaluator may inspect for one match."""

    tree_qom: Optional[float] = None
    correspondences: list = field(default_factory=list)
    root_axes: Optional[dict] = None
    source_tree: Optional[object] = None
    target_tree: Optional[object] = None
    #: Best correspondence per source path (highest score; ties broken by
    #: target path so the pick is deterministic).
    by_source: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_source:
            best: dict = {}
            for entry in self.correspondences:
                path = entry.get("source")
                if path is None:
                    continue
                current = best.get(path)
                key = (-float(entry.get("score", 0.0)), str(entry.get("target", "")))
                if current is None or key < current[0]:
                    best[path] = (key, entry)
            self.by_source = {path: entry for path, (_, entry) in best.items()}

    @classmethod
    def from_payload(cls, payload: dict, source_tree=None, target_tree=None) -> "MatchEvidence":
        """Build evidence from a stored/transported result payload."""
        return cls(
            tree_qom=payload.get("tree_qom"),
            correspondences=[dict(c) for c in payload.get("correspondences", ())],
            root_axes=payload.get("root_axes"),
            source_tree=source_tree,
            target_tree=target_tree,
        )

    @classmethod
    def from_result(cls, result, source, target, matcher=None, context=None) -> "MatchEvidence":
        """Build evidence from a live :class:`MatchResult`.

        Goes through the canonical payload form (with axes attached when
        ``matcher`` can explain) so in-process evaluation agrees byte for
        byte with the service backends.
        """
        from repro.matching.io import result_to_payload

        payload = result_to_payload(result)
        if matcher is not None:
            attach_result_axes(payload, result, matcher, source, target, context=context)
        return cls.from_payload(payload, source_tree=source, target_tree=target)

    @classmethod
    def from_trace(cls, spans, meta=None) -> "MatchEvidence":
        """Build partial evidence from trace spans (``qmatch explain``).

        Uses each source path's best *accepted* span as its
        correspondence; schema trees are unavailable, so structural
        predicates will report that limitation rather than guess.
        """
        correspondences = []
        root_axes = None
        tree_qom = None
        for span in spans:
            source = span.get("source", "")
            target = span.get("target", "")
            axes = {
                name: axis.get("score")
                for name, axis in (span.get("axes") or {}).items()
                if isinstance(axis, dict) and axis.get("score") is not None
            }
            if "/" not in source and "/" not in target:
                root_axes = axes or None
                tree_qom = span.get("qom")
            if span.get("accepted"):
                correspondences.append(
                    {
                        "source": source,
                        "target": target,
                        "score": span.get("qom", 0.0),
                        "category": span.get("category"),
                        "axes": axes or None,
                    }
                )
        return cls(
            tree_qom=tree_qom,
            correspondences=correspondences,
            root_axes=root_axes,
        )
