"""Per-pair decision traces of a QMatch run.

A trace answers "why did ``PO1/Address`` match ``PO2/DeliverTo`` at
0.82, and which axis carried it?".  Every scored (source, target) pair
becomes one **span** carrying:

- the per-axis evidence: L/P/H/C scores, the configured weights and the
  resulting contributions (``contribution = weight * score``, summing to
  the pair's QoM);
- the Section-2 taxonomy category the pair was classified as;
- the threshold decision (``accepted = qom >= threshold``, the child
  threshold of the recursion);
- engine-cache provenance (whether the label / property comparison was
  served from the :class:`~repro.engine.context.MatchContext` memo);
- ``children`` links: the span ids of the child pairs that counted
  toward the children axis, mirroring the depth-first recursion.

Spans are recorded in deterministic postorder-grid order and serialized
as JSON-lines -- a header record first (schema version, run ID, run
metadata), then one line per span, every record with sorted keys and
compact separators so the same run always produces the same bytes.
That byte stability is what lets the batch runner collect traces from
forked worker processes and the tests assert a worker-side trace equals
an inline run bit for bit.

Tracing is **zero-cost when disabled**: :data:`NULL_TRACER` is a
falsy-``enabled`` singleton and a QMatch run checks ``tracer.enabled``
once.  A traced run scores exactly like an untraced one and then records
its spans from the grids it scored, so tracing adds no per-pair work to
scoring.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

#: Stable schema identifier stamped on every trace header.  Bump the
#: suffix when the span layout changes incompatibly.
TRACE_SCHEMA = "qmatch-trace/1"

#: json.dumps kwargs shared by every record: sorted keys + compact
#: separators make serialization deterministic (byte-identical across
#: processes for identical runs).
_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}


def trace_run_id(*parts: str) -> str:
    """Deterministic run ID from identifying strings (hashes, config).

    Used where reproducibility matters more than uniqueness: a forked
    worker and an inline rerun of the same job derive the same run ID,
    so their traces are byte-identical.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class _NullTracer:
    """The disabled recorder: one attribute read, nothing else."""

    enabled = False
    __slots__ = ()

    def __repr__(self):
        return "<NULL_TRACER>"


#: Shared no-op recorder used wherever tracing is off.
NULL_TRACER = _NullTracer()


class TraceRecorder:
    """Collects pair spans for one match run.

    ``run_id`` defaults to empty and is usually supplied by the caller
    (deterministic via :func:`trace_run_id`, or a fresh
    :func:`repro.obs.log.new_run_id` for interactive runs).
    """

    enabled = True

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.meta: dict = {}
        self.spans: list[dict] = []

    # ------------------------------------------------------------------
    # Recording (called once per pair after a QMatch run scored)
    # ------------------------------------------------------------------

    def begin_run(self, **meta):
        """Stamp run metadata (algorithm, schema names, weights, config).

        Idempotent per key set: a second ``begin_run`` (a matcher re-run
        on the same recorder) overwrites the metadata, not the spans.
        """
        self.meta = meta

    def span_id(self, source_path: str, target_path: str) -> Optional[int]:
        """The id of the latest span recorded for a pair, or ``None``."""
        return next((span["id"] for span in reversed(self.spans)
                     if (span["source"], span["target"])
                     == (source_path, target_path)), None)

    def record_pair(self, source_path: str, target_path: str, *,
                    qom: float, category: str, threshold: float,
                    accepted: bool, axes: dict,
                    children_spans=()) -> int:
        """Record one scored pair; returns its span id.

        ``axes`` is the per-axis evidence dict (see module docstring);
        ``children_spans`` the ids of child-pair spans that counted
        toward the children axis.
        """
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "source": source_path,
            "target": target_path,
            "qom": qom,
            "category": category,
            "threshold": threshold,
            "accepted": accepted,
            "axes": axes,
            "children": list(children_spans),
        })
        return span_id

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """Picklable/JSON-friendly snapshot (what crosses the fork pipe)."""
        return {
            "schema": TRACE_SCHEMA,
            "run_id": self.run_id,
            "meta": dict(self.meta),
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceRecorder":
        """Rehydrate a recorder from an :meth:`as_dict` snapshot."""
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA:
            raise ValueError(
                f"unsupported trace schema {schema!r} "
                f"(this build reads {TRACE_SCHEMA!r})"
            )
        recorder = cls(run_id=payload.get("run_id", ""))
        recorder.meta = dict(payload.get("meta") or {})
        recorder.spans.extend(payload.get("spans") or ())
        return recorder

    def to_jsonl(self) -> str:
        """The JSON-lines form: header record, then one line per span."""
        header = {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "run_id": self.run_id,
            "spans": len(self.spans),
            **{f"meta.{key}": value for key, value in sorted(self.meta.items())},
        }
        lines = [json.dumps(header, **_JSON_KWARGS)]
        for span in self.spans:
            lines.append(json.dumps(dict(span, record="span"), **_JSON_KWARGS))
        return "\n".join(lines) + "\n"

    def write(self, path) -> Path:
        """Write the JSON-lines trace to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def __len__(self):
        return len(self.spans)

    def __repr__(self):
        return (
            f"<TraceRecorder run_id={self.run_id!r} spans={len(self.spans)}>"
        )


class Trace:
    """A loaded trace with pair-lookup helpers (what ``explain`` reads)."""

    def __init__(self, header: dict, spans: list[dict]):
        self.header = header
        self.spans = spans
        self._by_id = {span["id"]: span for span in spans}
        self._by_pair = {
            (span["source"], span["target"]): span for span in spans
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        header: dict = {}
        spans: list[dict] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"trace line {line_no} is not valid JSON: {exc}"
                ) from None
            kind = record.get("record")
            if kind == "header":
                schema = record.get("schema")
                if schema != TRACE_SCHEMA:
                    raise ValueError(
                        f"unsupported trace schema {schema!r} "
                        f"(this build reads {TRACE_SCHEMA!r})"
                    )
                header = record
            elif kind == "span":
                spans.append(record)
            else:
                raise ValueError(
                    f"trace line {line_no} has unknown record kind {kind!r}"
                )
        if not header:
            raise ValueError("trace has no header record")
        return cls(header, spans)

    @classmethod
    def from_recorder(cls, recorder: TraceRecorder) -> "Trace":
        return cls.from_jsonl(recorder.to_jsonl())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.header.get("run_id", "")

    def meta(self, key: str, default=None):
        return self.header.get(f"meta.{key}", default)

    def span(self, span_id: int) -> Optional[dict]:
        return self._by_id.get(span_id)

    def find(self, source_path: str, target_path: str) -> Optional[dict]:
        return self._by_pair.get((source_path, target_path))

    def _matches(self, recorded: str, query: str) -> bool:
        """Exact path match, or a ``/``-boundary suffix like ``Address``."""
        return recorded == query or recorded.endswith("/" + query)

    def spans_for_source(self, source_path: str) -> list[dict]:
        """Every span of one source path (suffix-tolerant), best first."""
        found = [
            span for span in self.spans
            if self._matches(span["source"], source_path)
        ]
        found.sort(key=lambda span: (-span["qom"], span["target"]))
        return found

    def spans_for_pair(self, source_path: str,
                       target_path: str) -> list[dict]:
        """Spans matching both paths (suffix-tolerant), best first."""
        return [
            span for span in self.spans_for_source(source_path)
            if self._matches(span["target"], target_path)
        ]

    def best_for_source(self, source_path: str) -> Optional[dict]:
        spans = self.spans_for_source(source_path)
        return spans[0] if spans else None

    def accepted(self) -> list[dict]:
        """Every span that passed the threshold decision, best first."""
        found = [span for span in self.spans if span["accepted"]]
        found.sort(key=lambda span: (-span["qom"], span["source"],
                                     span["target"]))
        return found

    def children_of(self, span: dict) -> list[dict]:
        """The child-pair spans that counted toward a span's C axis."""
        return [
            self._by_id[child_id]
            for child_id in span.get("children", ())
            if child_id in self._by_id
        ]

    def __len__(self):
        return len(self.spans)


def load_trace(path) -> Trace:
    """Read a JSON-lines trace file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"trace file not found: {path}") from None
    return Trace.from_jsonl(text)
