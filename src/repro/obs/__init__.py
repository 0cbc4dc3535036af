"""Observability: decision traces, metrics exposition, structured logs.

The three pillars, each deliberately stdlib-only and mergeable across
the fork boundary the batch service runs jobs behind:

- :mod:`repro.obs.trace` -- hierarchical per-pair **decision traces** of
  a QMatch run (per-axis contributions, taxonomy category, threshold
  decision, cache provenance, child-span links), serialized as
  JSON-lines with a stable schema version and a run ID.  Zero-cost when
  disabled: matchers guard on one ``tracer.enabled`` branch per pair.
- :mod:`repro.obs.metrics` -- a **metrics registry** (counters, gauges,
  fixed-bucket histograms) rendered in Prometheus text exposition
  format; :func:`~repro.obs.metrics.engine_stats_metrics` absorbs an
  :class:`~repro.engine.stats.EngineStats` snapshot so one ``/metrics``
  scrape covers HTTP traffic *and* engine internals.
- :mod:`repro.obs.log` -- **structured event logging**: run-ID-stamped
  JSON records on a stream, replacing ad-hoc stderr prints in the
  service and search layers.

:mod:`repro.obs.explain` renders a recorded trace back into the
human-readable per-axis decision breakdown behind ``qmatch explain``.

Two request-scoped pillars complete the picture:

- :mod:`repro.obs.spans` -- **pipeline span trees**: one sampled HTTP
  request yields a single stitched tree of monotonic-duration spans
  across the asyncio front end, the worker pool's pipe boundary and
  the corpus search stages, exported as OTLP-shaped JSONL.
- :mod:`repro.obs.slo` -- **SLO / error-budget tracking** over the
  existing request histograms, surfaced as ``qmatch_slo_*`` gauges
  and ``GET /slo``.
"""

from repro.obs.log import NULL_LOGGER, EventLogger, new_run_id
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    corpus_index_metrics,
    engine_stats_metrics,
)
from repro.obs.slo import (
    SLObjective,
    default_slos,
    evaluate_slos,
    parse_slo,
    slo_metrics,
)
from repro.obs.spans import (
    NULL_SPAN_TRACER,
    HeadSampler,
    RequestTracing,
    SpanFileExporter,
    SpanStore,
    SpanTracer,
    current_request_id,
    current_tracer,
    load_span_file,
    render_span_report,
    render_waterfall,
    span_report,
    use_request_id,
    use_tracer,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Trace,
    TraceRecorder,
    load_trace,
    trace_run_id,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "EventLogger",
    "HeadSampler",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_SPAN_TRACER",
    "NULL_TRACER",
    "RequestTracing",
    "SLObjective",
    "SpanFileExporter",
    "SpanStore",
    "SpanTracer",
    "TRACE_SCHEMA",
    "Trace",
    "TraceRecorder",
    "corpus_index_metrics",
    "current_request_id",
    "current_tracer",
    "default_slos",
    "engine_stats_metrics",
    "evaluate_slos",
    "load_span_file",
    "load_trace",
    "new_run_id",
    "parse_slo",
    "render_span_report",
    "render_waterfall",
    "slo_metrics",
    "span_report",
    "trace_run_id",
    "use_request_id",
    "use_tracer",
]
