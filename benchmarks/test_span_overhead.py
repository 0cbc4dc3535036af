"""Span-pipeline overhead benchmark: the untraced guard must stay free.

The request pipeline (router, admission, job execution, corpus stages,
response write) is instrumented with span points that all collapse to
``if tracer.enabled`` checks against :data:`NULL_SPAN_TRACER` when a
request is not sampled.  This module prices the full served ``/match``
pipeline three ways, driving :func:`handle_api_request` exactly as the
transports do (socket noise excluded, every instrumented layer
included):

- **baseline** -- a service with tracing unconfigured (``tracing`` is
  ``None``; transports hand the NULL tracer straight through);
- **guard** -- tracing configured at sample rate 0.0: the head sampler
  draws per request, every span point runs its guard, no span is ever
  created;
- **traced** -- sample rate 1.0: every request builds its full span
  tree into the in-process store.

The contract mirrors the trace-overhead benchmark: the never-sampled
guard path costs at most 5% over the unconfigured baseline, and full
span recording at most 2x.
"""

import json

from repro.obs.spans import RequestTracing
from repro.service.http_api import (
    finish_request,
    handle_api_request,
    open_request,
)
from repro.service.server import MatchService
from repro.xsd.builder import TreeBuilder
from repro.xsd.serializer import to_xsd

from conftest import best_of_interleaved, write_result

#: Best-of ROUNDS, each round averaging ITERATIONS served requests.
ROUNDS = 7
ITERATIONS = 15

#: The guard path may cost at most this factor over no tracing at all.
GUARD_BUDGET = 1.05

#: Building the full span tree may cost at most this factor.
TRACED_BUDGET = 2.0


def _match_body() -> bytes:
    builder = TreeBuilder("Order")
    builder.leaf("OrderNo", type_name="integer")
    builder.leaf("Date", type_name="date")
    source = builder.build()
    builder = TreeBuilder("PurchaseOrder")
    builder.leaf("OrderNumber", type_name="integer")
    builder.leaf("OrderDate", type_name="date")
    return json.dumps({
        "source_xsd": to_xsd(source),
        "target_xsd": to_xsd(builder.build()),
    }).encode("utf-8")


def _serve_once(service, body: bytes) -> None:
    # The transport's per-request sequence, minus the socket.
    tracer, request_id = open_request(service)
    response = handle_api_request(
        service, "POST", "/match", body,
        tracer=tracer, request_id=request_id,
    )
    assert response.status == 200, response.body
    finish_request(service, tracer)


def test_span_guard_overhead(benchmark):
    body = _match_body()
    # One service per variant, all bounded to the same registry size so
    # no variant pays for records another variant accumulated.
    services = [
        MatchService(workers=1, mode="inline", max_jobs=8)
        for _ in range(3)
    ]
    services[1].tracing = RequestTracing(0.0)
    services[2].tracing = RequestTracing(1.0)
    try:
        for service in services:  # warm every code path once
            _serve_once(service, body)
        benchmark.pedantic(
            lambda: _serve_once(services[0], body), rounds=3, iterations=1,
        )
        baseline_s, guard_s, traced_s = best_of_interleaved([
            lambda: _serve_once(services[0], body),
            lambda: _serve_once(services[1], body),
            lambda: _serve_once(services[2], body),
        ], ROUNDS, ITERATIONS)
    finally:
        for service in services:
            service.shutdown()

    write_result(
        "span_overhead",
        "Span-pipeline overhead: served /match, best-of-7 mean of 15 "
        "requests (seconds)",
        "\n".join([
            f"tracing unconfigured       : {baseline_s:.6f}",
            f"sampler on, rate 0 (guard) : {guard_s:.6f}"
            f"  ({guard_s / baseline_s:.3f}x, budget "
            f"{GUARD_BUDGET:.2f}x)",
            f"sampled, full span tree    : {traced_s:.6f}"
            f"  ({traced_s / baseline_s:.3f}x, budget "
            f"{TRACED_BUDGET:.2f}x)",
        ]),
    )

    assert guard_s <= baseline_s * GUARD_BUDGET, (
        f"guard path {guard_s:.6f}s exceeds {GUARD_BUDGET:.2f}x the "
        f"unconfigured baseline {baseline_s:.6f}s"
    )
    assert traced_s <= baseline_s * TRACED_BUDGET, (
        f"traced path {traced_s:.6f}s exceeds {TRACED_BUDGET:.2f}x the "
        f"unconfigured baseline {baseline_s:.6f}s"
    )


def test_sampled_payload_matches_unsampled():
    """Tracing must never leak into the served payload bytes."""
    body = _match_body()
    bodies = {}
    for rate in (None, 1.0):
        service = MatchService(workers=1, mode="inline")
        if rate is not None:
            service.tracing = RequestTracing(rate)
        try:
            tracer, request_id = open_request(service)
            response = handle_api_request(
                service, "POST", "/match", body,
                tracer=tracer, request_id=request_id,
            )
            finish_request(service, tracer)
            payload = json.loads(response.body)
            # timings vary run to run; the result payload must not
            del payload["elapsed_seconds"]
            payload.pop("submitted_at", None)
            bodies[rate] = json.dumps(payload, sort_keys=True)
        finally:
            service.shutdown()
    assert bodies[None] == bodies[1.0]
