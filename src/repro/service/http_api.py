"""The HTTP JSON API, independent of any transport.

The asyncio front end (:class:`~repro.service.aserver.AsyncMatchServer`,
``qmatch serve``) only reads bytes off its socket and writes the
returned :class:`ApiResponse` back; every route, status code, error
message, admission decision and metric sample is produced here.

Cross-cutting behaviour owned by this module:

- **route normalization** for metric labels (job ids collapse to
  ``{id}``, unknown paths share one bucket);
- **admission control**: job-submitting routes consult the service's
  bounded admission queue and answer ``429`` with a ``Retry-After``
  header when saturated, ``503`` while draining;
- **body handling**: empty/oversized/non-JSON/truncated bodies become
  the same 400/413 records everywhere;
- **metrics**: every request lands in ``http_requests_total`` /
  ``http_request_seconds`` exactly once (the ``/metrics`` scrape
  records itself *before* rendering, so the first scrape already
  carries samples).  The clock starts at the transport's ``started``,
  read once the request head is parsed (the ``http.request`` span's
  start), so idle keep-alive time is not counted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs

from repro.obs.log import new_run_id
from repro.obs.spans import (
    NULL_SPAN_TRACER,
    current_tracer,
    use_request_id,
    use_tracer,
)
from repro.service.jobs import JobState
from repro.service.validation import ValidationError

#: Client-supplied ``X-Request-Id`` values are trusted but bounded.
MAX_REQUEST_ID_CHARS = 128

#: Default page size of ``GET /jobs`` (override per request with
#: ``?limit=``; capped at MAX_JOBS_PAGE).
DEFAULT_JOBS_PAGE = 100
MAX_JOBS_PAGE = 1000


class ServiceSaturated(Exception):
    """Admission control rejected the request (queue full)."""

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceDraining(Exception):
    """The service is shutting down and takes no new work."""


class PayloadTooLarge(ValueError):
    """The request body exceeds the service's size limit."""

    def __init__(self, length: int, limit: int):
        super().__init__(
            f"request body of {length} bytes exceeds the "
            f"{limit}-byte limit"
        )
        self.length = length
        self.limit = limit


@dataclass
class ApiResponse:
    """What a transport writes back: status, headers, body bytes."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: list = field(default_factory=list)
    #: Normalized route label (for transports that log per route).
    route: str = "(unknown)"
    close: bool = False


def json_response(status: int, payload: dict, *, route: str = "(unknown)",
                  headers: Optional[list] = None,
                  close: bool = False) -> ApiResponse:
    return ApiResponse(
        status=status,
        body=json.dumps(payload).encode("utf-8"),
        content_type="application/json",
        headers=list(headers or ()),
        route=route,
        close=close,
    )


def route_label(parts: list) -> str:
    """Normalized route template for metric labels.

    Job ids collapse to ``{id}`` and unknown paths collapse to one
    bucket, so label cardinality stays bounded no matter what clients
    request.
    """
    if not parts:
        return "/"
    if parts[0] == "jobs" and len(parts) == 2:
        return "/jobs/{id}"
    if (parts[0] == "jobs" and len(parts) == 3
            and parts[2] in ("result", "trace")):
        return "/jobs/{id}/" + parts[2]
    if len(parts) == 1 and parts[0] in (
        "healthz", "stats", "metrics", "jobs", "match", "search", "slo",
    ):
        return "/" + parts[0]
    return "(unknown)"


def open_request(service, headers: Optional[dict] = None) -> tuple:
    """Per-request identity for a transport: ``(tracer, request_id)``.

    Takes the head-sampling decision (when the service has tracing
    configured) and resolves the request id: a client-supplied
    ``X-Request-Id`` header wins, else the id derives from the trace
    id so log lines, spans and the response header all correlate.
    """
    tracing = getattr(service, "tracing", None)
    if tracing is not None:
        tracer, trace_id = tracing.start_request()
    else:
        tracer, trace_id = NULL_SPAN_TRACER, ""
    client_id = ""
    if headers:
        client_id = str(
            headers.get("x-request-id")
            or headers.get("X-Request-Id") or ""
        ).strip()[:MAX_REQUEST_ID_CHARS]
    request_id = client_id or (trace_id[:16] if trace_id else new_run_id())
    return tracer, request_id


def finish_request(service, tracer) -> None:
    """Flush a sampled request's span tree to the store/exporter."""
    if not getattr(tracer, "enabled", False):
        return
    tracing = getattr(service, "tracing", None)
    if tracing is not None:
        tracing.complete(tracer)


def stamp_request_id(response: ApiResponse, request_id: str) -> None:
    """Attach the ``X-Request-Id`` header (every response carries one)."""
    if request_id:
        response.headers.append(("X-Request-Id", request_id))


def parse_body(raw: Optional[bytes]) -> dict:
    """The JSON body of a POST, with the canonical error records."""
    if not raw:
        raise ValidationError("request body is empty")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"request body is not valid JSON: {exc}"
        ) from None


def _int_param(params: dict, name: str, default: int,
               minimum: int = 0) -> int:
    values = params.get(name)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise ValidationError(
            f"invalid {name} {values[-1]!r}: expected an integer"
        ) from None
    if value < minimum:
        raise ValidationError(
            f"invalid {name} {value}: must be >= {minimum}"
        )
    return value


def handle_api_request(service, method: str, path: str,
                       raw_body: Optional[bytes],
                       started: Optional[float] = None,
                       tracer=NULL_SPAN_TRACER,
                       request_id: Optional[str] = None,
                       request_headers: Optional[dict] = None,
                       ) -> ApiResponse:
    """Dispatch one request against ``service`` and record its metrics.

    ``raw_body`` is the request body for POSTs (``None`` for GETs);
    the transport enforces the byte-size cap while *reading* (so an
    oversized body is never buffered) and call
    :func:`too_large_response` instead.

    ``tracer``/``request_id`` come from :func:`open_request` on the
    transport side; both are bound into request-scoped context here --
    deliberately *inside* the executor thread, because contextvars do
    not cross ``run_in_executor``.  Every response leaves with an
    ``X-Request-Id`` header (derived here when no transport supplied
    one, e.g. for embedded/direct callers).
    """
    started = started if started is not None else time.perf_counter()
    if request_id is None:
        client_id = ""
        if request_headers:
            client_id = str(
                request_headers.get("x-request-id") or ""
            ).strip()[:MAX_REQUEST_ID_CHARS]
        request_id = client_id or new_run_id()
    path, _, query = path.partition("?")
    parts = [part for part in path.split("/") if part]
    route = route_label(parts)
    params = parse_qs(query, keep_blank_values=True)
    with use_tracer(tracer), use_request_id(request_id), \
            tracer.span("router", {"method": method}):
        try:
            if method == "GET":
                response = _get(service, parts, route, params, started)
            elif method == "POST":
                response = _post(service, parts, route, raw_body)
            else:
                response = json_response(
                    405, {"error": f"method {method} not allowed"},
                    route=route,
                )
        except ValidationError as exc:
            response = json_response(400, {"error": str(exc)}, route=route)
        except ServiceDraining:
            response = json_response(
                503, {"error": "service is draining; no new work accepted"},
                route=route,
            )
        except ServiceSaturated as exc:
            response = json_response(
                429, {"error": str(exc), "retry_after": exc.retry_after},
                route=route,
                headers=[("Retry-After", str(exc.retry_after))],
            )
        except Exception as exc:  # noqa: BLE001 -- request boundary
            response = json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}, route=route,
            )
        tracer.annotate({"route": response.route, "status": response.status})
    stamp_request_id(response, request_id)
    if route != "/metrics":
        service.record_request(
            method, route, response.status, time.perf_counter() - started,
        )
    return response


def too_large_response(service, method: str, path: str, length: int,
                       started: float) -> ApiResponse:
    """The shared 413 record (transport detected the oversized body)."""
    error = PayloadTooLarge(length, service.max_body_bytes)
    return _transport_response(service, method, path, 413, str(error),
                               started)


def truncated_body_response(service, method: str, path: str, length: int,
                            received: int, started: float) -> ApiResponse:
    """The shared 400 record of a body that ended (the client closed)
    before its declared ``Content-Length``."""
    return _transport_response(
        service, method, path, 400,
        f"request body ended after {received} of {length} bytes", started,
    )


def _transport_response(service, method, path, status, message,
                        started) -> ApiResponse:
    """A closing error answer the transport decided on, recorded in the
    request metrics like every routed answer."""
    path = path.partition("?")[0]
    route = route_label([part for part in path.split("/") if part])
    response = json_response(
        status, {"error": message}, route=route, close=True,
    )
    service.record_request(
        method, route, status, time.perf_counter() - started,
    )
    return response


# ----------------------------------------------------------------------
# GET routes
# ----------------------------------------------------------------------

def _get(service, parts: list, route: str, params: dict,
         started: float) -> ApiResponse:
    if parts == ["healthz"]:
        return json_response(200, {"status": "ok"}, route=route)
    if parts == ["stats"]:
        return json_response(200, service.stats_snapshot(), route=route)
    if parts == ["metrics"]:
        # Record the in-flight scrape *before* rendering, so the body
        # always carries at least one HTTP counter and one latency
        # histogram sample -- even on the very first request a scraper
        # makes.
        service.record_request(
            "GET", route, 200, time.perf_counter() - started,
        )
        return ApiResponse(
            status=200,
            body=service.metrics_text().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            route=route,
        )
    if parts == ["slo"]:
        snapshot = getattr(service, "slo_snapshot", None)
        if snapshot is None:
            return json_response(
                404, {"error": "this service tracks no SLOs"}, route=route,
            )
        return json_response(200, snapshot(), route=route)
    if parts == ["jobs"]:
        offset = _int_param(params, "offset", 0, minimum=0)
        limit = _int_param(params, "limit", DEFAULT_JOBS_PAGE, minimum=1)
        limit = min(limit, MAX_JOBS_PAGE)
        records, total = service.queue.page(offset=offset, limit=limit)
        return json_response(200, {
            "jobs": [record.snapshot() for record in records],
            "total": total,
            "offset": offset,
            "limit": limit,
        }, route=route)
    if len(parts) == 2 and parts[0] == "jobs":
        record = service.queue.get(parts[1])
        if record is None:
            return json_response(
                404, {"error": f"no job {parts[1]!r}"}, route=route,
            )
        return json_response(200, record.snapshot(), route=route)
    if len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
        record = service.queue.get(parts[1])
        if record is None:
            return json_response(
                404, {"error": f"no job {parts[1]!r}"}, route=route,
            )
        if record.state is not JobState.DONE:
            return json_response(409, {
                "error": f"job {record.job_id} is {record.state.value}",
                "job": record.snapshot(),
            }, route=route)
        return json_response(200, record.result, route=route)
    if len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "trace":
        record = service.queue.get(parts[1])
        if record is None:
            return json_response(
                404, {"error": f"no job {parts[1]!r}"}, route=route,
            )
        trace = service.trace_for(parts[1])
        if trace is None:
            return json_response(404, {
                "error": (
                    f"job {record.job_id} has no trace (submit with "
                    '"trace": true; cache hits carry no trace)'
                ),
                "job": record.snapshot(),
            }, route=route)
        return json_response(200, trace, route=route)
    return json_response(
        404, {"error": f"no route for {'/' + '/'.join(parts)!r}"},
        route=route,
    )


# ----------------------------------------------------------------------
# POST routes
# ----------------------------------------------------------------------

def _post(service, parts: list, route: str,
          raw_body: Optional[bytes]) -> ApiResponse:
    if parts == ["jobs"]:
        with current_tracer().span("admission"):
            service.check_admission()
        body = parse_body(raw_body)
        spec = service.spec_from_request(body)
        record = service.submit(spec, service.constraint_from_request(body))
        return json_response(202, record.snapshot(), route=route)
    if parts == ["match"]:
        with current_tracer().span("admission"):
            service.check_admission()
        body = parse_body(raw_body)
        spec = service.spec_from_request(body)
        record = service.run_sync(spec, service.constraint_from_request(body))
        if record.state is JobState.DONE:
            return json_response(
                200, record.snapshot(include_result=True), route=route,
            )
        return json_response(500, record.snapshot(), route=route)
    if parts == ["search"]:
        with current_tracer().span("admission"):
            if service.draining:
                raise ServiceDraining()
        payload = service.search_from_request(parse_body(raw_body))
        return json_response(200, payload, route=route)
    return json_response(
        404, {"error": f"no route for {'/' + '/'.join(parts)!r}"},
        route=route,
    )
