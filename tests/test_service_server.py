"""End-to-end tests for the ``qmatch serve`` HTTP service.

The asyncio front end (:class:`~repro.service.aserver.AsyncMatchServer`)
is bound to an ephemeral port and exercised over actual HTTP:
submit-poll-fetch, the synchronous convenience route, cache behaviour,
and the 400/404/409 error paths.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import po1, po2
from repro.service.server import MatchService
from repro.service.store import ResultStore
from repro.service.validation import ValidationError
from repro.xsd.serializer import to_xsd

from tests.async_server import AsyncServerThread


@pytest.fixture()
def service(tmp_path):
    service = MatchService(workers=2, store=ResultStore(tmp_path / "cache"))
    yield service
    service.shutdown()


@pytest.fixture()
def server_url(service):
    with AsyncServerThread(service) as running:
        yield running.url


def request(url, method="GET", body=None):
    """(status, payload) for one JSON request; never raises on 4xx/5xx."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


#: Two same-named choice branches: both would have the path ``R/A``.
DUPLICATE_SIBLINGS_XSD = (
    '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
    '<xs:element name="R"><xs:complexType><xs:choice>'
    '<xs:element name="A" type="xs:string"/>'
    '<xs:element name="A" type="xs:int"/>'
    "</xs:choice></xs:complexType></xs:element></xs:schema>"
)


def po_pair_body(**extra):
    body = {"source_xsd": to_xsd(po1()), "target_xsd": to_xsd(po2())}
    body.update(extra)
    return body


def wait_for_terminal(url, job_id, deadline=10.0):
    end = time.time() + deadline
    while time.time() < end:
        status, snap = request(f"{url}/jobs/{job_id}")
        assert status == 200
        if snap["state"] not in ("pending", "running"):
            return snap
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestLifecycleOverHttp:
    def test_healthz(self, server_url):
        assert request(f"{server_url}/healthz") == (200, {"status": "ok"})

    def test_submit_poll_fetch(self, server_url):
        status, job = request(
            f"{server_url}/jobs", "POST", po_pair_body(threshold=0.5)
        )
        assert status == 202
        assert job["state"] in ("pending", "running", "done")
        snap = wait_for_terminal(server_url, job["job_id"])
        assert snap["state"] == "done"
        assert snap["found"] == 9
        status, result = request(
            f"{server_url}/jobs/{job['job_id']}/result"
        )
        assert status == 200
        assert result["algorithm"] == "qmatch"
        assert result["config_fingerprint"]
        assert 0.9 < result["tree_qom"] <= 1.0
        assert len(result["correspondences"]) == 9

    def test_jobs_listing(self, server_url):
        request(f"{server_url}/jobs", "POST", po_pair_body())
        request(f"{server_url}/jobs", "POST",
                po_pair_body(algorithm="linguistic"))
        status, listing = request(f"{server_url}/jobs")
        assert status == 200
        assert [job["job_id"] for job in listing["jobs"]] == [
            "job-0001", "job-0002",
        ]

    def test_synchronous_match_and_cache(self, server_url):
        status, first = request(
            f"{server_url}/match", "POST", po_pair_body()
        )
        assert status == 200
        assert first["state"] == "done"
        assert not first["cache_hit"]
        status, second = request(
            f"{server_url}/match", "POST", po_pair_body()
        )
        assert second["cache_hit"]
        assert second["result"] == first["result"]
        status, stats = request(f"{server_url}/stats")
        assert stats["store"]["hits"] == 1
        assert stats["store"]["entries"] == 1
        assert stats["jobs"]["done"] == 2

    def test_custom_parameters_accepted(self, server_url):
        status, record = request(
            f"{server_url}/match", "POST",
            po_pair_body(algorithm="qmatch", threshold=0.7,
                         weights="1,1,1,1", strategy="greedy"),
        )
        assert status == 200
        assert record["state"] == "done"


class TestErrorPaths:
    def test_unknown_job_404(self, server_url):
        assert request(f"{server_url}/jobs/job-9999")[0] == 404
        assert request(f"{server_url}/jobs/job-9999/result")[0] == 404

    def test_unknown_route_404(self, server_url):
        assert request(f"{server_url}/nope")[0] == 404
        assert request(f"{server_url}/nope", "POST", {})[0] == 404

    def test_result_before_done_409(self, service, server_url):
        block = threading.Event()
        original_worker = service.runner.worker

        def gated_worker(spec, state):
            block.wait(10)
            return original_worker(spec, state)

        service.runner.worker = gated_worker
        try:
            _, job = request(f"{server_url}/jobs", "POST", po_pair_body())
            status, payload = request(
                f"{server_url}/jobs/{job['job_id']}/result"
            )
            assert status == 409
            assert payload["job"]["state"] in ("pending", "running")
        finally:
            block.set()
        assert wait_for_terminal(server_url, job["job_id"])["state"] == "done"

    @pytest.mark.parametrize("body, message", [
        ({}, "non-empty source_xsd"),
        ({"source_xsd": "<broken", "target_xsd": "<broken"},
         "unparseable schema"),
        ({"source_xsd": DUPLICATE_SIBLINGS_XSD,
          "target_xsd": DUPLICATE_SIBLINGS_XSD},
         "duplicate sibling name"),
    ])
    def test_bad_submissions_400(self, server_url, body, message):
        status, payload = request(f"{server_url}/jobs", "POST", body)
        assert status == 400
        assert message in payload["error"]

    def test_invalid_json_body_400(self, server_url):
        req = urllib.request.Request(
            f"{server_url}/jobs", data=b"{ nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(excinfo.value.read())["error"]

    def test_bad_threshold_400(self, server_url):
        status, payload = request(
            f"{server_url}/jobs", "POST", po_pair_body(threshold=1.5)
        )
        assert status == 400
        assert "must be in [0, 1]" in payload["error"]

    @pytest.mark.parametrize("route", ["/jobs", "/match"])
    @pytest.mark.parametrize("field, value", [
        ("strategy", "bogus"),
        ("strategy", 7),
        ("threshold", True),
        ("timeout", True),
    ])
    def test_invalid_parameter_400_before_any_job_runs(
            self, server_url, route, field, value):
        jobs_before = request(f"{server_url}/stats")[1]["jobs"]
        status, payload = request(
            f"{server_url}{route}", "POST", po_pair_body(**{field: value})
        )
        assert status == 400
        assert f"invalid {field} {value!r}" in payload["error"]
        assert request(f"{server_url}/stats")[1]["jobs"] == jobs_before

    def test_weights_require_qmatch_400(self, server_url):
        status, payload = request(
            f"{server_url}/jobs", "POST",
            po_pair_body(algorithm="linguistic", weights="1,1,1,1"),
        )
        assert status == 400
        assert "only apply to the qmatch" in payload["error"]


class TestServiceWithoutStore:
    def test_service_runs_cacheless(self):
        service = MatchService(workers=1, store=None)
        try:
            record = service.run_sync(
                service.spec_from_request(po_pair_body())
            )
            assert record.state.value == "done"
            assert not record.cache_hit
            assert service.stats_snapshot()["store"] is None
        finally:
            service.shutdown()


class TestIsolatedMode:
    """``serve`` default: jobs run in pool worker processes, not
    in-thread."""

    def test_isolated_service_completes_jobs(self, tmp_path):
        service = MatchService(
            workers=2, store=ResultStore(tmp_path / "cache"), mode="pool",
        )
        try:
            record = service.run_sync(
                service.spec_from_request(po_pair_body())
            )
            assert record.state.value == "done"
            assert record.result["tree_qom"] > 0.9
            assert service.stats_snapshot()["mode"] == "pool"
        finally:
            service.shutdown()

    def test_isolated_mode_survives_worker_crash(self):
        import os

        def crashing_worker(spec, state):
            os._exit(13)

        service = MatchService(
            workers=1, mode="pool", retries=0, worker=crashing_worker,
            timeout=30.0,
        )
        try:
            record = service.run_sync(
                service.spec_from_request(po_pair_body())
            )
            assert record.state.value == "failed"
            assert "crash" in record.error["message"].lower() or \
                record.error["type"]
        finally:
            service.shutdown()

    def test_inline_is_the_embedded_default(self, service):
        assert service.stats_snapshot()["mode"] == "inline"

    @pytest.mark.parametrize("mode", ["fork", "isolated"])
    def test_unknown_mode_names_the_two_backends(self, mode):
        with pytest.raises(ValidationError) as excinfo:
            MatchService(mode=mode)
        message = str(excinfo.value)
        assert f"invalid mode {mode!r}" in message
        assert "inline, pool" in message


class TestSearchEndpoint:
    @pytest.fixture()
    def corpus_service(self, tmp_path):
        from repro.corpus import (
            CorpusSearcher,
            SchemaCorpus,
            SegmentedCorpusIndex,
        )
        from repro.datasets import registry

        corpus = SchemaCorpus(tmp_path / "corpus")
        for name in ("PO1", "PO2", "Book", "Article", "Library"):
            corpus.add(registry.load_schema(name))
        searcher = CorpusSearcher(corpus, SegmentedCorpusIndex.build(corpus))
        service = MatchService(workers=1, searcher=searcher)
        yield service
        service.shutdown()

    @pytest.fixture()
    def corpus_url(self, corpus_service):
        with AsyncServerThread(corpus_service) as running:
            yield running.url

    def test_search_returns_ranking(self, corpus_url):
        status, payload = request(
            f"{corpus_url}/search", "POST",
            {"query_xsd": to_xsd(po1()), "k": 3},
        )
        assert status == 200
        assert payload["corpus_size"] == 5
        assert payload["hits"][0]["name"] == "PO1"
        assert payload["hits"][0]["qom"] == pytest.approx(1.0)
        assert payload["examined"] > 0

    def test_search_no_rerank(self, corpus_url):
        status, payload = request(
            f"{corpus_url}/search", "POST",
            {"query_xsd": to_xsd(po1()), "k": 2, "rerank": False},
        )
        assert status == 200
        assert payload["examined"] == 0
        assert all(hit["qom"] is None for hit in payload["hits"])

    def test_search_stats_exposed(self, corpus_url):
        request(f"{corpus_url}/search", "POST",
                {"query_xsd": to_xsd(po1())})
        status, stats = request(f"{corpus_url}/stats")
        assert status == 200
        assert stats["corpus"]["entries"] == 5
        assert stats["corpus"]["indexed"] == 5

    def test_metrics_report_the_index_segments(self, corpus_url):
        status, text = request_text(f"{corpus_url}/metrics")
        assert status == 200
        assert 'qmatch_corpus_segments{kind="segmented"} 1' in text
        assert 'qmatch_corpus_docs{kind="segmented"} 5' in text
        assert 'qmatch_corpus_tombstones{kind="segmented"} 0' in text

    def test_search_validation_errors_400(self, corpus_url):
        status, payload = request(f"{corpus_url}/search", "POST", {})
        assert status == 400
        assert "query_xsd" in payload["error"]
        status, payload = request(
            f"{corpus_url}/search", "POST",
            {"query_xsd": to_xsd(po1()), "k": 0},
        )
        assert status == 400

    def test_search_without_corpus_400(self, server_url):
        status, payload = request(
            f"{server_url}/search", "POST", {"query_xsd": to_xsd(po1())},
        )
        assert status == 400
        assert "no corpus configured" in payload["error"]


def request_text(url):
    """(status, raw text body) for one GET; never raises on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestObservabilityEndpoints:
    def test_first_metrics_scrape_has_samples(self, server_url):
        """A fresh service's very first scrape already carries at least
        one counter and one histogram (the in-flight request itself)."""
        status, text = request_text(f"{server_url}/metrics")
        assert status == 200
        assert "# TYPE qmatch_http_requests_total counter" in text
        assert ('qmatch_http_requests_total{method="GET",'
                'route="/metrics",status="200"} 1') in text
        assert "# TYPE qmatch_http_request_seconds histogram" in text
        assert ('qmatch_http_request_seconds_bucket'
                '{route="/metrics",le="+Inf"} 1') in text
        assert "qmatch_service_uptime_seconds" in text

    def test_metrics_text_is_valid_exposition(self, server_url):
        request(f"{server_url}/match", "POST", po_pair_body())
        status, text = request_text(f"{server_url}/metrics")
        assert status == 200
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
        # Engine internals and job outcomes are projected in.
        assert 'qmatch_engine_stage_seconds_total{stage="score:qmatch"}' in text
        assert 'qmatch_service_jobs_total{state="done"} 1' in text
        assert "qmatch_service_job_seconds_count 1" in text

    def test_metrics_scrapes_do_not_double_count_engine_stats(self, server_url):
        request(f"{server_url}/match", "POST", po_pair_body())
        _, first = request_text(f"{server_url}/metrics")
        _, second = request_text(f"{server_url}/metrics")

        def stage_calls(text):
            for line in text.splitlines():
                if line.startswith(
                    'qmatch_engine_stage_calls_total{stage="score:qmatch"}'
                ):
                    return float(line.split()[-1])
            raise AssertionError("stage sample missing")

        assert stage_calls(first) == stage_calls(second) == 1

    def test_stats_gains_uptime_and_routes(self, server_url):
        request(f"{server_url}/healthz")
        status, stats = request(f"{server_url}/stats")
        assert status == 200
        # The pre-PR keys survive unchanged...
        for key in ("workers", "mode", "corpus", "jobs", "store", "engine"):
            assert key in stats
        # ...plus uptime and per-route request counts.
        assert stats["uptime_seconds"] >= 0
        assert stats["routes"]["/healthz"] == 1

    def test_unknown_routes_share_one_label(self, server_url):
        request(f"{server_url}/definitely/not/a/route")
        request(f"{server_url}/also-nothing")
        _, stats = request(f"{server_url}/stats")
        assert stats["routes"]["(unknown)"] == 2

    def test_job_ids_collapse_in_route_labels(self, server_url):
        status, record = request(
            f"{server_url}/match", "POST", po_pair_body()
        )
        assert status == 200
        request(f"{server_url}/jobs/{record['job_id']}")
        request(f"{server_url}/jobs/{record['job_id']}/result")
        _, stats = request(f"{server_url}/stats")
        assert stats["routes"]["/jobs/{id}"] == 1
        assert stats["routes"]["/jobs/{id}/result"] == 1

    def test_keep_alive_idle_time_is_not_request_latency(self):
        """The request clock starts once the head is parsed: a client
        pausing between requests on one keep-alive connection adds
        nothing to ``http_request_seconds`` or the latency SLO."""
        import http.client
        from urllib.parse import urlsplit

        pause = 0.3
        service = MatchService(workers=1, mode="inline")
        with AsyncServerThread(service) as running:
            address = urlsplit(running.url)
            conn = http.client.HTTPConnection(
                address.hostname, address.port, timeout=10,
            )
            for number in range(3):
                if number:
                    time.sleep(pause)
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            conn.close()
            samples = [
                sample for labels, sample
                in service.metrics.samples("http_request_seconds")
                if labels.get("route") == "/healthz"
            ]
            assert len(samples) == 1 and samples[0].count == 3
            assert samples[0].sum < pause
            status, slo = request(f"{running.url}/slo")
        service.shutdown()
        assert status == 200
        latency = next(
            record for record in slo["objectives"]
            if record["kind"] == "latency"
        )
        assert latency["total"] == 3
        assert latency["attainment"] == 1.0

    def test_truncated_body_is_counted_and_closed(self, caplog):
        """A client that closes before sending its declared body gets
        its connection closed without an unhandled exception, and the
        request lands in the HTTP metrics as a 400."""
        import logging
        import socket
        from urllib.parse import urlsplit

        service = MatchService(workers=1, mode="inline")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncServerThread(service) as running:
                address = urlsplit(running.url)
                with socket.create_connection(
                    (address.hostname, address.port), timeout=10,
                ) as sock:
                    sock.sendall(
                        b"POST /match HTTP/1.1\r\nHost: test\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: 100\r\n\r\n"
                        + b'{"source":'
                    )
                    sock.shutdown(socket.SHUT_WR)
                    # The server closes without answering.
                    assert sock.recv(1024) == b""
                counted = {
                    (labels["route"], labels["status"]): sample
                    for labels, sample
                    in service.metrics.samples("http_requests_total")
                }
                latencies = [
                    sample for labels, sample
                    in service.metrics.samples("http_request_seconds")
                    if labels.get("route") == "/match"
                ]
        service.shutdown()
        assert counted[("/match", "400")].value == 1
        assert len(latencies) == 1 and latencies[0].count == 1
        assert not [
            record for record in caplog.records
            if record.name == "asyncio"
        ]

    def test_error_statuses_are_labeled(self, server_url):
        request(f"{server_url}/jobs/job-9999")
        _, text = request_text(f"{server_url}/metrics")
        assert ('qmatch_http_requests_total{method="GET",'
                'route="/jobs/{id}",status="404"} 1') in text


class TestTracedJobsOverHttp:
    def test_traced_sync_match_exposes_the_trace(self, server_url):
        status, record = request(
            f"{server_url}/match", "POST", po_pair_body(trace=True)
        )
        assert status == 200
        status, trace = request(
            f"{server_url}/jobs/{record['job_id']}/trace"
        )
        assert status == 200
        assert trace["schema"] == "qmatch-trace/1"
        assert trace["spans"]
        contributions = sum(
            axis["contribution"]
            for axis in trace["spans"][0]["axes"].values()
        )
        assert contributions == pytest.approx(trace["spans"][0]["qom"])

    def test_untraced_job_404s_on_trace(self, server_url):
        status, record = request(
            f"{server_url}/match", "POST", po_pair_body()
        )
        assert status == 200
        status, payload = request(
            f"{server_url}/jobs/{record['job_id']}/trace"
        )
        assert status == 404
        assert "no trace" in payload["error"]

    def test_trace_of_unknown_job_404s(self, server_url):
        status, payload = request(f"{server_url}/jobs/job-9999/trace")
        assert status == 404

    def test_trace_flag_validated(self, server_url):
        status, payload = request(
            f"{server_url}/match", "POST", po_pair_body(trace="yes")
        )
        assert status == 400
        assert "trace" in payload["error"]

    def test_pool_attempt_span_is_the_job_clock(self):
        """One attempt reads the clock once: its ``job.attempt`` span,
        the record's ``elapsed_seconds`` and the ``service_job_seconds``
        sample are the same number (pool checkout and pipe included)."""
        service = MatchService(workers=1, mode="pool", trace_sample=1.0)
        with AsyncServerThread(service) as running:
            status, record = request(
                f"{running.url}/match", "POST", po_pair_body()
            )
        assert status == 200
        (_, spans), = service.tracing.store.traces()
        attempt = next(s for s in spans if s["name"] == "job.attempt")
        assert attempt["attributes"] == {"attempt": 1, "outcome": "ok"}
        assert attempt["duration"] == record["elapsed_seconds"]
        (_, sample), = service.metrics.samples("service_job_seconds")
        assert sample.count == 1
        assert sample.sum == record["elapsed_seconds"]
