"""Serving-core tests: worker pool, admission control, graceful drain.

The serving contract under test: a persistent pre-warmed pool
produces results byte-identical to inline execution; a crashed worker
is respawned and the job retried; a hung worker is killed at its
deadline and respawned; a saturated service answers 429 with
``Retry-After``; oversized bodies answer 413; the job registry stays
bounded with monotonic counts; SIGTERM drains in-flight jobs before a
clean exit; and the asyncio transport answers byte for byte as the
threaded transport it replaced did (``tests/fixtures/http_golden.json``).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.jobs import JobQueue, JobState, MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner, execute_job
from repro.service.server import MatchService
from repro.service.store import canonical_json
from repro.xsd.builder import TreeBuilder
from repro.xsd.serializer import to_xsd

from tests.async_server import AsyncServerThread

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The threaded transport's answers, frozen before it was deleted.
HTTP_GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "http_golden.json").read_text(
        encoding="utf-8"
    )
)


def small_pair():
    builder = TreeBuilder("Order")
    builder.leaf("OrderNo", type_name="integer")
    builder.leaf("Date", type_name="date")
    source = builder.build()
    builder = TreeBuilder("PurchaseOrder")
    builder.leaf("OrderNumber", type_name="integer")
    builder.leaf("OrderDate", type_name="date")
    target = builder.build()
    return to_xsd(source), to_xsd(target)


def make_spec(**overrides) -> MatchJobSpec:
    source_xsd, target_xsd = small_pair()
    values = dict(source_xsd=source_xsd, target_xsd=target_xsd)
    values.update(overrides)
    return MatchJobSpec(**values)


def pair_body(**extra):
    source_xsd, target_xsd = small_pair()
    body = {"source_xsd": source_xsd, "target_xsd": target_xsd}
    body.update(extra)
    return body


# ----------------------------------------------------------------------
# Injectable (spec, state) job bodies (module-level: must survive fork)
# ----------------------------------------------------------------------

def slow_worker(spec, state=None):
    time.sleep(0.4)
    return execute_job(spec, state)


def hanging_worker(spec, state=None):
    time.sleep(30)
    return execute_job(spec, state)


class CrashOnceWorker:
    """Hard-crashes the worker process on the first job it sees.

    The sentinel file records the crash across the respawn, so the
    retry (on the fresh worker) succeeds.
    """

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __call__(self, spec, state=None):
        if not os.path.exists(self.sentinel):
            open(self.sentinel, "w").close()
            os._exit(23)
        return execute_job(spec, state)


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------

def request(url, method="GET", body=None):
    """(status, payload, headers) for one JSON request; 4xx/5xx returned."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def raw_request(url, path, method="GET", body=None):
    """Exact response bytes, for transport-parity assertions."""
    host, _, port = url.removeprefix("http://").partition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Bounded job queue
# ----------------------------------------------------------------------

class TestBoundedJobQueue:
    def test_max_records_validated(self):
        with pytest.raises(ValueError, match="max_records"):
            JobQueue(max_records=0)

    def test_evicts_oldest_terminal_records_only(self):
        queue = JobQueue(max_records=2)
        records = [queue.submit(make_spec(label=f"job{i}")) for i in range(3)]
        # Nothing is terminal yet: the cap cannot evict running work.
        assert len(queue) == 3
        for record in records:
            queue.mark_done(record, result={}, elapsed=0.0)
        queue.submit(make_spec(label="job3"))
        assert len(queue) == 2
        # The oldest finished records went first.
        assert queue.get(records[0].job_id) is None
        assert queue.get(records[1].job_id) is None
        assert queue.get(records[2].job_id) is not None

    def test_counts_stay_monotonic_across_eviction(self):
        queue = JobQueue(max_records=1)
        for i in range(4):
            record = queue.submit(make_spec(label=f"job{i}"))
            queue.mark_done(record, result={}, elapsed=0.0)
        counts = queue.counts()
        assert counts["done"] == 4
        assert counts["evicted"] == 3
        assert len(queue) == 1

    def test_active_tracks_pending_and_running(self):
        queue = JobQueue()
        first = queue.submit(make_spec(label="a"))
        second = queue.submit(make_spec(label="b"))
        assert queue.active == 2
        queue.mark_running(first)
        assert queue.active == 2
        queue.mark_done(first, result={}, elapsed=0.0)
        queue.mark_failed(second, error={"type": "X", "message": "x"})
        assert queue.active == 0
        # Terminal transitions are idempotent for the counter.
        queue.mark_done(second, result={}, elapsed=0.0)
        assert queue.active == 0

    def test_page_slices_submission_order(self):
        queue = JobQueue()
        for i in range(5):
            queue.submit(make_spec(label=f"job{i}"))
        records, total = queue.page(offset=1, limit=2)
        assert total == 5
        assert [r.job_id for r in records] == ["job-0002", "job-0003"]
        records, total = queue.page(offset=4, limit=10)
        assert [r.job_id for r in records] == ["job-0005"]
        assert queue.page(offset=99)[0] == []


# ----------------------------------------------------------------------
# The worker pool backend
# ----------------------------------------------------------------------

class TestWorkerPool:
    def test_results_byte_identical_across_backends(self, tmp_path):
        spec = make_spec()
        payloads = {}
        with WorkerPool(workers=1, retries=0) as pool:
            for name, runner in (
                ("inline", BatchRunner(retries=0)), ("pool", pool),
            ):
                queue = JobQueue()
                record = queue.submit(spec)
                runner.run_record(record, queue)
                assert record.state is JobState.DONE
                payloads[name] = canonical_json(record.result)
        assert payloads["inline"] == payloads["pool"]

    def test_warm_workers_reused_across_jobs(self):
        with WorkerPool(workers=1, retries=0) as pool:
            queue = JobQueue()
            records = queue.submit_all(
                make_spec(label=f"job{i}") for i in range(3)
            )
            for record in records:
                pool.run_record(record, queue)
            assert all(r.state is JobState.DONE for r in records)
            assert pool.respawns == 0
            assert pool.size == 1

    def test_crash_respawns_worker_and_retry_succeeds(self, tmp_path):
        worker = CrashOnceWorker(tmp_path / "crashed-once")
        with WorkerPool(workers=1, retries=1, retry_backoff=0,
                        worker=worker) as pool:
            queue = JobQueue()
            record = queue.submit(make_spec())
            pool.run_record(record, queue)
            assert record.state is JobState.DONE
            assert record.attempts == 2
            assert pool.respawns == 1
            assert pool.size == 1

    def test_crash_without_retry_is_structured_failure(self, tmp_path):
        worker = CrashOnceWorker(tmp_path / "crashed-once")
        with WorkerPool(workers=1, retries=0,
                        worker=worker) as pool:
            queue = JobQueue()
            record = queue.submit(make_spec())
            pool.run_record(record, queue)
            assert record.state is JobState.FAILED
            assert record.error["type"] == "WorkerCrash"
            assert "exit code" in record.error["message"]
            assert pool.size == 1

    def test_timeout_kills_and_respawns(self):
        with WorkerPool(workers=1, retries=0, timeout=0.3,
                        worker=hanging_worker) as pool:
            queue = JobQueue()
            record = queue.submit(make_spec())
            started = time.perf_counter()
            pool.run_record(record, queue)
            assert time.perf_counter() - started < 10
            assert record.state is JobState.TIMED_OUT
            assert record.error["type"] == "JobTimeout"
            assert pool.respawns == 1
            assert pool.size == 1

    def test_batch_run_reports_in_submission_order(self):
        with WorkerPool(workers=2, retries=0) as pool:
            specs = [make_spec(label=f"job{i}") for i in range(4)]
            report = pool.run(specs)
        assert [r.spec.label for r in report.records] == [
            "job0", "job1", "job2", "job3",
        ]
        assert report.counts["done"] == 4

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(workers=1, retries=0)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(Exception):
            pool._checkout()


# ----------------------------------------------------------------------
# Admission control, body limit, pagination over HTTP
# ----------------------------------------------------------------------

class TestAdmissionAndLimits:
    def test_saturated_service_answers_429_with_retry_after(self):
        service = MatchService(workers=1, worker=slow_worker,
                               max_pending=2)
        with AsyncServerThread(service) as running:
            url = running.url
            for _ in range(2):
                status, _, _ = request(f"{url}/jobs", "POST", pair_body())
                assert status == 202
            status, payload, headers = request(
                f"{url}/jobs", "POST", pair_body()
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert "saturated" in payload["error"]
            assert payload["retry_after"] == 1

    def test_saturation_recovers_once_jobs_finish(self):
        service = MatchService(workers=1, max_pending=1)
        with AsyncServerThread(service) as running:
            url = running.url
            status, first, _ = request(f"{url}/jobs", "POST", pair_body())
            assert status == 202
            deadline = time.time() + 10
            while time.time() < deadline:
                status, snap, _ = request(f"{url}/jobs/{first['job_id']}")
                if snap["state"] == "done":
                    break
                time.sleep(0.02)
            status, _, _ = request(f"{url}/jobs", "POST", pair_body())
            assert status == 202

    def test_oversized_body_answers_413(self):
        service = MatchService(workers=1, max_body_bytes=512)
        with AsyncServerThread(service) as running:
            url = running.url
            status, payload, _ = request(
                f"{url}/jobs", "POST",
                pair_body(label="x" * 2048),
            )
            assert status == 413
            assert "exceeds the 512-byte limit" in payload["error"]
            # The service stays healthy for in-budget requests.
            assert request(f"{url}/healthz")[0] == 200

    def test_jobs_pagination_over_http(self):
        service = MatchService(workers=1)
        with AsyncServerThread(service) as running:
            url = running.url
            for i in range(5):
                spec = service.spec_from_request(pair_body(label=f"job{i}"))
                record = service.queue.submit(spec)
                service.runner.run_record(record, service.queue)
            status, page, _ = request(f"{url}/jobs?offset=1&limit=2")
            assert status == 200
            assert [job["job_id"] for job in page["jobs"]] == [
                "job-0002", "job-0003",
            ]
            assert page["total"] == 5
            assert page["offset"] == 1 and page["limit"] == 2
            status, full, _ = request(f"{url}/jobs")
            assert len(full["jobs"]) == 5
            assert request(f"{url}/jobs?limit=0")[0] == 400
            assert request(f"{url}/jobs?offset=-1")[0] == 400
            assert request(f"{url}/jobs?limit=nope")[0] == 400

    def test_bounded_registry_over_http_keeps_monotonic_counts(self):
        service = MatchService(workers=1, max_jobs=2)
        with AsyncServerThread(service) as running:
            url = running.url
            for _ in range(3):
                status, done, _ = request(
                    f"{url}/match", "POST", pair_body()
                )
                assert status == 200
            status, page, _ = request(f"{url}/jobs")
            assert page["total"] == 2
            status, stats, _ = request(f"{url}/stats")
            assert stats["jobs"]["done"] == 3
            assert stats["jobs"]["evicted"] == 1
            assert stats["limits"]["max_jobs"] == 2


# ----------------------------------------------------------------------
# Pool mode end to end over HTTP
# ----------------------------------------------------------------------

class TestPoolServiceOverHttp:
    def test_pool_crash_respawn_retry_visible_in_stats(self, tmp_path):
        service = MatchService(
            workers=1, mode="pool", retries=1,
            worker=CrashOnceWorker(tmp_path / "crashed-once"),
        )
        with AsyncServerThread(service) as running:
            url = running.url
            status, done, _ = request(f"{url}/match", "POST", pair_body())
            assert status == 200
            assert done["state"] == "done"
            assert done["attempts"] == 2
            status, stats, _ = request(f"{url}/stats")
            assert stats["mode"] == "pool"
            assert stats["pool"]["respawns"] == 1
            assert stats["pool"]["size"] == 1

    def test_pool_service_result_matches_inline_service(self, tmp_path):
        results = {}
        for mode in ("inline", "pool"):
            service = MatchService(workers=1, mode=mode)
            with AsyncServerThread(service) as running:
                url = running.url
                status, done, _ = request(
                    f"{url}/match", "POST", pair_body()
                )
                assert status == 200
                results[mode] = canonical_json(done["result"])
        assert results["inline"] == results["pool"]


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

class TestGracefulDrain:
    def test_drain_finishes_in_flight_jobs_and_rejects_new_work(self):
        service = MatchService(workers=2, worker=slow_worker)
        with AsyncServerThread(service) as running:
            url = running.url
            submitted = []
            for _ in range(2):
                status, job, _ = request(f"{url}/jobs", "POST", pair_body())
                assert status == 202
                submitted.append(job["job_id"])
            drain_result = {}
            drainer = threading.Thread(
                target=lambda: drain_result.update(
                    ok=service.drain(timeout=30)
                ),
            )
            drainer.start()
            deadline = time.time() + 5
            while not service.draining and time.time() < deadline:
                time.sleep(0.01)
            status, payload, _ = request(f"{url}/jobs", "POST", pair_body())
            assert status == 503
            assert "draining" in payload["error"]
            # Read-only routes keep answering during the drain.
            assert request(f"{url}/healthz")[0] == 200
            assert request(f"{url}/jobs/{submitted[0]}")[0] == 200
            drainer.join(30)
            assert drain_result["ok"] is True
            for job_id in submitted:
                assert service.queue.get(job_id).state is JobState.DONE

    def test_drain_timeout_reports_incomplete(self):
        service = MatchService(workers=1, worker=slow_worker)
        spec = service.spec_from_request(pair_body())
        service.submit(spec)
        assert service.drain(timeout=0.05) is False

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--mode", "pool", "--drain-timeout", "20"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            events = []

            def read_stderr():
                for line in proc.stderr:
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue

            reader = threading.Thread(target=read_stderr, daemon=True)
            reader.start()
            url = None
            deadline = time.time() + 60
            while time.time() < deadline and url is None:
                for event in events:
                    if event.get("event") == "serve.start":
                        url = event["url"]
                time.sleep(0.05)
            assert url, "serve.start event never appeared"
            status, job, _ = request(f"{url}/jobs", "POST", pair_body())
            assert status == 202
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            reader.join(10)
            stops = [e for e in events if e.get("event") == "serve.stop"]
            assert stops and stops[0]["reason"] == "sigterm"
            assert stops[0]["drained"] is True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)


# ----------------------------------------------------------------------
# Transport parity: the asyncio front-end answers as the threaded one did
# ----------------------------------------------------------------------

class TestTransportParity:
    @pytest.fixture()
    def async_url(self):
        with AsyncServerThread(MatchService(workers=1)) as running:
            yield running.url

    @pytest.mark.parametrize("method,path,body", [
        ("GET", "/healthz", None),
        ("GET", "/jobs", None),
        ("GET", "/jobs/job-9999", None),
        ("GET", "/nope", None),
        ("POST", "/jobs", b""),
        ("POST", "/jobs", b"not json"),
        ("POST", "/search", b"{}"),
    ])
    def test_responses_byte_identical(self, async_url, method, path, body):
        (golden,) = [
            answer for answer in HTTP_GOLDEN["responses"]
            if (answer["method"], answer["path"], answer["body"])
            == (method, path, None if body is None else body.decode())
        ]
        assert raw_request(async_url, path, method, body) == (
            golden["status"], golden["response"].encode("utf-8"),
        )

    def test_match_results_identical_across_transports(self, async_url):
        body = json.dumps(pair_body()).encode("utf-8")
        status, raw = raw_request(async_url, "/match", "POST", body)
        assert status == HTTP_GOLDEN["match"]["status"] == 200
        # Timing fields differ run to run; the result payload may not.
        assert (canonical_json(json.loads(raw)["result"])
                == canonical_json(HTTP_GOLDEN["match"]["result"]))

    def test_async_transport_keep_alive_and_404(self, async_url):
        host, _, port = async_url.removeprefix("http://").partition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            # Two requests over one connection: keep-alive works.
            for _ in range(2):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ok"}
            # ...and so does a third, answered 404 on a fresh service.
            conn.request("GET", "/jobs/job-0001")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read()) == {
                "error": "no job 'job-0001'",
            }
        finally:
            conn.close()

    def test_async_transport_413_closes_connection(self):
        service = MatchService(workers=1, max_body_bytes=256)
        with AsyncServerThread(service) as async_server:
            body = json.dumps(pair_body()).encode("utf-8")
            status, payload, _ = request(
                f"{async_server.url}/jobs", "POST", pair_body()
            )
            assert status == 413
            assert "exceeds the 256-byte limit" in payload["error"]
            assert len(body) > 256
