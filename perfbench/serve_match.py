"""``serve-match``: ``POST /match`` against ``qmatch serve`` in pool mode.

The server runs as a subprocess in its default pool mode with
``nproc - 1`` pool workers (the load generator needs a CPU too) and
retries off.  This process is the load generator; it talks to the
server over at most ``nproc`` keep-alive connections.  Requests are
small pairs: the paper's PO, Book and Inventory pairs repeated (their
trees stay in the worker's resident cache) and seeded mutations of
12-node synthetic schemas (fresh parses every time).

Each timed pass has two phases with a fixed request sequence:

1. *capacity*: closed loop, every connection sends its next request as
   soon as the previous answer arrived;
2. *latency*: open loop, seeded Poisson arrivals at a fixed rate of
   about half the capacity; each request is timed from its due time, so
   a stall also charges the requests queued behind it, and the
   generator's own lateness is recorded.

Every 200 answer must equal ``execute_job`` run in this process on the
same spec.  Traced passes use a second server started with
``--trace-sample 1 --trace-export`` and read per-layer numbers from
its span file and ``/metrics`` deltas; nothing is added to ``src/``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time

from common import (
    PROBE_BRACKET,
    OpLog,
    SpeedProbe,
    digest,
    median,
    metric,
    percentile,
    process_tree_peak_rss_mb,
    ratio,
    tail_ok,
)

NAME = "serve-match"

#: Request counts per second of run length, and the open-loop rate.
CAPACITY_PER_SECOND = 30
LATENCY_PER_SECOND = 20
ARRIVAL_RATE = 30.0
#: The closed-loop phase runs in this many chunks, with host-speed
#: samples between them.
CAPACITY_CHUNKS = 6
#: Share of requests that repeat a paper pair (the rest are fresh).
PAPER_SHARE = 0.5
#: Size of the fresh synthetic schemas: small enough that matching costs
#: about as much as one paper pair, so per-request overhead dominates.
SYNTHETIC_NODES, SYNTHETIC_DEPTH = 12, 3
#: The latency limit ``slo_attainment`` counts against.
SLO_LIMIT_MS = 100.0
#: The run is invalid when the generator's p95 lateness exceeds this.
MAX_GEN_LAG_MS = 20.0
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def pool_size() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


class Server:
    """One ``qmatch serve`` subprocess and its exported spans."""

    def __init__(self, work_dir, label: str, traced: bool):
        self.span_file = work_dir / f"{label}-spans.jsonl"
        self.log_file = work_dir / f"{label}-server.log"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", str(pool_size()), "--retries", "0",
        ]
        if traced:
            command += ["--trace-sample", "1",
                        "--trace-export", str(self.span_file)]
        with open(self.log_file, "wb") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.host, self.port = self._wait_for_start()

    def _wait_for_start(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            for line in self.log_file.read_text(errors="replace").splitlines():
                if '"serve.start"' in line:
                    url = json.loads(line)["url"]
                    host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
                    return host, int(port)
            time.sleep(0.05)
        self.stop()
        raise RuntimeError(
            "qmatch serve did not start: "
            + self.log_file.read_text(errors="replace")[-2000:]
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )

    def metrics(self) -> dict:
        """``/metrics`` samples as ``{'name{labels}': value}``."""
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                samples[key] = float(value)
        return samples

    def spans(self) -> list:
        if not self.span_file.exists():
            return []
        with open(self.span_file, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def peak_rss_mb(self) -> float:
        return process_tree_peak_rss_mb(self.process.pid)

    def stop(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def post(conn, body: bytes):
    """Send one ``POST /match``; returns ``(status, body, request id)``."""
    conn.request("POST", "/match", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    return response.status, payload, response.getheader("X-Request-Id")


class Sender:
    """One keep-alive connection that records every exchange."""

    def __init__(self, server: Server, responses: dict, oplog: OpLog,
                 lock: threading.Lock):
        self.server = server
        self.conn = server.connect()
        self.responses = responses
        self.oplog = oplog
        self.lock = lock

    def send(self, op_class: str, index: int, body: bytes, due: float):
        """Send request ``index``; its latency counts from ``due``."""
        sent = time.perf_counter()
        try:
            status, payload, request_id = post(self.conn, body)
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = self.server.connect()
            status, payload, request_id = None, b"", None
        done = time.perf_counter()
        with self.lock:
            self.oplog.record(op_class, done - due, ok=status == 200)
            self.responses[index] = (status, payload, request_id,
                                     done - sent)

    def close(self):
        self.conn.close()


class Workload:
    """Inputs, servers and passes of the serve-match workload."""

    name = NAME
    in_process = False
    traced_passes = 1

    def __init__(self, seed: int, seconds: int, work):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.servers: list = []
        self.n_capacity = CAPACITY_PER_SECOND * seconds
        self.n_latency = LATENCY_PER_SECOND * seconds

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def make_requests(self):
        """The seeded request sequence and the open-loop schedule."""
        from repro.datasets.bibliographic import article, book
        from repro.datasets.inventory import store, warehouse
        from repro.datasets.po import po1, po2
        from repro.xsd.generator import (
            SchemaGenerator,
            derive_seed,
            synthetic_corpus_configs,
        )
        from repro.xsd.mutations import MutationConfig, SchemaMutator
        from repro.xsd.serializer import to_xsd

        def pair(source, target):
            return {
                "body": json.dumps({
                    "source_xsd": to_xsd(source),
                    "target_xsd": to_xsd(target),
                }).encode("utf-8"),
                "pairs": source.size * target.size,
            }

        paper = [pair(po1(), po2()), pair(article(), book()),
                 pair(warehouse(), store())]
        rng = random.Random(f"serve-match:{self.seed}")
        fresh = synthetic_corpus_configs(
            self.n_capacity + self.n_latency,
            master_seed=derive_seed(self.seed, 0, label="serve-match"),
            n_nodes=SYNTHETIC_NODES, max_depth=SYNTHETIC_DEPTH,
        )
        requests = []
        for n_requests in (self.n_capacity, self.n_latency):
            # Exact shares per phase, so every seed sends the same mix
            # of paper pairs and same-sized fresh pairs.
            n_paper = round(n_requests * PAPER_SHARE)
            phase = [paper[i % len(paper)] for i in range(n_paper)]
            for _ in range(n_requests - n_paper):
                source = SchemaGenerator(next(fresh)).generate()
                mutator = SchemaMutator(MutationConfig(
                    seed=rng.randrange(1 << 30),
                    rename_probability=0.3,
                    shuffle_probability=0.3,
                ))
                target, _ = mutator.mutate(source, name=f"{source.name}b")
                phase.append(pair(source, target))
            rng.shuffle(phase)
            requests.extend(phase)
        clock = 0.0
        schedule = []
        for _ in range(self.n_latency):
            clock += rng.expovariate(ARRIVAL_RATE)
            schedule.append(clock)
        warmup = paper + [
            pair(tree, tree) for tree in (
                SchemaGenerator(config).generate()
                for config in synthetic_corpus_configs(
                    4, master_seed=derive_seed(self.seed, 1, label="warmup"),
                    n_nodes=SYNTHETIC_NODES, max_depth=SYNTHETIC_DEPTH,
                )
            )
        ]
        return requests, schedule, warmup

    def setup(self, passes: int, replays: int):
        self.requests, self.schedule, self.warmup = self.make_requests()
        for index in range(passes):
            server = Server(self.work.path, f"pass{index}", traced=bool(index))
            self.servers.append(server)
            conn = server.connect()
            try:
                for request in self.warmup:
                    status, payload, _ = post(conn, request["body"])
                    if status != 200:
                        raise RuntimeError(
                            f"warm-up request failed with {status}: "
                            f"{payload[:200]!r}"
                        )
            finally:
                conn.close()

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> dict:
        server = self.servers[index]
        before = server.metrics()
        spans_before = len(server.spans())
        oplog = OpLog()
        responses: dict = {}
        lock = threading.Lock()
        senders = [Sender(server, responses, oplog, lock)
                   for _ in range(connections())]
        # The host's speed is sampled only while no request is in
        # flight: a sample taken under load would compete with the
        # server for CPU.
        probe = SpeedProbe()
        try:
            probe.sample(PROBE_BRACKET)
            capacity_s = self._capacity_phase(senders, probe)
            lags = self._latency_phase(senders)
            probe.sample(PROBE_BRACKET)
        finally:
            for sender in senders:
                sender.close()
        after = server.metrics()
        tally = metric_deltas(before, after)
        run = {
            "oplog": oplog,
            "tally": tally,
            "responses": responses,
            "capacity_s": capacity_s,
            "scale": probe.factor(),
            "lags": lags,
            "digests": [
                digest(result_of(responses[i])) for i in sorted(responses)
            ],
        }
        run["layers"] = {
            "core.pairs": tally["pairs"],
            "linguistic.compare.calls": tally["label_misses"],
            "properties.compare.calls": tally["property_misses"],
            "engine.label_hit_ratio": ratio(
                tally["label_hits"], tally["label_misses"]
            ),
            "engine.property_hit_ratio": ratio(
                tally["property_hits"], tally["property_misses"]
            ),
            "service.admission.rejected": tally["rejected"],
            "service.pool.respawns": tally["respawns"],
            "bench.gen_lag_ms": 1e3 * percentile(lags, 95),
        }
        if traced:
            run["layers"].update(
                self._span_layers(server, spans_before, responses)
            )
        return run

    @staticmethod
    def pass_seconds(run: dict) -> float:
        """Time of the pass's fixed closed-loop work (the capacity phase;
        the open-loop phase lasts as long as its schedule)."""
        return run["capacity_s"] * run["scale"]

    def _capacity_phase(self, senders, probe: SpeedProbe) -> float:
        """Closed loop over the first ``n_capacity`` requests, in
        :data:`CAPACITY_CHUNKS` chunks with host-speed samples between
        them (no sample runs under load).  Returns the summed time of
        the chunks."""
        def loop(sender, cursor, cursor_lock):
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sender.send("capacity", index, self.requests[index]["body"],
                            time.perf_counter())

        edges = [self.n_capacity * i // CAPACITY_CHUNKS
                 for i in range(CAPACITY_CHUNKS + 1)]
        busy = 0.0
        for start, stop in zip(edges, edges[1:]):
            cursor = iter(range(start, stop))
            cursor_lock = threading.Lock()
            threads = [
                threading.Thread(target=loop,
                                 args=(sender, cursor, cursor_lock))
                for sender in senders
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            busy += time.perf_counter() - started
            probe.sample(PROBE_BRACKET)
        return busy

    def _latency_phase(self, senders) -> list:
        """Open loop: dispatch on the Poisson schedule; returns the
        dispatcher's lateness per request (seconds)."""
        pending: queue.Queue = queue.Queue()

        def loop(sender):
            while True:
                item = pending.get()
                if item is None:
                    return
                index, due = item
                sender.send("latency", index, self.requests[index]["body"],
                            due)

        threads = [threading.Thread(target=loop, args=(sender,))
                   for sender in senders]
        for thread in threads:
            thread.start()
        lags = []
        origin = time.perf_counter()
        for offset, at in enumerate(self.schedule):
            due = origin + at
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lags.append(max(0.0, time.perf_counter() - due))
            pending.put((self.n_capacity + offset, due))
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
        return lags

    def _span_layers(self, server: Server, skip: int, responses: dict):
        """Queue wait, pool execute, router self time and transport
        time of this pass's ``/match`` requests, from the span file."""
        # The server derives each answer's X-Request-Id from the first 16
        # hex digits of its trace id.
        wanted = {entry[2]: entry[3] for entry in responses.values()
                  if entry[2]}
        deadline = time.monotonic() + 10.0
        while True:
            traces: dict = {}
            for span in server.spans()[skip:]:
                traces.setdefault(span["traceId"][:16], []).append(span)
            if wanted.keys() <= traces.keys() or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        layers = dict.fromkeys(
            ("service.pool.queue_wait_ms", "service.pool.execute_ms",
             "service.http.router_ms", "service.http.transport_ms"), 0.0,
        )
        for request_id, client_s in wanted.items():
            trace = traces.get(request_id, ())
            for span in trace:
                ms = span["durationNano"] / 1e6
                name = span["name"]
                if name == "pool.checkout":
                    layers["service.pool.queue_wait_ms"] += ms
                elif name == "pool.execute":
                    layers["service.pool.execute_ms"] += ms
                elif name == "router":
                    children = sum(
                        child["durationNano"] for child in trace
                        if child.get("parentSpanId") == span["spanId"]
                    )
                    layers["service.http.router_ms"] += (
                        span["durationNano"] - children
                    ) / 1e6
                elif name == "http.request" and not span.get("parentSpanId"):
                    layers["service.http.transport_ms"] += 1e3 * client_s - ms
        return layers

    # ------------------------------------------------------------------
    # Checks and reporting
    # ------------------------------------------------------------------

    def verify(self, run: dict) -> list:
        """Every 200 answer must equal in-process ``execute_job``."""
        from repro.service.jobs import MatchJobSpec
        from repro.service.runner import execute_job
        from repro.xsd.parser import parse_xsd
        from repro.xsd.serializer import to_xsd

        expected: dict = {}
        problems = 0
        checked = 0
        for index, (status, payload, _, _) in sorted(run["responses"].items()):
            if status != 200:
                continue
            body = self.requests[index]["body"]
            want = expected.get(body)
            if want is None:
                request = json.loads(body)
                source = parse_xsd(request["source_xsd"])
                target = parse_xsd(request["target_xsd"])
                spec = MatchJobSpec(
                    source_xsd=to_xsd(source), target_xsd=to_xsd(target),
                    source_name=source.name, target_name=target.name,
                )
                want = json.loads(json.dumps(execute_job(spec)["result"]))
                expected[body] = want
            checked += 1
            if json.loads(payload).get("result") != want:
                problems += 1
        if problems:
            return [f"{problems} of {checked} /match answers differ from "
                    "in-process execute_job"]
        lag_ms = 1e3 * percentile(run["lags"], 95)
        if lag_ms > MAX_GEN_LAG_MS:
            return [f"invalid run: load generator p95 lateness {lag_ms:.1f} "
                    f"ms exceeds {MAX_GEN_LAG_MS} ms"]
        return []

    def end_to_end(self, run: dict) -> dict:
        capacity_pairs = sum(
            self.requests[index]["pairs"]
            for index, entry in run["responses"].items()
            if index < self.n_capacity and entry[0] == 200
        )
        closed = run["oplog"].latencies.get("capacity", [])
        scale = run["scale"]
        return {
            "pairs_per_s": metric(
                capacity_pairs / (run["capacity_s"] * scale), "pairs/s",
                self.n_capacity,
            ),
            "p50_ms": metric(1e3 * median(closed) * scale, "ms", len(closed)),
        }

    def report_lines(self, run: dict) -> list:
        oplog = run["oplog"]
        scale = run["scale"]
        latencies = oplog.latencies.get("latency", [])
        sent = oplog.attempted.get("latency", 0)
        within = sum(1 for value in latencies if 1e3 * value <= SLO_LIMIT_MS)
        lines = [
            f"inputs     {self.n_capacity} closed-loop + {self.n_latency} "
            f"open-loop requests over {connections()} connections; pool "
            f"size {pool_size()}; arrivals {ARRIVAL_RATE}/s",
            f"metric capacity_rps     "
            f"{self.n_capacity / (run['capacity_s'] * scale):10.3f} 1/s "
            f"(n={self.n_capacity})",
            f"metric open p50_ms      {1e3 * median(latencies) * scale:10.3f}"
            f" ms (n={len(latencies)})",
        ]
        if tail_ok(len(latencies), 95):
            lines.append(
                f"metric open p95_ms      "
                f"{1e3 * percentile(latencies, 95) * scale:10.3f} ms "
                f"(n={len(latencies)})"
            )
        else:
            lines.append("metric open p95_ms      absent: fewer than 10 "
                         "samples beyond p95")
        lines.append(
            f"metric slo_attainment   {within / sent:10.4f} ratio "
            f"(n={sent}, unscaled latency within {SLO_LIMIT_MS:.0f} ms)"
        )
        lines.append(
            f"metric bench.gen_lag_ms {1e3 * percentile(run['lags'], 95):10.3f}"
            f" ms p95 (n={len(run['lags'])})"
        )
        return lines

    def absent_layers(self) -> list:
        return [
            "xsd.*, linguistic/properties/core/matching/constraints self_ms: "
            "not observable in serve-match -- parsing and scoring run "
            "inside the server, whose span file has no spans for them "
            "(reported as 0)",
            "corpus.*: bypassed -- serve-match uses no corpus (0)",
        ]

    def peak_rss_mb(self) -> float:
        return self.servers[0].peak_rss_mb()

    def close(self):
        for server in self.servers:
            server.stop()


def result_of(entry) -> object:
    status, payload, _, _ = entry
    if status != 200:
        return None
    return json.loads(payload).get("result")


def metric_deltas(before: dict, after: dict) -> dict:
    def delta(key):
        return int(round(after.get(key, 0.0) - before.get(key, 0.0)))

    lookups = 'qmatch_engine_cache_lookups_total{cache="%s",outcome="%s"}'
    rejected = sum(
        after[key] - before.get(key, 0.0) for key in after
        if key.startswith("qmatch_http_requests_total")
        and 'status="429"' in key
    )
    return {
        "pairs": delta('qmatch_engine_events_total{event="qmatch.pairs"}'),
        "label_hits": delta(lookups % ("context.labels", "hit")),
        "label_misses": delta(lookups % ("context.labels", "miss")),
        "property_hits": delta(lookups % ("context.properties", "hit")),
        "property_misses": delta(lookups % ("context.properties", "miss")),
        "rejected": int(round(rejected)),
        "respawns": delta("qmatch_service_pool_respawns_total"),
    }
