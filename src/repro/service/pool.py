"""Persistent pre-warmed worker pool: the process backend.

:class:`WorkerPool` is a :class:`~repro.service.runner.BatchRunner`
whose attempts run in ``workers`` long-lived child processes instead of
on the calling thread -- it overrides only the per-attempt
``_execute``, so cache, retry and reporting semantics are the
runner's.  Each worker is **pre-warmed** before the pool reports ready:

- the default thesaurus is parsed once and stays resident;
- parsed schema trees are kept in a per-worker LRU keyed by content
  hash, so repeated requests over the same schemas skip XSD parsing
  entirely (matching never mutates trees -- per-match memos live in
  ``MatchContext`` -- which is what makes the cache safe);
- every job builds its own matcher, and the tables matchers share by
  configuration (the thesaurus's token lexicon and the property table,
  each bounded) stay warm across the worker's jobs;
- with a corpus configured, the :class:`~repro.corpus.search.CorpusSearcher`
  (corpus + inverted/MinHash indexes) loads once per worker and serves
  ``POST /search`` without ever re-reading the index from disk.

Jobs travel over a duplex pipe: the parent checks an idle worker out
of a queue, sends the :class:`~repro.service.jobs.MatchJobSpec`, and
waits for the reply envelope with the job's deadline.  A worker that
crashes (EOF on the pipe) or overruns its deadline is killed and
**respawned** -- the pool never shrinks -- and the failure surfaces as
a structured error/timeout record.  Retry then lands on a fresh (or
different) worker.

``qmatch serve`` keeps one pool for its lifetime; ``qmatch batch``,
parallel evaluation and parallel search reranks open one for a single
run (``with WorkerPool(...) as pool: pool.run(specs)``).

Instrumentation: ``service_pool_workers{state=idle|busy}`` gauges,
``service_pool_queue_wait_seconds`` (time a job waited for a free
worker -- the serving backpressure signal), and
``service_pool_respawns_total``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import OrderedDict
from typing import Optional

from repro.obs.log import NULL_LOGGER
from repro.obs.metrics import QUEUE_WAIT_BUCKETS, pool_depth_metrics
from repro.obs.spans import (
    SpanTracer,
    current_request_id,
    current_tracer,
    use_request_id,
    use_tracer,
)
from repro.service.jobs import MatchJobSpec
from repro.service.runner import (
    DEFAULT_TIMEOUT,
    BatchRunner,
    execute_job,
)
from repro.service.store import ResultStore

#: Seconds the pool waits for a worker to finish warming before giving
#: up on it.  Warm-up parses the thesaurus and (optionally) loads a
#: corpus index; generous but bounded.
DEFAULT_SPAWN_TIMEOUT = 60.0

#: Parsed schema trees kept resident per worker.
DEFAULT_TREE_CACHE = 128


class PoolError(RuntimeError):
    """The pool cannot execute requests (failed spawn, closed, ...)."""


class PoolWarmup:
    """Builds the resident state inside a freshly spawned worker.

    Picklable (plain attributes, module-level class) so it crosses the
    process boundary under any multiprocessing start method.  The
    returned state dict is what :func:`~repro.service.runner.execute_job`
    and the resident search path read.
    """

    def __init__(self, corpus_dir=None, cache_dir=None,
                 scorer: str = "cosine", tree_cache: int = DEFAULT_TREE_CACHE):
        self.corpus_dir = str(corpus_dir) if corpus_dir is not None else None
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.scorer = scorer
        self.tree_cache = tree_cache

    def __call__(self) -> dict:
        from repro.linguistic.thesaurus import Thesaurus

        thesaurus = Thesaurus.default()
        searcher = None
        if self.corpus_dir is not None:
            from repro.service.server import build_searcher

            searcher = build_searcher(
                self.corpus_dir, cache_dir=self.cache_dir,
                scorer=self.scorer,
            )
        return {
            "thesaurus": thesaurus,
            "trees": OrderedDict(),
            "tree_cache": self.tree_cache,
            "searcher": searcher,
        }


def _search_resident(request: dict, state: Optional[dict]) -> dict:
    """In-worker ``POST /search``: the resident searcher answers."""
    searcher = (state or {}).get("searcher")
    if searcher is None:
        raise PoolError("worker has no resident corpus searcher")
    from repro.xsd.parser import parse_xsd

    constraint = None
    if request.get("constraints") is not None:
        from repro.constraints import parse_constraint

        # Re-parse inside the worker: Constraint objects are picklable,
        # but shipping the raw dict keeps the pipe protocol plain data.
        constraint = parse_constraint(request["constraints"])
    query = parse_xsd(request["query_xsd"])
    result = searcher.search(
        query,
        k=int(request.get("k", 10)),
        candidates=(
            int(request["candidates"])
            if request.get("candidates") is not None else None
        ),
        rerank=bool(request.get("rerank", True)),
        constraint=constraint,
    )
    return result.as_dict()


def _pool_worker_main(conn, warm, worker_body):
    """Child-process loop: warm once, then serve requests until EOF.

    Every reply is sent in one message; any exception in a request
    becomes a structured error reply instead of a worker death, so only
    genuine crashes (``os._exit``, segfaults, kills) cost a respawn.
    """
    try:
        state = warm() if warm is not None else None
    except BaseException as exc:  # noqa: BLE001 -- report the warm failure
        try:
            conn.send({"ready": False, "error": {
                "type": type(exc).__name__, "message": str(exc),
            }})
        finally:
            conn.close()
        return
    conn.send({
        "ready": True,
        "corpus": bool(state and state.get("searcher") is not None),
    })
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        # Older 2-tuple messages stay valid; the optional third slot
        # carries the request-scoped span context and request id.
        kind, payload, extras = (
            message if len(message) == 3 else (*message, None)
        )
        tracer = None
        if extras and extras.get("span"):
            tracer = SpanTracer.from_context(extras["span"])
        with use_request_id((extras or {}).get("request_id", "")), \
                use_tracer(tracer if tracer is not None
                           else current_tracer()) as bound:
            try:
                with bound.span(f"worker.{kind}", {"pid": os.getpid()}):
                    if kind == "job":
                        value = worker_body(payload, state)
                    elif kind == "search":
                        value = _search_resident(payload, state)
                    else:
                        raise PoolError(
                            f"unknown pool request kind {kind!r}"
                        )
                reply = {"ok": True, "value": value}
            except BaseException as exc:  # noqa: BLE001 -- boundary
                reply = {
                    "ok": False,
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                    },
                }
        # Spans ride the reply envelope (a side channel), never the
        # result value -- payload bytes stay identical with tracing
        # on or off.
        if tracer is not None:
            reply["spans"] = tracer.export_spans()
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerHandle:
    """Parent-side view of one pool worker."""

    __slots__ = ("process", "conn", "jobs")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.jobs = 0


class WorkerPool(BatchRunner):
    """N persistent pre-warmed workers behind the runner's job state
    machine."""

    mode = "pool"

    def __init__(self, workers: int = 2,
                 store: Optional[ResultStore] = None,
                 timeout: Optional[float] = DEFAULT_TIMEOUT,
                 retries: int = 1,
                 retry_backoff: float = 0.1,
                 worker=execute_job,
                 warm=None,
                 corpus_dir=None,
                 cache_dir=None,
                 scorer: str = "cosine",
                 log=NULL_LOGGER,
                 metrics=None,
                 constraint=None,
                 spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT):
        """``worker`` is the job body ``(spec, state) -> envelope``, run
        inside a worker against that worker's resident state; ``warm``
        overrides the default :class:`PoolWarmup` built from
        ``corpus_dir``/``cache_dir``/``scorer``.  The constructor blocks
        until every worker finished warming (or ``spawn_timeout``
        expires), so the first request never pays cold-start cost.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(
            store=store, timeout=timeout, retries=retries,
            retry_backoff=retry_backoff, worker=worker, log=log,
            metrics=metrics, constraint=constraint,
        )
        self.workers = workers
        self.warm = warm if warm is not None else PoolWarmup(
            corpus_dir=corpus_dir, cache_dir=cache_dir, scorer=scorer,
        )
        self.spawn_timeout = spawn_timeout
        # fork inherits the parent's imported library, so a spawn costs
        # only the warm-up; fall back to the default context elsewhere.
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self._idle: queue_module.Queue = queue_module.Queue()
        self._handles: list[_WorkerHandle] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self.respawns = 0
        self.has_corpus = False
        for _ in range(workers):
            self._checkin(self._spawn())

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        """Start one worker and wait for its pre-warm to complete."""
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_pool_worker_main,
            args=(child_conn, self.warm, self.worker),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        try:
            if not parent_conn.poll(self.spawn_timeout):
                raise PoolError(
                    f"pool worker did not warm up within "
                    f"{self.spawn_timeout:g}s"
                )
            ready = parent_conn.recv()
        except (EOFError, OSError) as exc:
            self._kill(handle)
            raise PoolError(
                f"pool worker died during warm-up: {exc}"
            ) from None
        if not ready.get("ready"):
            error = ready.get("error") or {}
            self._kill(handle)
            raise PoolError(
                "pool worker failed to warm up: "
                f"{error.get('type', 'Error')}: {error.get('message', '?')}"
            )
        self.has_corpus = bool(ready.get("corpus"))
        with self._pool_lock:
            self._handles.append(handle)
        self.log.event(
            "pool.worker_ready", pid=process.pid, corpus=self.has_corpus,
        )
        return handle

    def _kill(self, handle: _WorkerHandle):
        with self._pool_lock:
            if handle in self._handles:
                self._handles.remove(handle)
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.terminate()
        handle.process.join(5)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(5)

    def _respawn(self, handle: _WorkerHandle, reason: str):
        """Replace a dead/hung worker so the pool never shrinks."""
        self._kill(handle)
        self.respawns += 1
        if self.metrics is not None:
            self.metrics.counter(
                "service_pool_respawns_total",
                "Pool workers respawned after a crash or timeout kill.",
            ).inc()
        self.log.event(
            "pool.respawn", reason=reason, respawns=self.respawns,
        )
        self._checkin(self._spawn())

    # ------------------------------------------------------------------
    # Checkout / checkin
    # ------------------------------------------------------------------

    def _checkout(self) -> _WorkerHandle:
        if self._closed:
            raise PoolError("worker pool is shut down")
        waited_from = time.perf_counter()
        handle = self._idle.get()
        waited = time.perf_counter() - waited_from
        if self.metrics is not None:
            self.metrics.histogram(
                "service_pool_queue_wait_seconds",
                "Time a request waited for a free pool worker.",
                buckets=QUEUE_WAIT_BUCKETS,
            ).observe(waited)
            self._set_depth_gauges()
        current_tracer().record("pool.checkout", waited,
                                {"idle": self._idle.qsize()})
        return handle

    def _checkin(self, handle: _WorkerHandle):
        self._idle.put(handle)
        if self.metrics is not None:
            self._set_depth_gauges()

    def _set_depth_gauges(self):
        pool_depth_metrics(
            self.metrics, size=self.size, idle=self._idle.qsize(),
        )

    @property
    def size(self) -> int:
        with self._pool_lock:
            return len(self._handles)

    @property
    def idle_count(self) -> int:
        return self._idle.qsize()

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _request(self, kind: str, payload, timeout: Optional[float]):
        """One round trip to a worker; kills + respawns on trouble."""
        handle = self._checkout()
        tracer = current_tracer()
        span = None
        extras = None
        if tracer.enabled:
            span = tracer.start("pool.execute", {
                "kind": kind, "pid": handle.process.pid,
            })
            extras = {
                "span": tracer.propagation_context(span),
                "request_id": current_request_id(),
            }
        keep = True
        try:
            try:
                handle.conn.send((kind, payload, extras))
            except (BrokenPipeError, OSError):
                keep = False
                self.log.event(
                    "pool.worker_crash", kind=kind, phase="send",
                    pid=handle.process.pid,
                    exitcode=handle.process.exitcode,
                )
                self._respawn(handle, "send-failed")
                tracer.finish(span, status="ERROR",
                              attributes={"error.type": "WorkerCrash"})
                return "error", {
                    "type": "WorkerCrash",
                    "message": "pool worker pipe closed before dispatch",
                }
            if not handle.conn.poll(timeout):
                keep = False
                self.log.event(
                    "pool.worker_timeout", kind=kind, timeout=timeout,
                    pid=handle.process.pid,
                )
                self._respawn(handle, "timeout")
                tracer.finish(span, status="ERROR",
                              attributes={"error.type": "JobTimeout"})
                return "timeout", {
                    "type": "JobTimeout",
                    "message": f"job exceeded its {timeout:g}s deadline",
                }
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                keep = False
                # The pipe closed because the worker is exiting: reap
                # it so the error can name its exit code.
                handle.process.join(5)
                exitcode = handle.process.exitcode
                self.log.event(
                    "pool.worker_crash", kind=kind, phase="recv",
                    pid=handle.process.pid, exitcode=exitcode,
                )
                self._respawn(handle, "crash")
                tracer.finish(span, status="ERROR",
                              attributes={"error.type": "WorkerCrash"})
                return "error", {
                    "type": "WorkerCrash",
                    "message": (
                        "pool worker died without a result "
                        f"(exit code {exitcode})"
                    ),
                }
            handle.jobs += 1
            if span is not None:
                tracer.adopt(message.pop("spans", None), anchor=span)
            if message["ok"]:
                tracer.finish(span)
                return "ok", message["value"]
            tracer.finish(span, status="ERROR", attributes={
                "error.type": message["error"].get("type", "Error"),
            })
            return "error", message["error"]
        finally:
            if keep:
                self._checkin(handle)

    def _execute(self, spec: MatchJobSpec, timeout: Optional[float]):
        return self._request("job", spec, timeout)

    def search(self, request: dict, timeout: Optional[float] = None) -> dict:
        """Run one search on a resident-searcher worker; raises on error."""
        timeout = timeout if timeout is not None else self.timeout
        outcome, value = self._request("search", request, timeout)
        if outcome == "ok":
            return value
        raise PoolError(
            f"{value.get('type', 'Error')}: "
            f"{value.get('message', 'search failed')}"
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self, wait: bool = True):
        """Stop every worker.  With ``wait`` the idle queue is drained
        first, so workers finish their in-flight job before the
        sentinel lands; without it, workers are terminated."""
        if self._closed:
            return
        self._closed = True
        if wait:
            # Claim every worker slot: each claim returns only when that
            # worker is idle again, i.e. its in-flight request finished.
            claimed = []
            for _ in range(self.size):
                try:
                    claimed.append(self._idle.get(timeout=self.spawn_timeout))
                except queue_module.Empty:
                    break
        with self._pool_lock:
            handles = list(self._handles)
            self._handles.clear()
        for handle in handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.log.event("pool.shutdown", respawns=self.respawns)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    def __repr__(self):
        return (
            f"<WorkerPool workers={self.workers} idle={self.idle_count} "
            f"respawns={self.respawns} corpus={self.has_corpus}>"
        )
