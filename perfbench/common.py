"""Shared helpers: statistics, operation logs, process memory, work dirs.

Imported by the workload processes only, never by the launcher
(``run.py`` stays stdlib-only so it can fail fast when the repository
sources are missing).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import time
from pathlib import Path

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_ok(count: int, q: float) -> bool:
    """Whether percentile ``q`` has at least :data:`MIN_TAIL_SAMPLES`
    samples beyond it among ``count``."""
    return count - math.ceil(q / 100.0 * count) >= MIN_TAIL_SAMPLES


def ratio(hits: int, misses: int) -> float:
    """Hits over lookups (0.0 with no lookups)."""
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def digest(value) -> str:
    """Short stable digest of a JSON-serializable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class OpLog:
    """Per-class operation outcomes and latencies of one timed pass."""

    def __init__(self, probe: "SpeedProbe | None" = None):
        self.latencies: dict[str, list] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        #: Samples the host's speed between operations (in-process
        #: passes); the pass brackets its operations with samples too.
        self.probe = probe

    def record(self, op_class: str, seconds: float, ok: bool = True):
        self.attempted[op_class] = self.attempted.get(op_class, 0) + 1
        if ok:
            self.latencies.setdefault(op_class, []).append(seconds)
        else:
            self.failed[op_class] = self.failed.get(op_class, 0) + 1
        if self.probe is not None:
            self.probe.after(seconds)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def total_seconds(self) -> float:
        return sum(sum(values) for values in self.latencies.values())

    def class_seconds(self, op_class: str) -> float:
        return sum(self.latencies.get(op_class, ()))

    def count_lines(self) -> list:
        """``class attempted/succeeded/failed`` lines for the report."""
        lines = []
        for op_class in sorted(self.attempted):
            attempted = self.attempted[op_class]
            failed = self.failed.get(op_class, 0)
            lines.append(
                f"ops {op_class:<10} attempted={attempted} "
                f"succeeded={attempted - failed} failed={failed}"
            )
        return lines


#: Nominal duration of :func:`reference_kernel` (seconds): timed metrics
#: are reported as if one kernel run had taken exactly this long.
REFERENCE_S = 0.010
#: Kernel samples taken right before and right after a timed pass.
PROBE_BRACKET = 5


class _Node:
    __slots__ = ("kind", "label", "children")

    def __init__(self, kind: int, label: str):
        self.kind = kind
        self.label = label
        self.children = []

    def score(self, other: "_Node") -> float:
        return (self.kind == other.kind) * 0.5 + (self.label == other.label) * 0.5


def _depth_sum(node: _Node, depth: int = 0) -> int:
    return depth + sum(_depth_sum(child, depth + 1) for child in node.children)


def reference_kernel() -> float:
    """A fixed pure-Python workload with the matcher's instruction mix:
    building and walking a tree of small objects, attribute reads,
    method calls, tuple-keyed memo lookups and float sums.  It lives in
    the benchmark, so no change to the program moves it; the garbage
    collector is off while it runs, so the program's heap size does not
    either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        nodes = [_Node(0, "root")]
        for i in range(4000):
            node = _Node(i % 13, "t%d" % (i % 5))
            nodes[(i * 7919) % len(nodes)].children.append(node)
            nodes.append(node)
        total = float(_depth_sum(nodes[0]))
        memo: dict = {}
        for left in nodes[:110]:
            for right in nodes[:110]:
                key = (left.kind, left.label, right.kind, right.label)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = left.score(right)
                total += value
        return total
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Tracks the host's speed so timed metrics can be compared across runs.

    On a shared host the same code can run a third slower for tens of
    seconds at a time, longer than one run (measured on a 2-vCPU KVM
    guest of a Xeon host).  A probe times :func:`reference_kernel` before, between
    (every ``every_s`` of operation time) and after the timed
    operations; :meth:`factor` converts the run's measured seconds into
    seconds on a host where the kernel takes :data:`REFERENCE_S`.
    """

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list = []
        self._since = 0.0

    def sample(self, count: int = 1):
        for _ in range(count):
            started = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - started)

    def after(self, elapsed: float):
        """Account ``elapsed`` seconds of operations; sample when due."""
        self._since += elapsed
        if self._since >= self.every_s:
            self._since = 0.0
            self.sample()

    def factor(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / median(self.samples)


def metric(value: float, unit: str, samples=None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def add_engine_stats(tally: dict, stats) -> None:
    """Fold one result's :class:`EngineStats` into a pass tally: node
    pairs scored and label / property cache hits and misses."""
    tally["pairs"] += stats.counters.get("qmatch.pairs", 0)
    for key, cache in (("label", "context.labels"),
                       ("property", "context.properties")):
        entry = stats.caches.get(cache)
        if entry is not None:
            tally[f"{key}_hits"] += entry.hits
            tally[f"{key}_misses"] += entry.misses


ENGINE_TALLY = ("pairs", "label_hits", "label_misses", "property_hits",
                "property_misses")


class InProcessWorkload:
    """Harness protocol shared by the workloads timed in this process.

    Subclasses provide ``setup``, ``run_pass``, ``replay_digests``,
    ``end_to_end`` and ``report_lines``.  Traced runs time two traced
    passes after the untraced one, so work counters can be compared
    between passes.
    """

    in_process = True
    traced_passes = 2

    def verify(self, run: dict) -> list:
        """Checks beyond the goldens (none: goldens cover the outputs)."""
        return []

    def absent_layers(self) -> list:
        return ["service.*: bypassed -- no server in this workload (0)"]

    @staticmethod
    def pass_seconds(run: dict) -> float:
        return run["oplog"].total_seconds() * run["scale"]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self):
        pass


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of ``pid`` and all its descendants."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue
        task_dir = Path(f"/proc/{current}/task")
        for task in task_dir.glob("*/children"):
            try:
                pending.extend(int(child) for child in task.read_text().split())
            except FileNotFoundError:
                continue
    return total_kb / 1024.0


class WorkDir:
    """A scratch directory under the checkout, removed on exit."""

    def __init__(self, name: str):
        self.path = Path(".perfbench_work") / f"{name}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def sub(self, name: str) -> Path:
        return self.path / name

    def cleanup(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def load_goldens(name: str) -> dict:
    path = Path(__file__).with_name("goldens") / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def save_goldens(name: str, payload: dict):
    path = Path(__file__).with_name("goldens") / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
