"""QMatch benchmark: pair matching, corpus reads/writes and HTTP serving.

Run from the repository root::

    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload pair-match --seed 3 --seconds 10 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.

This launcher uses the standard library only.  It starts each workload
in a fresh Python process with ``PYTHONHASHSEED`` pinned and ``src`` on
``PYTHONPATH``: first extra set-up-only processes, then the measuring
one.  ``setup_s`` is the median, over all of them, of the time from
process start to the workload's ``READY`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pair-match", "corpus-rw", "serve-match")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 10
#: Set-up is timed this many times per untraced run (median reported).
SETUP_SAMPLES = 3
#: The whole run, set-up samples included, must end within this.
RUN_DEADLINE_S = 170.0
HASH_SEED = "0"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-goldens", action="store_true",
        help="record this run's outputs (and, traced, its work counters) "
             "as the committed golden of its seed",
    )
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


class ChildFailed(RuntimeError):
    pass


class Child:
    """One workload process and its line protocol."""

    def __init__(self, args, mode: str, deadline: float):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--child", mode,
        ]
        if args.update_goldens:
            command.append("--update-goldens")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        self.deadline = deadline
        self.started = time.perf_counter()
        # A new session lets a timeout stop the workload and every
        # process it started (the server and its pool) at once.
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env=env, start_new_session=True,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)
        self._buffer = b""

    def readline(self) -> str:
        """The next stdout line; raises on deadline or early exit."""
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise ChildFailed("workload exceeded the run deadline")
            if not self._selector.select(timeout=remaining):
                continue
            chunk = os.read(self.process.stdout.fileno(), 65536)
            if not chunk:
                code = self.process.wait()
                raise ChildFailed(f"workload process exited with code {code}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8", errors="replace")

    def wait_ready(self) -> float:
        """Seconds from process start to the ``READY`` line."""
        while True:
            line = self.readline()
            if line == "READY":
                return time.perf_counter() - self.started
            print(line, flush=True)

    def wait_result(self) -> dict:
        while True:
            line = self.readline()
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
                self.finish()
                return result
            print(line, flush=True)

    def finish(self):
        try:
            code = self.process.wait(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildFailed("workload did not exit") from None
        if code != 0:
            raise ChildFailed(f"workload process exited with code {code}")

    def kill(self):
        """Stop the workload and every process it started: SIGTERM lets
        it stop its server cleanly, SIGKILL follows for what is left."""
        try:
            os.killpg(self.process.pid, signal.SIGTERM)
            self.process.wait(timeout=10)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


def run_workload(args) -> dict:
    """Set-up samples, then the measuring process; returns its result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(args, "setup", deadline)
            try:
                setup_samples.append(child.wait_ready())
                child.finish()
            finally:
                if child.process.poll() is None:
                    child.kill()
    child = Child(args, "run", deadline)
    try:
        setup_samples.append(child.wait_ready())
        result = child.wait_result()
    finally:
        if child.process.poll() is None:
            child.kill()
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples),
            "unit": "s",
            "samples": len(setup_samples),
        }
    return result


def print_metrics(workload: str, result: dict):
    for name, entry in sorted(result["metrics"].items()):
        samples = entry.get("samples")
        count = f" (n={samples})" if samples is not None else ""
        print(f"[{workload}] {name:<34} {entry['value']:14.4f} "
              f"{entry['unit']}{count}", flush=True)
    print(f"[{workload}] correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          flush=True)


def strip_samples(result: dict) -> dict:
    """The contract form: each metric is exactly ``value`` and ``unit``."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the workload processes get stopped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.child is not None:
        from harness import child_main

        return child_main(args)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        sub_args = argparse.Namespace(**{**vars(args), "workload": workload})
        try:
            result = run_workload(sub_args)
        except ChildFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print_metrics(workload, result)
        results[workload] = strip_samples(result)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": entry
                for workload, result in results.items()
                for name, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
