"""Workload process: set up, run the timed passes, check, report.

``run.py`` starts this process once per set-up sample.  The process
prints ``READY`` when set-up is done (the launcher times process start
to that line as ``setup_s``) and, in run mode, one ``RESULT <json>``
line at the end.  Report lines for people go to stdout with no prefix.

Untraced runs time one pass.  Traced runs time an untraced pass and
then traced passes over the identical operation sequence: the first
traced pass gives the per-layer metrics and, against the untraced
pass, the tracing overhead; the work counters of every pass must agree
exactly.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import signal
import sys

from common import (
    PROBE_BRACKET,
    OpLog,
    SpeedProbe,
    WorkDir,
    load_goldens,
    metric,
    ratio,
    save_goldens,
)
from layers import LayerTracer

WORKLOAD_MODULES = {
    "pair-match": "pair_match",
    "corpus-rw": "corpus_rw",
    "serve-match": "serve_match",
}

#: Operations of each golden run that every run replays and checks, so
#: runs of any seed check outputs (and all seeds do the same set-up).
REPLAY_OPS = {"pair-match": 2, "corpus-rw": 24}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("xsd.parse.calls", "count"),
    ("xsd.parse.self_ms", "ms"),
    ("xsd.serialize.self_ms", "ms"),
    ("linguistic.compare.calls", "count"),
    ("linguistic.compare.self_ms", "ms"),
    ("properties.compare.calls", "count"),
    ("properties.compare.self_ms", "ms"),
    ("engine.label_hit_ratio", "ratio"),
    ("engine.property_hit_ratio", "ratio"),
    ("core.pairs", "count"),
    ("core.score.self_ms", "ms"),
    ("matching.select.self_ms", "ms"),
    ("matching.payload.self_ms", "ms"),
    ("constraints.attach_axes.self_ms", "ms"),
    ("corpus.retrieve.self_ms", "ms"),
    ("corpus.retrieve.candidates", "count"),
    ("corpus.retrieve.docs_scored", "count"),
    ("corpus.retrieve.postings_walked", "count"),
    ("corpus.rerank.examined", "count"),
    ("service.runner.self_ms", "ms"),
    ("corpus.add.self_ms", "ms"),
    ("corpus.add.docs", "count"),
    ("corpus.store_add.self_ms", "ms"),
    ("corpus.compact.calls", "count"),
    ("corpus.compact.self_ms", "ms"),
    ("corpus.segments", "count"),
    ("corpus.tombstones", "count"),
    ("service.pool.queue_wait_ms", "ms"),
    ("service.pool.execute_ms", "ms"),
    ("service.http.router_ms", "ms"),
    ("service.http.transport_ms", "ms"),
    ("service.admission.rejected", "count"),
    ("service.pool.respawns", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.gen_lag_ms", "ms"),
)

#: Work counters that must repeat exactly for one seed.
WORK_COUNTERS = (
    "core.pairs",
    "linguistic.compare.calls",
    "properties.compare.calls",
    "xsd.parse.calls",
    "corpus.retrieve.docs_scored",
    "corpus.retrieve.postings_walked",
)


def tally_layers(tally: dict) -> dict:
    """Layer metrics read from a pass's result objects (no tracing)."""
    return {
        "core.pairs": tally.get("pairs", 0),
        "engine.label_hit_ratio": ratio(
            tally.get("label_hits", 0), tally.get("label_misses", 0)
        ),
        "engine.property_hit_ratio": ratio(
            tally.get("property_hits", 0), tally.get("property_misses", 0)
        ),
        "corpus.retrieve.candidates": tally.get("candidates", 0),
        "corpus.retrieve.docs_scored": tally.get("docs_scored", 0),
        "corpus.retrieve.postings_walked": tally.get("postings_walked", 0),
        "corpus.rerank.examined": tally.get("examined", 0),
        "corpus.add.docs": tally.get("added", 0),
        "corpus.segments": tally.get("segments", 0),
        "corpus.tombstones": tally.get("tombstones", 0),
    }


def tracer_layers(tracer: LayerTracer) -> dict:
    """Layer metrics from the in-process span wrappers."""
    return {
        "xsd.parse.calls": tracer.count("xsd.parse"),
        "xsd.parse.self_ms": tracer.self_ms("xsd.parse"),
        "xsd.serialize.self_ms": tracer.self_ms("xsd.serialize"),
        "linguistic.compare.calls": tracer.count("linguistic.compare"),
        "linguistic.compare.self_ms": tracer.self_ms("linguistic.compare"),
        "properties.compare.calls": tracer.count("properties.compare"),
        "properties.compare.self_ms": tracer.self_ms("properties.compare"),
        "core.score.self_ms": tracer.self_ms("core.score"),
        "matching.select.self_ms": tracer.self_ms("matching.select"),
        "matching.payload.self_ms": tracer.self_ms("matching.payload"),
        "constraints.attach_axes.self_ms": tracer.self_ms(
            "constraints.attach_axes"
        ),
        "corpus.retrieve.self_ms": tracer.self_ms("corpus.retrieve"),
        "service.runner.self_ms": tracer.self_ms("service.runner"),
        "corpus.add.self_ms": tracer.self_ms("corpus.add"),
        "corpus.store_add.self_ms": tracer.self_ms("corpus.store_add"),
        "corpus.compact.calls": tracer.count("corpus.compact"),
        "corpus.compact.self_ms": tracer.self_ms("corpus.compact"),
    }


def pass_count(workload, traced: bool) -> int:
    return 1 + workload.traced_passes if traced else 1


def run_passes(workload, traced: bool) -> list:
    """The untraced pass, then (traced runs) the traced passes."""
    runs = []
    for index in range(pass_count(workload, traced)):
        gc.collect()
        if workload.in_process:
            probe = SpeedProbe()
            probe.sample(PROBE_BRACKET)
            spans = LayerTracer() if index else contextlib.nullcontext()
            with spans as tracer:
                run = workload.run_pass(index, OpLog(probe))
            probe.sample(PROBE_BRACKET)
            run["scale"] = probe.factor()
            run["layers"] = tally_layers(run["tally"])
            if tracer is not None:
                run["layers"].update(tracer_layers(tracer))
        else:
            run = workload.run_pass(index, traced=bool(index))
        runs.append(run)
    return runs


def check(workload, args, runs: list, golden, replays: dict) -> list:
    """Every correctness problem of the run, as readable strings.

    ``golden`` is this seed's golden (or ``None``); ``replays`` holds
    the goldens whose prefixes every run replays."""
    problems = []
    first = runs[0]
    for index, run in enumerate(runs[1:], start=1):
        if run["digests"] != first["digests"]:
            problems.append(f"pass {index} outputs differ from pass 0")
    problems.extend(workload.verify(first))
    if golden is not None and golden["seconds"] == args.seconds:
        if first["digests"] != golden["digests"]:
            bad = sum(
                1 for got, want in zip(first["digests"], golden["digests"])
                if got != want
            ) + abs(len(first["digests"]) - len(golden["digests"]))
            problems.append(
                f"{bad} operation outputs differ from the committed golden "
                f"of seed {args.seed}"
            )
        if args.trace and golden.get("counters"):
            got = {name: runs[1]["layers"].get(name)
                   for name in golden["counters"]}
            if got != golden["counters"]:
                problems.append(
                    f"work counters {got} differ from the golden "
                    f"{golden['counters']}"
                )
    if workload.name in REPLAY_OPS:
        for seed_key in sorted(replays):
            entry = replays[seed_key]
            want = entry["digests"][:REPLAY_OPS[workload.name]]
            got = workload.replay_digests(
                int(seed_key), entry["seconds"], len(want)
            )
            if got != want:
                problems.append(
                    f"golden replay of seed {seed_key} differs "
                    f"({sum(1 for a, b in zip(got, want) if a != b)} of "
                    f"{len(want)} operations)"
                )
    if len(runs) > 1:
        counters = [
            {name: run["layers"].get(name) for name in WORK_COUNTERS}
            for run in runs[1:]
        ]
        if any(c != counters[0] for c in counters[1:]):
            problems.append(f"work counters differ between passes: {counters}")
        untraced = runs[0]["layers"]
        for name in WORK_COUNTERS:
            if name in untraced and untraced[name] != counters[0][name]:
                problems.append(
                    f"work counter {name} differs untraced vs traced: "
                    f"{untraced[name]} != {counters[0][name]}"
                )
    return problems


def child_main(args) -> int:
    # A SIGTERM from the launcher unwinds normally, so servers stop and
    # the work directory goes away.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    work = WorkDir(args.workload)
    try:
        workload = module.Workload(args.seed, args.seconds, work)
        try:
            return _child(workload, args)
        finally:
            workload.close()
    finally:
        work.cleanup()


def _child(workload, args) -> int:
    goldens = load_goldens(workload.name)
    golden = goldens.get(str(args.seed))
    workload.setup(passes=pass_count(workload, bool(args.trace)),
                   replays=len(goldens))
    print("READY", flush=True)
    if args.child == "setup":
        return 0
    runs = run_passes(workload, bool(args.trace))
    peak_rss = workload.peak_rss_mb()
    first = runs[0]
    oplog = first["oplog"]
    if args.update_goldens:
        entry = {"seconds": args.seconds, "digests": first["digests"]}
        if args.trace:
            entry["counters"] = {
                name: runs[1]["layers"][name] for name in WORK_COUNTERS
            }
        save_goldens(workload.name, {**goldens, str(args.seed): entry})
        golden = entry
    problems = check(workload, args, runs, golden, goldens)

    for line in workload.report_lines(first):
        print(line)
    print(f"host speed scale {first['scale']:.4f}: timed metrics are measured "
          "seconds x scale (see README)")
    for line in oplog.count_lines():
        print(line)
    attempted = oplog.total_attempted
    failed = oplog.total_failed
    print(f"metric error_rate         {failed / attempted:10.4f} ratio "
          f"(n={attempted})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        layers.update(runs[1]["layers"])
        layers["bench.trace_overhead"] = (
            workload.pass_seconds(runs[1]) / workload.pass_seconds(first)
        )
        for note in workload.absent_layers():
            print(f"layer {note}")
        metrics = {
            name: metric(layers[name], unit) for name, unit in PER_LAYER
        }
    else:
        metrics = {
            "success_rate": metric(
                (attempted - failed) / attempted, "ratio", attempted
            ),
            "peak_rss_mb": metric(peak_rss, "MB"),
        }
        metrics.update(workload.end_to_end(first))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit("harness.py is started by run.py")
