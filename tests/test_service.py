"""Service-layer tests: jobs, store, manifest, runner failure semantics.

The batch contract under test (``qmatch batch`` runs on a
:class:`~repro.service.pool.WorkerPool`): a worker crash marks the job
failed with a structured error record; a hung job is killed, retried,
and lands in the timed-out state; a cache hit returns a bit-identical
result to a cold run; and a batch of N pairs under K workers completes
with deterministic, submission-ordered reporting.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine.stats import EngineStats
from repro.service.jobs import JobQueue, JobState, MatchJobSpec
from repro.service.manifest import load_manifest, parse_manifest
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner, execute_job, job_fingerprint
from repro.service.store import (
    ResultStore,
    canonical_json,
    content_hash,
    store_key,
)
from repro.service.validation import (
    ValidationError,
    validate_algorithm,
    validate_positive,
    validate_strategy,
    validate_threshold,
    validate_weights,
)
from repro.xsd.builder import TreeBuilder
from repro.xsd.serializer import to_xsd


def small_pair():
    """A tiny schema pair that matches in a few milliseconds."""
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


# ----------------------------------------------------------------------
# Injectable (spec, state) job bodies (module-level: must survive
# fork/pickle)
# ----------------------------------------------------------------------

def crashing_worker(spec, state=None):
    os._exit(13)  # hard crash, no exception, no result


def failing_worker(spec, state=None):
    raise RuntimeError("synthetic worker failure")


def hanging_worker(spec, state=None):
    time.sleep(30)
    return execute_job(spec, state)


def slow_then_ok_worker(spec, state=None):
    # Jobs complete out of submission order: later (smaller index)
    # labels sleep longest.
    time.sleep(0.05 * (5 - int(spec.label[-1])))
    return execute_job(spec, state)


class TestValidation:
    def test_threshold_range(self):
        assert validate_threshold(0.0) == 0.0
        assert validate_threshold("0.75") == 0.75
        for bad in (-0.1, 1.01, "high", None, True, False):
            with pytest.raises(ValidationError):
                validate_threshold(bad)

    def test_positive_rejects_booleans(self):
        assert validate_positive(2, "timeout") == 2.0
        for bad in (True, False):
            with pytest.raises(ValidationError, match="invalid timeout"):
                validate_positive(bad, "timeout", allow_zero=True)

    def test_strategy_names(self):
        assert validate_strategy(None) is None
        for name in ("greedy", "hierarchical", "stable", "all"):
            assert validate_strategy(name) == name
        for bad in ("bogus", 7, "", ["greedy"]):
            with pytest.raises(ValidationError, match="invalid strategy"):
                validate_strategy(bad)

    def test_weights(self):
        weights = validate_weights("3,2,1,4")
        assert weights.as_tuple() == pytest.approx((0.3, 0.2, 0.1, 0.4))
        assert validate_weights(None) is None
        assert validate_weights([1, 1, 1, 1]).total == pytest.approx(1.0)
        for bad in ("1,2", "a,b,c,d", "-1,1,1,1", "0,0,0,0", object()):
            with pytest.raises(ValidationError):
                validate_weights(bad)

    def test_weights_trailing_comma_rejected(self):
        with pytest.raises(ValidationError, match="trailing comma"):
            validate_weights("3,2,1,4,")
        with pytest.raises(ValidationError, match="empty entry"):
            validate_weights("3,,1,4")
        with pytest.raises(ValidationError, match="empty"):
            validate_weights("")

    def test_weights_named_form(self):
        named = validate_weights("label=3,properties=2,level=1,children=4")
        assert named.as_tuple() == pytest.approx((0.3, 0.2, 0.1, 0.4))
        # Single-letter aliases and any order.
        aliased = validate_weights("c=4,l=3,p=2,h=1")
        assert aliased.as_tuple() == named.as_tuple()
        mapped = validate_weights(
            {"label": 3, "properties": 2, "level": 1, "children": 4}
        )
        assert mapped.as_tuple() == pytest.approx(named.as_tuple())

    def test_weights_duplicate_axis_rejected(self):
        with pytest.raises(ValidationError, match="duplicate axis"):
            validate_weights("label=3,label=2,level=1,children=4")
        with pytest.raises(ValidationError, match="duplicate axis"):
            # Alias and full name collide on the same axis.
            validate_weights("l=3,label=2,level=1,children=4")

    def test_weights_named_form_errors(self):
        with pytest.raises(ValidationError, match="unknown axis"):
            validate_weights("label=3,props2=2,level=1,children=4")
        with pytest.raises(ValidationError, match="missing axis"):
            validate_weights("label=3,properties=2,level=1")
        with pytest.raises(ValidationError, match="mixes named"):
            validate_weights("label=3,2,1,4")
        with pytest.raises(ValidationError, match="must be a number"):
            validate_weights("label=x,properties=2,level=1,children=4")

    def test_weights_instance_axis_named(self):
        # Optional fifth axis: full name and single-letter alias.
        named = validate_weights(
            "label=3,properties=2,level=1,children=4,instance=2"
        )
        assert named.instance == pytest.approx(2 / 12)
        aliased = validate_weights("l=3,p=2,h=1,c=4,i=2")
        assert aliased.as_tuple() == named.as_tuple()
        # The paper's four axes stay required even in named form.
        with pytest.raises(ValidationError, match="missing axis"):
            validate_weights("label=3,properties=2,level=1,instance=2")

    def test_weights_instance_axis_positional(self):
        five = validate_weights("3,2,1,4,2")
        assert five.instance == pytest.approx(2 / 12)
        assert len(five.as_tuple()) == 5
        with pytest.raises(ValidationError, match="four .* or five"):
            validate_weights("3,2,1,4,2,9")

    def test_weights_instance_duplicate_alias_rejected(self):
        with pytest.raises(ValidationError, match="duplicate axis"):
            validate_weights("l=3,p=2,h=1,c=4,i=1,instance=2")

    def test_weights_unknown_axis_lists_instance(self):
        with pytest.raises(ValidationError, match="instance"):
            validate_weights("l=3,p=2,h=1,c=4,intsance=1")

    def test_weights_all_zero_rejected_cleanly(self):
        # The normalizer raises ValueError (not ZeroDivisionError) and
        # validation wraps it in the uniform ValidationError envelope.
        with pytest.raises(ValidationError):
            validate_weights("0,0,0,0,0")

    def test_weights_zero_instance_stays_four_axis(self):
        weights = validate_weights("3,2,1,4,0")
        assert weights.as_tuple() == pytest.approx((0.3, 0.2, 0.1, 0.4))
        assert not weights.uses_instance

    def test_algorithm(self):
        assert validate_algorithm("qmatch") == "qmatch"
        with pytest.raises(ValidationError, match="psychic"):
            validate_algorithm("psychic")


class TestJobModel:
    def test_spec_is_content_hashed(self):
        spec = make_spec()
        assert spec.source_hash == content_hash(spec.source_xsd)
        assert len(spec.source_hash) == 64
        # Whitespace-only differences hash identically.
        respaced = MatchJobSpec(
            source_xsd=spec.source_xsd + "\n\n",
            target_xsd=spec.target_xsd,
        )
        assert respaced.source_hash == spec.source_hash

    def test_default_label(self):
        spec = make_spec(source_name="A", target_name="B", algorithm="cupid")
        assert spec.label == "A~B:cupid"

    def test_queue_preserves_submission_order(self):
        queue = JobQueue()
        records = queue.submit_all(make_spec(label=f"j{i}") for i in range(5))
        assert [r.job_id for r in records] == [
            f"job-{i:04d}" for i in range(1, 6)
        ]
        assert [r.spec.label for r in queue.records()] == [
            f"j{i}" for i in range(5)
        ]
        assert queue.counts()["pending"] == 5

    def test_snapshot_is_json_friendly(self):
        queue = JobQueue()
        record = queue.submit(make_spec())
        text = json.dumps(record.snapshot())
        assert '"state": "pending"' in text


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = store.key_for("s" * 64, "t" * 64, "f" * 16)
        assert store.get(key) is None
        store.put(key, {"tree_qom": 0.5, "correspondences": []})
        assert store.get(key) == {"tree_qom": 0.5, "correspondences": []}
        assert store.hits == 1 and store.misses == 1
        assert len(store) == 1

    def test_canonical_bytes_are_stable(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for("a", "b", "c")
        payload = {"b": 1, "a": [1, 2]}
        store.put(key, payload)
        first = store.path_for(key).read_bytes()
        store.put(key, {"a": [1, 2], "b": 1})  # different dict order
        assert store.path_for(key).read_bytes() == first

    def test_key_covers_all_components(self):
        base = store_key("s", "t", "f")
        assert store_key("s2", "t", "f") != base
        assert store_key("s", "t2", "f") != base
        assert store_key("s", "t", "f2") != base
        assert store_key("s", "t", "f") == base

    def test_fingerprint_distinguishes_configs(self):
        spec = make_spec()
        assert job_fingerprint(spec) == job_fingerprint(make_spec())
        assert job_fingerprint(spec) != job_fingerprint(
            make_spec(threshold=0.9)
        )
        assert job_fingerprint(spec) != job_fingerprint(
            make_spec(algorithm="linguistic")
        )
        assert job_fingerprint(spec) != job_fingerprint(
            make_spec(weights=(0.25, 0.25, 0.25, 0.25))
        )


class TestManifest:
    def manifest(self, **overrides):
        data = {
            "defaults": {"algorithm": "qmatch", "threshold": 0.5},
            "pairs": [
                {"source": "builtin:PO1", "target": "builtin:PO2"},
                {"source": "builtin:Article", "target": "builtin:Book",
                 "algorithm": "linguistic", "label": "books"},
            ],
        }
        data.update(overrides)
        return data

    def test_builtin_pairs_load(self):
        specs = parse_manifest(self.manifest())
        assert len(specs) == 2
        assert specs[0].source_name == "PO1"
        assert specs[1].algorithm == "linguistic"
        assert specs[1].label == "books"

    def test_file_paths_resolve_relative_to_manifest(self, tmp_path):
        source_xsd, target_xsd = small_pair()
        (tmp_path / "a.xsd").write_text(source_xsd, encoding="utf-8")
        (tmp_path / "b.xsd").write_text(target_xsd, encoding="utf-8")
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({
            "pairs": [{"source": "a.xsd", "target": "b.xsd"}],
        }), encoding="utf-8")
        (spec,) = load_manifest(manifest_path)
        # parse_xsd_file names trees after the file stem.
        assert spec.source_name == "a"
        # Canonical re-serialization: hash matches the parsed form, not
        # the raw file bytes.
        assert spec.source_hash == content_hash(spec.source_xsd)

    @pytest.mark.parametrize("mutation, message", [
        ({"pairs": []}, "non-empty"),
        ({"pairs": [{"source": "builtin:PO1"}]}, "missing 'target'"),
        ({"pairs": [{"source": "builtin:PO1", "target": "builtin:PO2",
                     "algorithm": "psychic"}]}, "algorithm"),
        ({"pairs": [{"source": "builtin:PO1", "target": "builtin:PO2",
                     "threshold": 2}]}, "threshold"),
        ({"pairs": [{"source": "builtin:PO1", "target": "builtin:PO2",
                     "weights": "1,2"}]}, "weights"),
        ({"pairs": [{"source": "builtin:PO1", "target": "builtin:PO2",
                     "algorithm": "cupid", "weights": "1,1,1,1"}]},
         "only apply to the qmatch"),
        ({"pairs": [{"source": "builtin:PO1", "target": "builtin:PO2",
                     "surprise": 1}]}, "unknown keys"),
        ({"pairs": [{"source": "builtin:Nope", "target": "builtin:PO2"}]},
         "unknown schema"),
        ({"defaults": {"surprise": 1},
          "pairs": [{"source": "builtin:PO1", "target": "builtin:PO2"}]},
         "unknown keys"),
    ])
    def test_invalid_manifests_rejected(self, mutation, message):
        with pytest.raises(ValidationError, match=message):
            parse_manifest(self.manifest(**mutation))

    def test_unreadable_manifest_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_manifest(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_manifest(bad)


class TestBatchRunner:
    def test_batch_completes_under_worker_pool(self):
        specs = [make_spec(label=f"job{i}") for i in range(6)]
        with WorkerPool(workers=3, retries=0) as pool:
            report = pool.run(specs)
        assert report.ok
        assert report.counts["done"] == 6
        assert all(r.result["tree_qom"] > 0 for r in report.records)
        assert all(r.attempts == 1 for r in report.records)

    def test_report_order_is_submission_order(self):
        """Completion order is scrambled; the report never is."""
        specs = [make_spec(label=f"job{i}") for i in range(4)]
        with WorkerPool(
            workers=4, retries=0, worker=slow_then_ok_worker, timeout=30
        ) as pool:
            report = pool.run(specs)
        assert [r.spec.label for r in report.records] == [
            f"job{i}" for i in range(4)
        ]
        jobs = report.to_dict()["jobs"]
        assert [j["label"] for j in jobs] == [f"job{i}" for i in range(4)]

    def test_worker_crash_yields_failed_record(self):
        with WorkerPool(
            workers=1, retries=1, retry_backoff=0, worker=crashing_worker
        ) as pool:
            report = pool.run([make_spec()])
        (record,) = report.records
        assert record.state is JobState.FAILED
        assert record.attempts == 2  # first try + one retry
        assert record.error["type"] == "WorkerCrash"
        assert "exit code 13" in record.error["message"]
        assert record.error["attempts"] == 2

    def test_worker_exception_yields_failed_record(self):
        with WorkerPool(
            workers=1, retries=0, retry_backoff=0, worker=failing_worker
        ) as pool:
            (record,) = pool.run([make_spec()]).records
        assert record.state is JobState.FAILED
        assert record.error["type"] == "RuntimeError"
        assert "synthetic worker failure" in record.error["message"]

    def test_timeout_is_retried_then_timed_out(self):
        with WorkerPool(
            workers=1, timeout=0.3, retries=1, retry_backoff=0,
            worker=hanging_worker,
        ) as pool:
            started = time.perf_counter()
            (record,) = pool.run([make_spec()]).records
        assert record.state is JobState.TIMED_OUT
        assert record.attempts == 2
        assert record.error["type"] == "JobTimeout"
        # The hung worker was actually killed, twice, not waited out.
        assert time.perf_counter() - started < 10

    def test_bad_pair_never_kills_the_batch(self):
        specs = [
            make_spec(label="ok-1"),
            make_spec(label="boom", algorithm="no-such-algorithm"),
            make_spec(label="ok-2"),
        ]
        with WorkerPool(workers=2, retries=0) as pool:
            report = pool.run(specs)
        states = {r.spec.label: r.state for r in report.records}
        assert states["ok-1"] is JobState.DONE
        assert states["ok-2"] is JobState.DONE
        assert states["boom"] is JobState.FAILED
        assert not report.ok
        assert report.counts["failed"] == 1

    def test_inline_mode_matches_process_mode(self):
        spec = make_spec()
        inline = BatchRunner().run([spec])
        with WorkerPool(workers=1) as pool:
            pooled = pool.run([make_spec()])
        assert inline.records[0].result == pooled.records[0].result

    def test_run_report_is_machine_readable(self):
        report = BatchRunner(retries=0).run([make_spec()])
        payload = json.loads(report.to_json())
        assert payload["summary"]["done"] == 1
        assert payload["summary"]["total"] == 1
        assert payload["jobs"][0]["state"] == "done"
        assert payload["stats"]["counters"]["jobs.executed"] == 1
        full = json.loads(report.to_json(include_results=True))
        assert full["jobs"][0]["result"]["correspondences"]


class TestResultCaching:
    def test_warm_run_is_bit_identical_to_cold(self, tmp_path):
        specs = [make_spec(label=f"job{i}", threshold=0.3 + 0.1 * i)
                 for i in range(3)]
        cold_store = ResultStore(tmp_path / "cache")
        cold = BatchRunner(store=cold_store, retries=0).run(specs)
        assert cold.ok and cold.cache_hits == 0

        warm_store = ResultStore(tmp_path / "cache")
        warm = BatchRunner(store=warm_store, retries=0).run(
            [make_spec(label=f"job{i}", threshold=0.3 + 0.1 * i)
             for i in range(3)]
        )
        assert warm.ok
        assert warm.cache_hits == 3
        assert warm.cache_hit_rate == 1.0
        assert warm_store.hit_rate == 1.0
        for cold_record, warm_record in zip(cold.records, warm.records):
            assert warm_record.cache_hit
            assert warm_record.attempts == 0
            # Bit-identical: the canonical bytes agree, not just the dicts.
            assert (canonical_json(warm_record.result)
                    == canonical_json(cold_record.result))

    def test_changed_schema_misses_changed_config_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = BatchRunner(store=store, retries=0)
        runner.run([make_spec()])
        # Same pair again: hit.
        hit = runner.run([make_spec()]).records[0]
        assert hit.cache_hit
        # New threshold: config fingerprint changes, so recompute.
        miss = runner.run([make_spec(threshold=0.9)]).records[0]
        assert not miss.cache_hit
        # Changed schema content: recompute.
        builder = TreeBuilder("Order")
        builder.leaf("OrderNo", type_name="string")  # type changed
        changed = runner.run(
            [make_spec(source_xsd=to_xsd(builder.build()))]
        ).records[0]
        assert not changed.cache_hit

    def test_store_counters_surface_in_report_stats(self, tmp_path):
        runner = BatchRunner(store=ResultStore(tmp_path), retries=0)
        runner.run([make_spec()])
        report = runner.run([make_spec()])
        cache = report.stats.caches["result-store"]
        assert cache.hits == 1 and cache.misses == 1
        assert report.stats.counters["result-store.writes"] == 1


class TestEngineStatsRoundtrip:
    def test_from_dict_inverts_as_dict(self):
        stats = EngineStats()
        with stats.stage("score:test"):
            pass
        stats.record_hit("labels")
        stats.record_miss("labels")
        stats.count("pairs", 7)
        rebuilt = EngineStats.from_dict(stats.as_dict())
        assert rebuilt.as_dict() == stats.as_dict()
        merged = EngineStats().merge(rebuilt).merge(rebuilt)
        assert merged.counters["pairs"] == 14
        assert merged.caches["labels"].hits == 2


class TestHarnessParallelRouting:
    def test_parallel_rows_match_serial_rows(self):
        from repro.datasets import registry
        from repro.evaluation.harness import evaluate_all

        tasks = [registry.task("PO")]
        algorithms = ["linguistic", "qmatch"]
        serial = evaluate_all(tasks, algorithms)
        parallel = evaluate_all(tasks, algorithms, workers=2)
        assert [(r.task, r.algorithm) for r in serial] == \
            [(r.task, r.algorithm) for r in parallel]
        for serial_row, parallel_row in zip(serial, parallel):
            assert parallel_row.found == serial_row.found
            assert parallel_row.tree_qom == pytest.approx(
                serial_row.tree_qom
            )
            assert parallel_row.precision == pytest.approx(
                serial_row.precision
            )
            assert parallel_row.recall == pytest.approx(serial_row.recall)

    def test_parallel_rejects_instances_and_shared_context(self):
        from repro.datasets import registry
        from repro.evaluation.harness import evaluate_all
        from repro.linguistic.matcher import LinguisticMatcher

        tasks = [registry.task("PO")]
        with pytest.raises(ValueError, match="registry names"):
            evaluate_all(tasks, [LinguisticMatcher()], workers=2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            evaluate_all(tasks, ["qmatch"], workers=2, share_context=True)
