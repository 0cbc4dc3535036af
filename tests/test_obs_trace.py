"""Decision-trace layer: recorder, JSONL round trips, QMatch integration.

The load-bearing guarantees tested here:

- recording is observational only -- a traced run's score matrix is
  bit-identical to an untraced run's;
- every span's axis contributions sum exactly to its QoM;
- the JSON-lines form is byte-deterministic, so a trace collected from
  a forked :class:`~repro.service.pool.WorkerPool` worker equals the
  same job recorded inline, bit for bit.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import make_matcher
from repro.datasets import po1, po2
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Trace,
    TraceRecorder,
    load_trace,
    trace_run_id,
)
from repro.service.jobs import MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner, execute_job
from repro.xsd.serializer import to_xsd

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def record_sample(recorder: TraceRecorder) -> int:
    return recorder.record_pair(
        "A/x", "B/y", qom=0.82, category="leaf-relaxed", threshold=0.5,
        accepted=True,
        axes={"label": {"score": 1.0, "weight": 0.3, "contribution": 0.3}},
    )


class TestTraceRecorder:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_record_and_lookup(self):
        recorder = TraceRecorder(run_id="abc")
        span_id = record_sample(recorder)
        assert span_id == 0
        assert recorder.span_id("A/x", "B/y") == 0
        assert recorder.span_id("A/x", "B/nope") is None
        assert len(recorder) == 1

    def test_as_dict_round_trip(self):
        recorder = TraceRecorder(run_id="abc")
        recorder.begin_run(algorithm="qmatch", threshold=0.5)
        record_sample(recorder)
        clone = TraceRecorder.from_dict(recorder.as_dict())
        assert clone.run_id == "abc"
        assert clone.meta == recorder.meta
        assert clone.spans == recorder.spans
        assert clone.span_id("A/x", "B/y") == 0
        assert clone.to_jsonl() == recorder.to_jsonl()

    def test_from_dict_rejects_other_schema(self):
        with pytest.raises(ValueError, match="unsupported trace schema"):
            TraceRecorder.from_dict({"schema": "qmatch-trace/999"})

    def test_jsonl_has_header_then_spans(self, tmp_path):
        recorder = TraceRecorder(run_id="abc")
        recorder.begin_run(algorithm="qmatch")
        record_sample(recorder)
        path = recorder.write(tmp_path / "t.jsonl")
        trace = load_trace(path)
        assert trace.run_id == "abc"
        assert trace.meta("algorithm") == "qmatch"
        assert trace.header["schema"] == TRACE_SCHEMA
        assert len(trace) == 1
        assert trace.find("A/x", "B/y")["qom"] == 0.82

    def test_load_trace_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_trace(tmp_path / "nope.jsonl")

    def test_trace_requires_header(self):
        with pytest.raises(ValueError, match="no header"):
            Trace.from_jsonl('{"record":"span","id":0,"source":"a",'
                             '"target":"b","qom":0.5,"accepted":true}\n')

    def test_suffix_path_lookup(self):
        recorder = TraceRecorder()
        record_sample(recorder)
        trace = Trace.from_recorder(recorder)
        assert trace.best_for_source("x")["target"] == "B/y"
        assert trace.best_for_source("A/x")["target"] == "B/y"
        assert trace.best_for_source("z") is None


class TestTraceRunId:
    def test_deterministic(self):
        assert trace_run_id("a", "b") == trace_run_id("a", "b")

    def test_part_boundaries_matter(self):
        assert trace_run_id("ab", "c") != trace_run_id("a", "bc")

    def test_order_matters(self):
        assert trace_run_id("a", "b") != trace_run_id("b", "a")


@pytest.fixture(scope="module")
def traced_run():
    matcher = make_matcher("qmatch")
    source, target = po1(), po2()
    recorder = TraceRecorder(run_id="test")
    context = matcher.make_context(source, target, tracer=recorder)
    result = matcher.match(source, target, context=context)
    return matcher, source, target, recorder, result


class TestQMatchIntegration:
    def test_every_pair_recorded(self, traced_run):
        _, source, target, recorder, _ = traced_run
        assert len(recorder) == source.size * target.size

    def test_result_carries_the_tracer(self, traced_run):
        *_, recorder, result = traced_run
        assert result.trace is recorder

    def test_untraced_result_has_no_trace(self):
        result = make_matcher("qmatch").match(po1(), po2())
        assert result.trace is None

    def test_contributions_sum_to_qom(self, traced_run):
        *_, recorder, _ = traced_run
        for span in recorder.spans:
            total = sum(
                axis["contribution"] for axis in span["axes"].values()
            )
            assert total == pytest.approx(span["qom"], abs=1e-12)
            for axis in span["axes"].values():
                assert axis["contribution"] == pytest.approx(
                    axis["weight"] * axis["score"], abs=1e-12
                )

    def test_spans_match_the_score_matrix(self, traced_run):
        *_, recorder, result = traced_run
        for span in recorder.spans:
            assert span["qom"] == result.matrix.get_by_path(
                span["source"], span["target"]
            )

    def test_threshold_decisions(self, traced_run):
        matcher, *_, recorder, _ = traced_run
        threshold = matcher.config.threshold
        for span in recorder.spans:
            assert span["threshold"] == threshold
            assert span["accepted"] == (span["qom"] >= threshold)

    def test_children_links_resolve(self, traced_run):
        *_, recorder, _ = traced_run
        trace = Trace.from_recorder(recorder)
        def within(child_path: str, parent_path: str) -> bool:
            # The children axis may also pair a source child against the
            # target node itself (nesting-level relaxation), so a linked
            # path is the parent's path or below it -- never elsewhere.
            return (child_path == parent_path
                    or child_path.startswith(parent_path + "/"))

        linked = 0
        for span in recorder.spans:
            for child_id in span["children"]:
                child = trace.span(child_id)
                assert child is not None
                assert within(child["source"], span["source"])
                assert within(child["target"], span["target"])
                linked += 1
        assert linked > 0

    def test_cache_provenance_recorded(self, traced_run):
        *_, recorder, _ = traced_run
        label_states = {
            span["axes"]["label"]["cache"] for span in recorder.spans
        }
        # Label memos key on label text and every PO pair is distinct,
        # so the probe always precedes the comparison: all misses.
        assert label_states == {"miss"}
        # Property memos key on *signatures*, which repeat across nodes,
        # so the same run records both provenances there.
        property_states = {
            span["axes"]["properties"]["cache"] for span in recorder.spans
        }
        assert property_states == {"hit", "miss"}

    def test_cache_provenance_off_without_caching(self):
        matcher = make_matcher("qmatch")
        source, target = po1(), po2()
        recorder = TraceRecorder()
        context = matcher.make_context(
            source, target, cache_enabled=False, tracer=recorder,
        )
        matcher.match(source, target, context=context)
        assert {
            span["axes"]["label"]["cache"] for span in recorder.spans
        } == {"off"}

    def test_tracing_does_not_change_scores(self):
        matcher = make_matcher("qmatch")
        source, target = po1(), po2()
        plain = matcher.match(source, target)
        recorder = TraceRecorder()
        context = matcher.make_context(source, target, tracer=recorder)
        traced = matcher.match(source, target, context=context)
        assert dict(plain.matrix.items()) == dict(traced.matrix.items())
        assert plain.tree_qom == traced.tree_qom

    def test_run_metadata_stamped(self, traced_run):
        *_, recorder, _ = traced_run
        assert recorder.meta["algorithm"] == "qmatch"
        assert set(recorder.meta["weights"]) == {
            "label", "properties", "level", "children",
        }


def traced_spec() -> MatchJobSpec:
    return MatchJobSpec(
        source_xsd=to_xsd(po1()), target_xsd=to_xsd(po2()), trace=True,
    )


class TestTraceAcrossProcesses:
    def test_inline_runner_collects_the_trace(self):
        runner = BatchRunner()
        report = runner.run([traced_spec()])
        assert report.ok
        (trace,) = report.traces.values()
        assert trace["schema"] == TRACE_SCHEMA
        assert len(trace["spans"]) == po1().size * po2().size

    def test_untraced_job_collects_nothing(self):
        spec = MatchJobSpec(
            source_xsd=to_xsd(po1()), target_xsd=to_xsd(po2()),
        )
        report = BatchRunner().run([spec])
        assert report.ok
        assert report.traces == {}
        assert "trace" not in execute_job(spec)

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_forked_trace_is_byte_identical_to_inline(self):
        """The tentpole determinism guarantee.

        The same job traced in a forked pool worker process, traced
        inline, and traced through a directly-driven matcher must
        produce byte-identical JSON-lines -- deterministic span ids, a
        content-derived run ID, and no timestamps anywhere in the trace.
        """
        spec = traced_spec()
        with WorkerPool(workers=1) as pool:
            forked = pool.run([spec])
        inline = BatchRunner().run([spec])
        assert forked.ok and inline.ok
        forked_jsonl = TraceRecorder.from_dict(
            next(iter(forked.traces.values()))
        ).to_jsonl()
        inline_jsonl = TraceRecorder.from_dict(
            next(iter(inline.traces.values()))
        ).to_jsonl()
        assert forked_jsonl == inline_jsonl

        from repro.xsd.parser import parse_xsd

        matcher = make_matcher("qmatch")
        source = parse_xsd(spec.source_xsd)
        target = parse_xsd(spec.target_xsd)
        recorder = TraceRecorder(run_id=trace_run_id(
            spec.source_hash, spec.target_hash,
            matcher.fingerprint(spec.threshold, spec.strategy),
        ))
        matcher.match(
            source, target,
            context=matcher.make_context(source, target, tracer=recorder),
        )
        assert recorder.to_jsonl() == forked_jsonl
