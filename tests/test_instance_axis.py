"""The optional fifth (instance-evidence) QoM axis.

Two contracts under test:

1. **Dormant by default** -- with the ``instance`` weight at its 0.0
   default, results, config fingerprints, result-store keys and traces
   are byte-identical to the four-axis model, across the inline and
   pool execution backends.
2. **Decisive when weighted** -- profile evidence resolves leaf
   pairings the four schema-text axes tie or mis-rank.
"""

from __future__ import annotations

import pytest

from repro import make_matcher
from repro.core.config import QMatchConfig
from repro.core.weights import AxisWeights
from repro.ingest.profile import attach_profiles, profile_values
from repro.service.jobs import JobQueue, JobState, MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner, job_fingerprint
from repro.service.store import canonical_json
from repro.xsd.builder import TreeBuilder
from repro.xsd.serializer import to_xsd

EMAILS = ["ann@example.com", "bob@example.net", "cyd@example.org",
          "dee@example.com"]
NUMBERS = ["1042", "2217", "3388", "4501"]


def ambiguous_pair():
    """A pair whose leaf correspondence the text axes cannot decide.

    ``value_1`` is equally label/type/level-similar to ``value_2`` and
    ``value_3``; only the data (emails vs numeric codes) separates them.
    """
    builder = TreeBuilder("Contacts")
    builder.leaf("value_1")
    source = builder.build()
    builder = TreeBuilder("Contacts")
    builder.leaf("value_2")
    builder.leaf("value_3")
    target = builder.build()
    return source, target


def profiled_pair():
    source, target = ambiguous_pair()
    attach_profiles(source, {"value_1": profile_values(EMAILS)})
    attach_profiles(target, {
        "value_2": profile_values(NUMBERS),
        "value_3": profile_values(EMAILS),
    })
    return source, target


class TestDormantByteIdentity:
    def test_zero_instance_weight_keeps_fingerprint(self):
        four_axis = make_matcher("qmatch")
        explicit_zero = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights(label=0.3, properties=0.2, level=0.1,
                                children=0.4, instance=0.0),
        ))
        assert explicit_zero.fingerprint() == four_axis.fingerprint()

    def test_nonzero_instance_weight_changes_fingerprint(self):
        four_axis = make_matcher("qmatch")
        weighted = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=2),
        ))
        assert weighted.fingerprint() != four_axis.fingerprint()

    def test_store_key_unchanged_without_profiles(self):
        source, target = ambiguous_pair()
        spec = MatchJobSpec(source_xsd=to_xsd(source),
                            target_xsd=to_xsd(target))
        legacy = job_fingerprint(spec)
        explicit = job_fingerprint(MatchJobSpec(
            source_xsd=to_xsd(source), target_xsd=to_xsd(target),
            source_profiles=None, target_profiles=None,
        ))
        assert explicit == legacy

    def test_store_key_changes_with_profiles(self):
        source, target = profiled_pair()
        from repro.ingest.profile import collect_profiles

        bare = MatchJobSpec(source_xsd=to_xsd(source),
                            target_xsd=to_xsd(target))
        profiled = MatchJobSpec(
            source_xsd=to_xsd(source), target_xsd=to_xsd(target),
            source_profiles=collect_profiles(source),
            target_profiles=collect_profiles(target),
        )
        assert job_fingerprint(profiled) != job_fingerprint(bare)
        # ... and deterministically so.
        assert job_fingerprint(profiled) == job_fingerprint(profiled)

    def test_results_identical_with_dormant_profiles(self, po1_tree,
                                                     po2_tree):
        """Attached profiles are invisible while the weight is zero."""
        bare = make_matcher("qmatch").match(po1_tree, po2_tree)
        source = po1_tree.copy()
        target = po2_tree.copy()
        attach_profiles(source, {"OrderNo": profile_values(NUMBERS)})
        attach_profiles(target, {"Number": profile_values(NUMBERS)})
        profiled = make_matcher("qmatch").match(source, target)
        assert profiled.to_json() == bare.to_json()

    def test_trace_identical_with_explicit_zero_weight(self, tmp_path,
                                                       po1_tree, po2_tree):
        from repro.obs.trace import TraceRecorder

        snapshots = []
        for config in (
            QMatchConfig(),
            QMatchConfig(weights=AxisWeights(
                label=0.3, properties=0.2, level=0.1, children=0.4,
                instance=0.0,
            )),
        ):
            matcher = make_matcher("qmatch", config=config)
            tracer = TraceRecorder(run_id="fixed")
            context = matcher.make_context(po1_tree, po2_tree,
                                           tracer=tracer)
            matcher.match(po1_tree, po2_tree, context=context)
            path = tmp_path / f"trace{len(snapshots)}.jsonl"
            tracer.write(path)
            snapshots.append(path.read_bytes())
        assert snapshots[0] == snapshots[1]
        assert b'"instance"' not in snapshots[0]

    def test_backends_agree_on_profiled_jobs(self):
        """Inline and pool execution produce byte-identical
        results for a job that carries profiles and a nonzero
        instance weight."""
        from repro.ingest.profile import collect_profiles

        source, target = profiled_pair()
        spec = MatchJobSpec(
            source_xsd=to_xsd(source), target_xsd=to_xsd(target),
            weights=(0.25, 0.2, 0.1, 0.25, 0.2),
            source_profiles=collect_profiles(source),
            target_profiles=collect_profiles(target),
        )
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

    def test_pool_resident_trees_not_polluted_by_profiles(self):
        """A profiled job must not leak its profiles into the pool's
        resident tree cache (later profile-less jobs reuse the trees)."""
        from repro.ingest.profile import collect_profiles

        source, target = profiled_pair()
        bare = MatchJobSpec(source_xsd=to_xsd(source),
                            target_xsd=to_xsd(target),
                            weights=(0.25, 0.2, 0.1, 0.25, 0.2))
        profiled = MatchJobSpec(
            source_xsd=to_xsd(source), target_xsd=to_xsd(target),
            weights=(0.25, 0.2, 0.1, 0.25, 0.2),
            source_profiles=collect_profiles(source),
            target_profiles=collect_profiles(target),
        )
        with WorkerPool(workers=1, retries=0) as pool:
            results = {}
            for label, spec in (("before", bare), ("profiled", profiled),
                                ("after", bare)):
                queue = JobQueue()
                record = queue.submit(spec)
                pool.run_record(record, queue)
                assert record.state is JobState.DONE
                results[label] = canonical_json(record.result)
        assert results["before"] == results["after"]
        assert results["profiled"] != results["before"]


class TestDecisiveEvidence:
    def test_text_axes_misrank_ambiguous_pair(self):
        """Without data evidence the four axes prefer the *wrong*
        candidate (or at best tie): ``value_2`` edges out ``value_3``
        on label similarity alone."""
        source, target = profiled_pair()
        matcher = make_matcher("qmatch")
        right = matcher.explain(source, target, "Contacts/value_1",
                                "Contacts/value_3")
        wrong = matcher.explain(source, target, "Contacts/value_1",
                                "Contacts/value_2")
        assert wrong.qom >= right.qom
        assert right.instance_score is None
        baseline = matcher.match(source, target)
        chosen = {
            (c.source_path, c.target_path)
            for c in baseline.correspondences
        }
        assert ("Contacts/value_1", "Contacts/value_2") in chosen

    def test_instance_weight_breaks_the_tie(self):
        source, target = profiled_pair()
        matcher = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=3),
        ))
        right = matcher.explain(source, target, "Contacts/value_1",
                                "Contacts/value_3")
        wrong = matcher.explain(source, target, "Contacts/value_1",
                                "Contacts/value_2")
        assert right.instance_score > wrong.instance_score
        assert right.qom > wrong.qom
        result = matcher.match(source, target)
        chosen = {
            (c.source_path, c.target_path) for c in result.correspondences
        }
        assert ("Contacts/value_1", "Contacts/value_3") in chosen

    def test_profileless_exact_match_keeps_qom_one(self):
        """No-evidence pairs score QoM_I = 1, so a total-exact match
        stays at QoM 1 even under a nonzero instance weight."""
        builder = TreeBuilder("Same")
        builder.leaf("alpha")
        tree_a = builder.build()
        builder = TreeBuilder("Same")
        builder.leaf("alpha")
        tree_b = builder.build()
        matcher = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=2),
        ))
        breakdown = matcher.explain(tree_a, tree_b, "Same/alpha",
                                    "Same/alpha")
        assert breakdown.instance_score == 1.0
        assert breakdown.qom == pytest.approx(1.0)

    def test_one_sided_profile_discounts(self):
        source, target = ambiguous_pair()
        attach_profiles(source, {"value_1": profile_values(EMAILS)})
        matcher = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=2),
        ))
        breakdown = matcher.explain(source, target, "Contacts/value_1",
                                    "Contacts/value_3")
        assert breakdown.instance_score == 0.5

    def test_instance_scores_memoized_in_context(self):
        from repro.engine.context import INSTANCE_CACHE

        source, target = profiled_pair()
        matcher = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=3),
        ))
        context = matcher.make_context(source, target)
        s_node = source.find("Contacts/value_1")
        t_node = target.find("Contacts/value_3")
        first = context.instance_score(s_node, t_node)
        second = context.instance_score(s_node, t_node)
        assert second == first
        cache = context.stats.cache(INSTANCE_CACHE)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_traces_carry_instance_axis_when_weighted(self, tmp_path):
        import json

        from repro.obs.trace import TraceRecorder

        source, target = profiled_pair()
        matcher = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=3),
        ))
        tracer = TraceRecorder(run_id="instance-trace")
        context = matcher.make_context(source, target, tracer=tracer)
        matcher.match(source, target, context=context)
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        spans = [json.loads(line)
                 for line in path.read_text().splitlines()[1:]]
        leaf_spans = [s for s in spans
                      if s.get("source") == "Contacts/value_1"]
        assert leaf_spans
        assert all("instance" in s["axes"] for s in leaf_spans)

    def test_explain_renders_instance_row(self):
        source, target = profiled_pair()
        matcher = make_matcher("qmatch", config=QMatchConfig(
            weights=AxisWeights.normalized(3, 2, 1, 4, instance=3),
        ))
        breakdown = matcher.explain(source, target, "Contacts/value_1",
                                    "Contacts/value_3")
        assert "instance" in str(breakdown)
