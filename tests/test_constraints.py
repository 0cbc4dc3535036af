"""Tests for the match-constraint DSL (repro.constraints).

Covers the strict parser (grammar forms, aliases, includes, every
malformed-document error class), the evaluator over real PO1/PO2
evidence, report rendering/serialization, and the cross-layer wiring:
byte-identical ConstraintReport JSON across the inline and pool
backends, constraint-filtered corpus search (CLI and HTTP answering
identically), CI-style gating exit codes, and the constraint counters
in /metrics.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import make_matcher
from repro.cli import main
from repro.constraints import (
    ConstraintError,
    MatchEvidence,
    evaluate_constraint,
    load_constraint_file,
    parse_constraint,
)
from repro.corpus import (
    CorpusSearcher,
    SchemaCorpus,
    SegmentedCorpusIndex,
)
from repro.datasets import book, po1, po2, registry
from repro.service.runner import BatchRunner
from repro.service.manifest import load_manifest
from repro.service.pool import WorkerPool
from repro.xsd.serializer import to_xsd

GATE = {
    "name": "po-gate",
    "description": "PO1 to PO2 migration gate",
    "require": {
        "all": [
            {"element-mapped": {"path": "PO/OrderNo", "min_qom": 0.5}},
            {"tree-qom": {"op": ">=", "value": 0.8}},
            {"unmapped-count": {"op": "<=", "value": 2}},
        ]
    },
}


@pytest.fixture(scope="module")
def po_evidence(po1_tree, po2_tree):
    matcher = make_matcher("qmatch")
    result = matcher.match(po1_tree, po2_tree)
    return MatchEvidence.from_result(
        result, po1_tree, po2_tree, matcher=matcher,
    )


@pytest.fixture(scope="module")
def book_evidence(po1_tree, book_tree):
    matcher = make_matcher("qmatch")
    result = matcher.match(po1_tree, book_tree)
    return MatchEvidence.from_result(
        result, po1_tree, book_tree, matcher=matcher,
    )


def evaluate(node, evidence):
    return evaluate_constraint(parse_constraint(node), evidence)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

class TestParser:
    def test_wrapper_document_carries_metadata(self):
        constraint = parse_constraint(GATE)
        assert constraint.name == "po-gate"
        assert constraint.description == "PO1 to PO2 migration gate"
        assert constraint.kind == "all"
        assert len(constraint.children) == 3

    def test_bare_node_documents_parse(self):
        constraint = parse_constraint({"tree-qom": {"op": ">=", "value": 0.5}})
        assert constraint.kind == "predicate"
        assert constraint.predicate == "tree-qom"

    def test_combinator_aliases_normalize(self):
        assert parse_constraint({"and": [GATE["require"]]}).kind == "all"
        assert parse_constraint({"or": [GATE["require"]]}).kind == "any"

    def test_op_aliases_normalize(self):
        constraint = parse_constraint({"tree-qom": {"op": "ge", "value": 0.5}})
        assert constraint.arg("op") == ">="

    def test_at_least_accepts_k_alias(self):
        constraint = parse_constraint({"at_least": {
            "k": 1, "of": [{"element-mapped": {"path": "x"}}],
        }})
        assert constraint.kind == "at_least"
        assert constraint.count == 1

    def test_optional_arguments_get_defaults(self):
        covered = parse_constraint({"subtree-covered": {"path": "PO"}})
        assert covered.arg("fraction") == 1.0
        typed = parse_constraint({"datatype-compatible": {"path": "PO"}})
        assert typed.arg("level") == "relaxed"

    def test_as_dict_is_the_normalized_form(self):
        constraint = parse_constraint({"and": [
            {"tree-qom": {"op": "ge", "value": 0.5}},
        ]})
        assert constraint.as_dict() == {
            "all": [{"tree-qom": {"op": ">=", "value": 0.5}}],
        }

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ConstraintError, match="unknown constraint 'frob'"):
            parse_constraint({"frob": {}})

    def test_unexpected_argument_rejected(self):
        with pytest.raises(ConstraintError,
                           match="unexpected argument.*bogus"):
            parse_constraint({"element-mapped": {"path": "x", "bogus": 1}})

    def test_missing_required_argument_rejected(self):
        with pytest.raises(ConstraintError,
                           match="axis-score requires argument 'op'"):
            parse_constraint({"axis-score": {"axis": "label", "value": 0.5}})

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ConstraintError, match="must be <= 1"):
            parse_constraint({"tree-qom": {"op": ">=", "value": 1.5}})

    def test_bad_operator_rejected(self):
        with pytest.raises(ConstraintError, match="tree-qom.op must be one of"):
            parse_constraint({"tree-qom": {"op": "~=", "value": 0.5}})

    def test_multi_key_node_rejected(self):
        with pytest.raises(ConstraintError, match="exactly one key"):
            parse_constraint({"all": [], "any": []})

    def test_empty_combinator_rejected(self):
        with pytest.raises(ConstraintError, match="at least one child"):
            parse_constraint({"all": []})

    def test_at_least_count_over_children_rejected(self):
        with pytest.raises(ConstraintError, match="at_least.count is 3"):
            parse_constraint({"at_least": {"count": 3, "of": [
                {"element-mapped": {"path": "x"}},
            ]}})

    def test_unknown_wrapper_key_rejected(self):
        with pytest.raises(ConstraintError, match="unknown top-level key"):
            parse_constraint({"require": GATE["require"], "extra": 1})

    def test_inline_include_rejected(self):
        with pytest.raises(ConstraintError,
                           match="only supported when loading"):
            parse_constraint({"include": "other.json"})


class TestConstraintFiles:
    def test_json_file_loads_with_stem_name(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(GATE["require"]), encoding="utf-8")
        constraint = load_constraint_file(path)
        assert constraint.name == "gate"

    def test_yaml_file_loads(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "gate.yaml"
        path.write_text(
            "name: profile\n"
            "require:\n"
            "  all:\n"
            "    - tree-qom: {op: '>=', value: 0.8}\n"
            "    - element-mapped: {path: PO/OrderNo}\n",
            encoding="utf-8",
        )
        constraint = load_constraint_file(path)
        assert constraint.name == "profile"
        assert len(constraint.children) == 2

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConstraintError, match="not found"):
            load_constraint_file(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConstraintError, match="invalid JSON in bad.json"):
            load_constraint_file(path)

    def test_include_splices_the_other_file(self, tmp_path):
        (tmp_path / "base.json").write_text(
            json.dumps({"tree-qom": {"op": ">=", "value": 0.8}}),
            encoding="utf-8",
        )
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps({"all": [
            {"include": "base.json"},
            {"unmapped-count": {"op": "<=", "value": 2}},
        ]}), encoding="utf-8")
        constraint = load_constraint_file(outer)
        assert constraint.children[0].predicate == "tree-qom"

    def test_cyclic_include_rejected(self, tmp_path):
        (tmp_path / "a.json").write_text(
            json.dumps({"include": "b.json"}), encoding="utf-8",
        )
        (tmp_path / "b.json").write_text(
            json.dumps({"include": "a.json"}), encoding="utf-8",
        )
        with pytest.raises(ConstraintError,
                           match="cyclic include: a.json -> b.json -> a.json"):
            load_constraint_file(tmp_path / "a.json")


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

class TestPredicates:
    def test_element_mapped(self, po_evidence):
        assert evaluate(
            {"element-mapped": {"path": "PO/OrderNo", "min_qom": 0.5}},
            po_evidence,
        ).passed
        report = evaluate(
            {"element-mapped": {"path": "PO/Nope"}}, po_evidence,
        )
        assert not report.passed
        assert "no node 'PO/Nope'" in report.root["reason"]

    def test_element_mapped_resolves_suffixes(self, po_evidence):
        report = evaluate({"element-mapped": {"path": "Item"}}, po_evidence)
        assert report.passed
        assert "PO/PurchaseInfo/Lines/Item" in report.root["reason"]

    def test_subtree_covered(self, po_evidence):
        assert evaluate(
            {"subtree-covered": {"path": "PO/PurchaseInfo", "fraction": 0.5}},
            po_evidence,
        ).passed
        report = evaluate(
            {"subtree-covered": {"path": "PO/PurchaseInfo"}}, po_evidence,
        )
        assert not report.passed
        assert "86%" in report.root["reason"]

    def test_datatype_compatible(self, po_evidence, book_evidence):
        assert evaluate(
            {"datatype-compatible": {"path": "PO/OrderNo", "level": "exact"}},
            po_evidence,
        ).passed
        assert not evaluate(
            {"datatype-compatible": {"path": "PO/OrderNo"}}, book_evidence,
        ).passed

    def test_cardinality_preserved(self, po_evidence):
        assert evaluate(
            {"cardinality-preserved": {"path": "PO/PurchaseInfo/Lines/Item"}},
            po_evidence,
        ).passed

    def test_axis_score_root_and_per_node(self, po_evidence):
        assert evaluate(
            {"axis-score": {"axis": "label", "op": ">=", "value": 0.8}},
            po_evidence,
        ).passed
        assert not evaluate(
            {"axis-score": {"axis": "children", "op": ">=", "value": 0.99}},
            po_evidence,
        ).passed
        assert evaluate(
            {"axis-score": {"axis": "label", "op": ">=", "value": 0.5,
                            "path": "PO/OrderNo"}},
            po_evidence,
        ).passed

    def test_unmapped_count_and_tree_qom(self, po_evidence):
        assert evaluate(
            {"unmapped-count": {"op": "==", "value": 1}}, po_evidence,
        ).passed
        assert evaluate(
            {"tree-qom": {"op": ">=", "value": 0.9}}, po_evidence,
        ).passed
        assert not evaluate(
            {"tree-qom": {"op": ">=", "value": 0.99}}, po_evidence,
        ).passed


class TestCombinators:
    def test_not_inverts(self, po_evidence):
        assert evaluate(
            {"not": {"element-mapped": {"path": "PO/Nope"}}}, po_evidence,
        ).passed

    def test_at_least_counts_passing_children(self, po_evidence):
        report = evaluate({"at_least": {"count": 2, "of": [
            {"tree-qom": {"op": ">=", "value": 0.9}},
            {"subtree-covered": {"path": "PO/PurchaseInfo"}},  # fails
            {"unmapped-count": {"op": "<=", "value": 1}},
        ]}}, po_evidence)
        assert report.passed
        assert report.evaluated == 3
        assert report.failed == 1

    def test_all_children_evaluated_without_short_circuit(self, po_evidence):
        report = evaluate({"all": [
            {"tree-qom": {"op": ">=", "value": 0.99}},  # fails first
            {"element-mapped": {"path": "PO/OrderNo"}},
        ]}, po_evidence)
        assert not report.passed
        assert report.evaluated == 2

    def test_blame_names_first_failing_predicate(self, book_evidence):
        report = evaluate_constraint(parse_constraint(GATE), book_evidence)
        assert not report.passed
        assert report.blame == (
            "all[0] > element-mapped(path=PO/OrderNo, min_qom=0.5)"
        )

    def test_passing_report_has_no_blame(self, po_evidence):
        report = evaluate_constraint(parse_constraint(GATE), po_evidence)
        assert report.passed
        assert report.blame is None


class TestReport:
    def test_canonical_json_is_stable(self, po_evidence):
        first = evaluate_constraint(parse_constraint(GATE), po_evidence)
        second = evaluate_constraint(parse_constraint(GATE), po_evidence)
        assert first.to_canonical_json() == second.to_canonical_json()
        decoded = json.loads(first.to_canonical_json())
        assert decoded["name"] == "po-gate"
        assert decoded["passed"] is True
        assert decoded["counts"]["evaluated"] == 3

    def test_render_carries_verdict_and_rows(self, book_evidence):
        text = evaluate_constraint(
            parse_constraint(GATE), book_evidence,
        ).render()
        assert "verdict: FAIL" in text
        assert "blame: all[0]" in text
        assert "[FAIL] element-mapped(path=PO/OrderNo, min_qom=0.5)" in text

    def test_undecidable_predicate_fails_with_reason(self, po1_tree,
                                                     po2_tree):
        # Trace evidence carries no schema trees: structural predicates
        # must fail stating that, never guess or raise.
        matcher = make_matcher("qmatch")
        result = matcher.match(po1_tree, po2_tree)
        evidence = MatchEvidence.from_result(result, None, None)
        report = evaluate(
            {"subtree-covered": {"path": "PO/PurchaseInfo"}}, evidence,
        )
        assert not report.passed
        assert "schema tree" in report.root["reason"]


# ----------------------------------------------------------------------
# Backend parity
# ----------------------------------------------------------------------

class TestBackendParity:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("parity") / "manifest.json"
        path.write_text(json.dumps({"pairs": [
            {"source": "builtin:PO1", "target": "builtin:PO2"},
            {"source": "builtin:PO1", "target": "builtin:Book"},
        ]}), encoding="utf-8")
        return str(path)

    def run_backend(self, manifest, make_runner):
        constraint = parse_constraint(GATE)
        runner = make_runner(constraint)
        try:
            report = runner.run(load_manifest(manifest))
        finally:
            shutdown = getattr(runner, "shutdown", None)
            if shutdown is not None:
                shutdown()
        return {
            record.spec.label: json.dumps(
                record.constraint_report, sort_keys=True,
                separators=(",", ":"),
            )
            for record in report.records
        }

    def test_reports_byte_identical_across_backends(self, manifest):
        inline = self.run_backend(manifest, lambda c: BatchRunner(
            store=None, constraint=c,
        ))
        pooled = self.run_backend(manifest, lambda c: WorkerPool(
            workers=2, store=None, constraint=c,
        ))
        assert inline == pooled
        verdicts = {
            label: json.loads(blob)["passed"]
            for label, blob in inline.items()
        }
        assert verdicts == {
            "PO1~PO2:qmatch": True,
            "PO1~Book:qmatch": False,
        }

    def test_batch_report_carries_constraint_summary(self, manifest):
        runner = BatchRunner(store=None, constraint=parse_constraint(GATE))
        report = runner.run(load_manifest(manifest))
        assert report.ok
        assert not report.constraints_ok
        summary = report.to_dict()["summary"]["constraints"]
        assert summary == {"evaluated": 2, "passed": 1, "failed": 1}
        rendered = report.render()
        assert "constraint PASS" in rendered
        assert "constraint FAIL" in rendered
        assert "all[0] > element-mapped" in rendered


# ----------------------------------------------------------------------
# Search filtering (CLI + HTTP agree)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def builtin_searcher(tmp_path_factory):
    corpus = SchemaCorpus(tmp_path_factory.mktemp("corpus") / "builtin")
    for name in registry.schema_names():
        corpus.add(registry.load_schema(name))
    return CorpusSearcher(corpus, SegmentedCorpusIndex.build(corpus))


class TestSearchFiltering:
    def test_constraint_filters_hits(self, builtin_searcher, po1_tree):
        constraint = parse_constraint(GATE)
        plain = builtin_searcher.search(po1_tree, k=5)
        gated = builtin_searcher.search(po1_tree, k=5, constraint=constraint)
        assert plain.constraints is None
        assert gated.constraints is not None
        assert gated.constraints["admitted"] == len(gated.hits)
        assert gated.constraints["filtered"] > 0
        assert set(hit.name for hit in gated.hits) <= set(
            hit.name for hit in plain.hits
        ) | {"PO1", "PO2", "DCMDOrd"}
        assert gated.hits[0].name == "PO1"

    def test_hit_dicts_carry_axis_breakdowns(self, builtin_searcher,
                                             po1_tree):
        result = builtin_searcher.search(po1_tree, k=3)
        for hit in result.as_dict()["hits"]:
            assert set(hit["axes"]) == {
                "label", "properties", "level", "children",
            }

    def test_constraint_without_rerank_rejected(self, builtin_searcher,
                                                po1_tree):
        with pytest.raises(ValueError, match="rerank evidence"):
            builtin_searcher.search(
                po1_tree, k=3, rerank=False,
                constraint=parse_constraint(GATE),
            )

    def test_http_search_matches_inline_filtering(self, builtin_searcher,
                                                  po1_tree):
        from repro.service.http_api import handle_api_request
        from repro.service.server import MatchService

        service = MatchService(workers=1, store=None,
                               searcher=builtin_searcher)
        try:
            body = json.dumps({
                "query_xsd": to_xsd(po1_tree), "k": 5, "constraints": GATE,
            }).encode("utf-8")
            response = handle_api_request(service, "POST", "/search", body)
            assert response.status == 200
            payload = json.loads(response.body)
            inline = builtin_searcher.search(
                po1_tree, k=5, constraint=parse_constraint(GATE),
            ).as_dict()
            assert payload["hits"] == inline["hits"]
            assert payload["constraints"] == inline["constraints"]
            metrics = service.metrics_text()
            assert "qmatch_constraints_evaluated 12" in metrics
            assert "qmatch_constraints_passed 3" in metrics
            assert "qmatch_constraints_failed 9" in metrics
        finally:
            service.shutdown()

    def test_http_bad_constraints_answer_400(self, builtin_searcher,
                                             po1_tree):
        from repro.service.http_api import handle_api_request
        from repro.service.server import MatchService

        service = MatchService(workers=1, store=None,
                               searcher=builtin_searcher)
        try:
            body = json.dumps({
                "query_xsd": to_xsd(po1_tree),
                "constraints": {"frob": {}},
            }).encode("utf-8")
            response = handle_api_request(service, "POST", "/search", body)
            assert response.status == 400
            assert "unknown constraint 'frob'" in json.loads(
                response.body
            )["error"]
            budget = json.dumps({
                "query_xsd": to_xsd(po1_tree), "k": 10, "candidates": 3,
            }).encode("utf-8")
            response = handle_api_request(service, "POST", "/search", budget)
            assert response.status == 400
            assert "must be >= k" in json.loads(response.body)["error"]
        finally:
            service.shutdown()


class TestHttpJobConstraints:
    def test_sync_match_evaluates_inline_constraints(self, po1_tree,
                                                     po2_tree):
        from repro.service.http_api import handle_api_request
        from repro.service.server import MatchService

        service = MatchService(workers=1, store=None)
        try:
            body = json.dumps({
                "source_xsd": to_xsd(po1_tree),
                "target_xsd": to_xsd(po2_tree),
                "constraints": GATE,
            }).encode("utf-8")
            response = handle_api_request(service, "POST", "/match", body)
            assert response.status == 200
            snapshot = json.loads(response.body)
            assert snapshot["constraint"]["passed"] is True
            assert snapshot["constraint"]["name"] == "po-gate"
            metrics = service.metrics_text()
            assert "qmatch_constraints_evaluated 1" in metrics
            assert "qmatch_constraints_passed 1" in metrics
        finally:
            service.shutdown()

    def test_job_snapshot_carries_verdict_summary(self, po1_tree, book_tree):
        from repro.service.http_api import handle_api_request
        from repro.service.server import MatchService

        service = MatchService(workers=1, store=None)
        try:
            body = json.dumps({
                "source_xsd": to_xsd(po1_tree),
                "target_xsd": to_xsd(book_tree),
                "constraints": GATE,
            }).encode("utf-8")
            response = handle_api_request(service, "POST", "/match", body)
            snapshot = json.loads(response.body)
            assert snapshot["constraint"]["passed"] is False
            assert snapshot["constraint"]["blame"] == (
                "all[0] > element-mapped(path=PO/OrderNo, min_qom=0.5)"
            )
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# CLI gating
# ----------------------------------------------------------------------

@pytest.fixture()
def gate_file(tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(GATE), encoding="utf-8")
    return str(path)


@pytest.fixture()
def schema_files(tmp_path, po1_tree, po2_tree, book_tree):
    paths = {}
    for name, tree in (("po1", po1_tree), ("po2", po2_tree),
                       ("book", book_tree)):
        path = tmp_path / f"{name}.xsd"
        path.write_text(to_xsd(tree), encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestCliGating:
    def test_check_passes_and_fails(self, gate_file, schema_files, capsys):
        assert main(["check", gate_file, schema_files["po1"],
                     schema_files["po2"]]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert main(["check", gate_file, schema_files["po1"],
                     schema_files["book"]]) == 1
        output = capsys.readouterr().out
        assert "verdict: FAIL" in output
        assert "blame: all[0] > element-mapped" in output

    def test_check_json_report(self, gate_file, schema_files, capsys):
        assert main(["check", gate_file, schema_files["po1"],
                     schema_files["po2"], "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["passed"] is True
        assert decoded["counts"] == {
            "evaluated": 3, "passed": 3, "failed": 0,
        }

    def test_check_bad_file_exits_2(self, tmp_path, schema_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"frob": {}}), encoding="utf-8")
        assert main(["check", str(bad), schema_files["po1"],
                     schema_files["po2"]]) == 2
        assert "unknown constraint" in capsys.readouterr().err

    def test_match_require_gates_exit_code(self, gate_file, schema_files,
                                           capsys):
        assert main(["match", schema_files["po1"], schema_files["po2"],
                     "--require", gate_file, "--quiet"]) == 0
        assert main(["match", schema_files["po1"], schema_files["book"],
                     "--require", gate_file, "--quiet"]) == 1
        capsys.readouterr()

    def test_match_json_embeds_the_report(self, gate_file, schema_files,
                                          capsys):
        assert main(["match", schema_files["po1"], schema_files["po2"],
                     "--require", gate_file, "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["constraint"]["passed"] is True

    def test_batch_require_gates_the_run(self, gate_file, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"pairs": [
            {"source": "builtin:PO1", "target": "builtin:PO2"},
        ]}), encoding="utf-8")
        assert main(["batch", str(manifest), "--no-cache",
                     "--require", gate_file, "--quiet"]) == 0
        manifest.write_text(json.dumps({"pairs": [
            {"source": "builtin:PO1", "target": "builtin:PO2"},
            {"source": "builtin:PO1", "target": "builtin:Book"},
        ]}), encoding="utf-8")
        assert main(["batch", str(manifest), "--no-cache",
                     "--require", gate_file]) == 1
        output = capsys.readouterr().out
        assert "constraint FAIL job-0002 (PO1~Book:qmatch): " \
               "all[0] > element-mapped" in output

    def test_explain_require_evaluates_the_trace(self, gate_file,
                                                 schema_files, tmp_path,
                                                 capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["match", schema_files["po1"], schema_files["po2"],
                     "--trace", str(trace), "--quiet"]) == 0
        relaxed = tmp_path / "relaxed.json"
        relaxed.write_text(json.dumps({"all": [
            {"element-mapped": {"path": "PO/OrderNo", "min_qom": 0.5}},
            {"tree-qom": {"op": ">=", "value": 0.8}},
        ]}), encoding="utf-8")
        assert main(["explain", str(trace), "--require",
                     str(relaxed)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_search_budget_validation_exits_2(self, tmp_path, capsys):
        assert main(["search", str(tmp_path / "corpus"), "x.xsd",
                     "--k", "10", "--candidates", "3"]) == 2
        assert "must be >= --k" in capsys.readouterr().err
        assert main(["search", str(tmp_path / "corpus"), "x.xsd",
                     "--k", "0"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Shipped example files (referenced by README / the CI gating smoke)
# ----------------------------------------------------------------------

class TestExampleFiles:
    EXAMPLES = Path(__file__).parent.parent / "examples" / "constraints"

    def test_migration_gate_gates_the_builtin_pairs(self, capsys):
        gate = str(self.EXAMPLES / "migration-gate.json")
        assert main(["batch", str(self.EXAMPLES / "pass-manifest.json"),
                     "--no-cache", "--require", gate, "--quiet"]) == 0
        assert main(["batch", str(self.EXAMPLES / "fail-manifest.json"),
                     "--no-cache", "--require", gate, "--quiet"]) == 1
        capsys.readouterr()

    def test_compliance_profile_includes_the_gate(self):
        pytest.importorskip("yaml")
        profile = load_constraint_file(
            self.EXAMPLES / "compliance-profile.yaml"
        )
        assert profile.name == "po-compliance-profile"
        # include splices the gate's `all` node as the first child
        assert profile.children[0].kind == "all"
        assert profile.children[1].kind == "at_least"
