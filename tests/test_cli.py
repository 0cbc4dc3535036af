"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets import po1
from repro.xsd.serializer import to_xsd


@pytest.fixture()
def po_files(tmp_path, po1_tree, po2_tree):
    source = tmp_path / "po1.xsd"
    target = tmp_path / "po2.xsd"
    source.write_text(to_xsd(po1_tree), encoding="utf-8")
    target.write_text(to_xsd(po2_tree), encoding="utf-8")
    return str(source), str(target)


class TestMatchCommand:
    def test_text_output(self, po_files, capsys):
        assert main(["match", *po_files]) == 0
        output = capsys.readouterr().out
        assert "algorithm: qmatch" in output
        assert "tree QoM" in output
        assert "OrderNo" in output

    def test_tsv_output(self, po_files, capsys):
        main(["match", *po_files, "--format", "tsv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_json_output(self, po_files, capsys):
        main(["match", *po_files, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "qmatch"
        assert 0.0 <= payload["tree_qom"] <= 1.0
        assert payload["correspondences"]

    @pytest.mark.parametrize("algorithm", ["linguistic", "structural", "tree-edit"])
    def test_other_algorithms(self, po_files, capsys, algorithm):
        assert main(["match", *po_files, "--algorithm", algorithm]) == 0
        assert f"algorithm: {algorithm}" in capsys.readouterr().out

    def test_custom_weights(self, po_files, capsys):
        assert main(["match", *po_files, "--weights", "1,1,1,1"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_weights_normalized(self, po_files, capsys):
        # 3,2,1,4 normalizes to the paper's weights.
        main(["match", *po_files, "--weights", "3,2,1,4"])
        normalized = capsys.readouterr().out
        main(["match", *po_files, "--weights", "0.3,0.2,0.1,0.4"])
        explicit = capsys.readouterr().out
        assert normalized == explicit

    def test_bad_weights_rejected(self, po_files, capsys):
        # Malformed --weights exits 2 with one clean error line (shared
        # validation helper, no traceback).
        for bad in ("1,2", "a,b,c,d", "0,0,0,0", "3,2,1,4,", "3,,1,4",
                    "label=3,label=2,level=1,children=4"):
            assert main(["match", *po_files, "--weights", bad]) == 2
            captured = capsys.readouterr()
            assert "qmatch: error: invalid --weights" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_named_weights_equal_positional(self, po_files, capsys):
        main(["match", *po_files, "--weights", "3,2,1,4"])
        positional = capsys.readouterr().out
        main(["match", *po_files, "--weights",
              "label=3,properties=2,level=1,children=4"])
        named = capsys.readouterr().out
        assert named == positional

    def test_weights_require_qmatch(self, po_files, capsys):
        assert main(["match", *po_files, "--algorithm", "linguistic",
                     "--weights", "1,1,1,1"]) == 2
        assert "only applies" in capsys.readouterr().err

    def test_threshold_out_of_range_rejected(self, po_files, capsys):
        for command in ("match", "evaluate"):
            argv = (["match", *po_files] if command == "match"
                    else ["evaluate", "--task", "PO"])
            assert main([*argv, "--threshold", "1.5"]) == 2
            captured = capsys.readouterr()
            assert "qmatch: error: invalid --threshold" in captured.err
            assert "must be in [0, 1]" in captured.err

    def test_threshold_flag(self, po_files, capsys):
        main(["match", *po_files, "--threshold", "0.99"])
        strict = capsys.readouterr().out
        main(["match", *po_files, "--threshold", "0.1"])
        lenient = capsys.readouterr().out
        assert strict.count("<->") < lenient.count("<->")

    def test_strategy_flag(self, po_files, capsys):
        assert main(["match", *po_files, "--strategy", "stable"]) == 0


class TestShowCommand:
    def test_shows_tree(self, po_files, capsys):
        assert main(["show", po_files[0]]) == 0
        output = capsys.readouterr().out
        assert "10 nodes" in output
        assert "OrderNo : integer" in output

    def test_properties_flag(self, po_files, capsys):
        main(["show", po_files[0], "--properties"])
        assert "compositor=sequence" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_default_tasks(self, capsys):
        assert main(["evaluate", "--task", "PO"]) == 0
        output = capsys.readouterr().out
        assert "linguistic" in output
        assert "structural" in output
        assert "qmatch" in output
        assert "precision" in output


class TestGenerateCommand:
    def test_generates_valid_sample(self, po_files, capsys):
        import xml.etree.ElementTree as ET

        from repro.xsd.instances import validate_instance
        from repro.xsd.parser import parse_xsd_file

        assert main(["generate", po_files[0]]) == 0
        output = capsys.readouterr().out
        document = ET.fromstring(output)
        schema = parse_xsd_file(po_files[0])
        assert validate_instance(schema, document) == []

    def test_seed_reproducible(self, po_files, capsys):
        main(["generate", po_files[0], "--seed", "4"])
        first = capsys.readouterr().out
        main(["generate", po_files[0], "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second


class TestTranslateCommand:
    def test_translates_generated_sample(self, po_files, capsys):
        import xml.etree.ElementTree as ET

        from repro.xsd.instances import validate_instance
        from repro.xsd.parser import parse_xsd_file

        assert main(["translate", *po_files]) == 0
        output = capsys.readouterr().out
        document = ET.fromstring(output)
        target = parse_xsd_file(po_files[1])
        assert document.tag == target.root.name
        assert validate_instance(target, document) == []

    def test_translates_given_document(self, po_files, tmp_path, capsys):
        main(["generate", po_files[0]])
        sample = capsys.readouterr().out
        document_path = tmp_path / "doc.xml"
        document_path.write_text(sample, encoding="utf-8")
        assert main(["translate", *po_files, str(document_path)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("<")

    def test_warns_on_nonconforming_document(self, po_files, tmp_path, capsys):
        document_path = tmp_path / "bad.xml"
        document_path.write_text("<PO><Smuggled/></PO>", encoding="utf-8")
        main(["translate", *po_files, str(document_path)])
        captured = capsys.readouterr()
        assert "does not fully conform" in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected(self, po_files):
        with pytest.raises(SystemExit):
            main(["match", *po_files, "--algorithm", "psychic"])

    def test_extension_algorithms_available(self, po_files, capsys):
        for algorithm in ("cupid", "flooding"):
            assert main(["match", *po_files, "--algorithm", algorithm]) == 0
            assert f"algorithm: {algorithm}" in capsys.readouterr().out


class TestStatsCommand:
    def test_profiles_schema(self, po_files, capsys):
        assert main(["stats", po_files[0]]) == 0
        output = capsys.readouterr().out
        assert "max depth       : 3" in output
        assert "integer" in output


class TestDiffCommand:
    def test_save_then_diff_identical(self, po_files, tmp_path, capsys):
        saved = tmp_path / "result.json"
        main(["match", *po_files, "--save", str(saved)])
        capsys.readouterr()
        assert main(["diff", str(saved), str(saved)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_diff_detects_change(self, po_files, tmp_path, capsys):
        loose = tmp_path / "loose.json"
        strict = tmp_path / "strict.json"
        main(["match", *po_files, "--save", str(loose)])
        main(["match", *po_files, "--threshold", "0.95", "--save", str(strict)])
        capsys.readouterr()
        assert main(["diff", str(loose), str(strict)]) == 1
        assert "- " in capsys.readouterr().out


class TestEvaluateMarkdown:
    def test_markdown_format(self, capsys):
        assert main(["evaluate", "--task", "PO", "--format", "markdown"]) == 0
        output = capsys.readouterr().out
        assert "| task | algorithm |" in output
        assert "### Winners" in output


class TestSdiffCommand:
    def test_identical_schemas(self, po_files, capsys):
        assert main(["sdiff", po_files[0], po_files[0]]) == 0
        assert "no changes" in capsys.readouterr().out

    def test_changed_schemas(self, po_files, capsys):
        assert main(["sdiff", po_files[0], po_files[1]]) == 1
        assert capsys.readouterr().out.strip()


class TestComplexFlag:
    def test_complex_scan_reported(self, tmp_path, capsys):
        from repro.xsd.builder import TreeBuilder
        from repro.xsd.serializer import to_xsd

        builder = TreeBuilder("Customer")
        builder.leaf("ShippingAddress", type_name="string")
        source = builder.build()
        builder = TreeBuilder("Client")
        builder.leaf("ShippingStreet", type_name="string")
        builder.leaf("ShippingCity", type_name="string")
        target = builder.build()
        source_path = tmp_path / "s.xsd"
        target_path = tmp_path / "t.xsd"
        source_path.write_text(to_xsd(source), encoding="utf-8")
        target_path.write_text(to_xsd(target), encoding="utf-8")
        assert main(["match", str(source_path), str(target_path),
                     "--complex"]) == 0
        output = capsys.readouterr().out
        assert "complex (1:n) proposals" in output
        assert "[1:2]" in output

    def test_no_proposals_message(self, po_files, capsys):
        main(["match", *po_files, "--complex"])
        output = capsys.readouterr().out
        assert "no complex (1:n) proposals" in output or \
            "complex (1:n) proposals" in output


class TestStatsFlag:
    def test_stats_printed_to_stderr(self, po_files, capsys):
        assert main(["match", *po_files, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "engine stats" in captured.err
        assert "score:qmatch" in captured.err
        assert "context.labels" in captured.err
        # stdout stays the normal report, uncontaminated
        assert "engine stats" not in captured.out
        assert "algorithm: qmatch" in captured.out

    def test_no_stats_by_default(self, po_files, capsys):
        assert main(["match", *po_files]) == 0
        assert "engine stats" not in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_file_exits_nonzero_without_traceback(self, capsys):
        exit_code = main(["match", "/no/such/file.xsd", "/missing/too.xsd"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "qmatch: error:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unparseable_schema_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.xsd"
        bad.write_text("this is not xml at all", encoding="utf-8")
        assert main(["match", str(bad), str(bad)]) == 2
        captured = capsys.readouterr()
        assert "qmatch: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_duplicate_sibling_names_exit_2(self, tmp_path, po_files,
                                            capsys):
        dup = tmp_path / "dup.xsd"
        dup.write_text(
            '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
            '<xs:element name="R"><xs:complexType><xs:choice>'
            '<xs:element name="A" type="xs:string"/>'
            '<xs:element name="A" type="xs:int"/>'
            "</xs:choice></xs:complexType></xs:element></xs:schema>",
            encoding="utf-8",
        )
        assert main(["match", str(dup), po_files[0]]) == 2
        captured = capsys.readouterr()
        assert "duplicate sibling name" in captured.err
        assert "'R/A'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unknown_evaluate_task_exits_nonzero(self, capsys):
        assert main(["evaluate", "--task", "NoSuchTask"]) == 2
        assert "qmatch: error:" in capsys.readouterr().err

    def test_argparse_errors_still_raise_system_exit(self, po_files):
        import pytest

        with pytest.raises(SystemExit):
            main(["match", *po_files, "--algorithm", "bogus"])


class TestBatchCommand:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "defaults": {"algorithm": "qmatch"},
            "pairs": [
                {"source": "builtin:PO1", "target": "builtin:PO2"},
                {"source": "builtin:Article", "target": "builtin:Book",
                 "algorithm": "linguistic"},
            ],
        }), encoding="utf-8")
        return manifest

    def test_batch_runs_manifest(self, manifest_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["batch", str(manifest_path), "--workers", "2",
                     "--cache-dir", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "PO1~PO2:qmatch" in output
        assert "2 done" in output
        assert "0 cache hits" in output

    def test_batch_warm_run_reuses_store(self, manifest_path, tmp_path,
                                         capsys):
        cache = tmp_path / "cache"
        main(["batch", str(manifest_path), "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["batch", str(manifest_path), "--cache-dir",
                     str(cache)]) == 0
        assert "2 cache hits (100%)" in capsys.readouterr().out

    def test_batch_writes_machine_readable_report(self, manifest_path,
                                                  tmp_path, capsys):
        report_path = tmp_path / "run.json"
        assert main(["batch", str(manifest_path), "--quiet", "--no-cache",
                     "--report", str(report_path)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["summary"]["done"] == 2
        assert [job["state"] for job in payload["jobs"]] == ["done", "done"]

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "qmatch: error:" in capsys.readouterr().err

    def test_invalid_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pairs": [
            {"source": "builtin:PO1", "target": "builtin:PO2",
             "threshold": 7},
        ]}), encoding="utf-8")
        assert main(["batch", str(bad)]) == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("strategy", "bogus"),
        ("strategy", 7),
        ("threshold", True),
        ("timeout", True),
    ])
    def test_invalid_manifest_parameter_exits_2(self, tmp_path, capsys,
                                                field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pairs": [
            {"source": "builtin:PO1", "target": "builtin:PO2",
             field: value},
        ]}), encoding="utf-8")
        assert main(["batch", str(bad), "--no-cache"]) == 2
        assert f"invalid {field} {value!r}" in capsys.readouterr().err

    def test_bad_workers_exits_2(self, manifest_path, capsys):
        assert main(["batch", str(manifest_path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestServeCommand:
    def test_bad_workers_exits_2(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["fork", "isolated"])
    def test_removed_modes_are_argparse_choice_errors(self, mode, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--mode", mode])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{mode}'" in capsys.readouterr().err

    def test_serve_function_defaults_to_the_cli_mode(self):
        import inspect

        from repro.service.server import serve

        cli_default = build_parser().parse_args(["serve"]).mode
        assert cli_default == "pool"
        assert inspect.signature(serve).parameters["mode"].default == \
            cli_default


class TestEvaluateRegistryOptions:
    def test_algorithm_selection(self, capsys):
        assert main(["evaluate", "--task", "PO", "--algorithm",
                     "linguistic", "name"]) == 0
        output = capsys.readouterr().out
        assert "linguistic" in output
        assert "name" in output
        assert "qmatch" not in output

    def test_share_context_flag(self, capsys):
        assert main(["evaluate", "--task", "PO", "--algorithm", "linguistic",
                     "qmatch", "--share-context"]) == 0
        assert "qmatch" in capsys.readouterr().out


class TestIndexAndSearchCommands:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        return str(tmp_path / "corpus")

    def test_build_info_search_round_trip(self, corpus_dir, capsys):
        assert main(["index", "build", corpus_dir,
                     "builtin:PO1", "builtin:PO2", "builtin:Book"]) == 0
        assert "3 schemas added" in capsys.readouterr().out

        assert main(["index", "info", corpus_dir]) == 0
        info = capsys.readouterr().out
        assert "schemas: 3" in info
        assert "fresh" in info

        assert main(["search", corpus_dir, "builtin:PO1", "--k", "2"]) == 0
        table = capsys.readouterr().out
        # Header, separator, then the rank-1 row.
        assert table.splitlines()[2].split()[1] == "PO1"
        assert "reranked with QMatch" in table

    def test_add_refreshes_index(self, corpus_dir, capsys):
        main(["index", "build", corpus_dir, "builtin:PO1"])
        capsys.readouterr()
        assert main(["index", "add", corpus_dir, "builtin:Book"]) == 0
        assert "2 in corpus" in capsys.readouterr().out
        assert main(["index", "info", corpus_dir]) == 0
        assert "fresh" in capsys.readouterr().out

    def test_search_json_no_rerank(self, corpus_dir, capsys):
        main(["index", "build", corpus_dir, "builtin:PO1", "builtin:PO2"])
        capsys.readouterr()
        assert main(["search", corpus_dir, "builtin:PO1",
                     "--no-rerank", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == "PO1"
        assert payload["examined"] == 0
        assert payload["hits"][0]["name"] == "PO1"

    def test_search_from_xsd_file(self, corpus_dir, po_files, capsys):
        main(["index", "build", corpus_dir, "--builtins"])
        capsys.readouterr()
        source, _ = po_files
        assert main(["search", corpus_dir, source, "--k", "1"]) == 0
        assert "PO1" in capsys.readouterr().out

    def test_empty_build_rejected(self, corpus_dir, capsys):
        assert main(["index", "build", corpus_dir]) == 2
        assert "nothing to index" in capsys.readouterr().err

    def test_search_without_index_rejected(self, corpus_dir, tmp_path,
                                           po_files, capsys):
        source, _ = po_files
        assert main(["search", str(tmp_path / "nowhere"), source]) == 2
        assert "qmatch: error:" in capsys.readouterr().err

    def test_bad_search_arguments(self, corpus_dir, po_files, capsys):
        main(["index", "build", corpus_dir, "builtin:PO1"])
        capsys.readouterr()
        assert main(["search", corpus_dir, "builtin:PO1", "--k", "0"]) == 2
        assert "invalid --k" in capsys.readouterr().err
        assert main(["search", corpus_dir, "builtin:PO1",
                     "--candidates", "0"]) == 2
        assert "invalid --candidates" in capsys.readouterr().err


class TestVersionFlag:
    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"qmatch {__version__}"


class TestTraceAndExplain:
    def test_trace_then_explain_round_trip(self, po_files, tmp_path,
                                           capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main(["match", *po_files, "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert "wrote trace" in captured.err
        assert trace_path.exists()

        # Summary mode: run banner + top accepted pairs.
        assert main(["explain", str(trace_path)]) == 0
        summary = capsys.readouterr().out
        assert "spans, threshold" in summary
        assert "passed the threshold" in summary

        # Per-pair mode: the axis table sums to the reported QoM.
        assert main(["explain", str(trace_path),
                     "--path", "BillingAddr"]) == 0
        explanation = capsys.readouterr().out
        assert "BillingAddr" in explanation
        for axis in ("label", "properties", "level", "children"):
            assert axis in explanation
        lines = [
            line.split() for line in explanation.splitlines()
            if line.strip().startswith(("label", "properties",
                                        "level", "children", "QoM", "sum"))
        ]
        qom = float(next(l for l in lines if l[0] == "QoM")[1])
        total = float(next(l for l in lines if l[0] == "sum")[1])
        contributions = sum(
            float(l[3]) for l in lines
            if l[0] in ("label", "properties", "level", "children")
        )
        assert total == pytest.approx(qom, abs=5e-4)
        assert contributions == pytest.approx(qom, abs=5e-4)

    def test_explain_exact_pair(self, po_files, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        main(["match", *po_files, "--trace", str(trace_path), "--quiet"])
        capsys.readouterr()
        assert main(["explain", str(trace_path), "--path", "OrderNo",
                     "--target", "OrderNo"]) == 0
        assert "<->" in capsys.readouterr().out

    def test_explain_unknown_path_exits_2(self, po_files, tmp_path,
                                          capsys):
        trace_path = tmp_path / "t.jsonl"
        main(["match", *po_files, "--trace", str(trace_path), "--quiet"])
        capsys.readouterr()
        assert main(["explain", str(trace_path),
                     "--path", "NoSuchNode"]) == 2
        err = capsys.readouterr().err
        assert "qmatch: error:" in err
        assert "known source paths include" in err

    def test_explain_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "missing.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err


class TestQuietAndStats:
    def test_match_quiet_suppresses_output(self, po_files, capsys):
        assert main(["match", *po_files, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_match_quiet_keeps_explicit_stats(self, po_files, capsys):
        assert main(["match", *po_files, "--quiet", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "engine stats" in captured.err

    def test_match_stats_json(self, po_files, capsys):
        assert main(["match", *po_files, "--stats",
                     "--format", "json", "--quiet"]) == 0
        stats = json.loads(capsys.readouterr().err)
        assert "stages" in stats and "caches" in stats
        assert "score:qmatch" in stats["stages"]

    def test_search_quiet_and_stats_json(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        main(["index", "build", corpus_dir, "builtin:PO1", "builtin:PO2"])
        capsys.readouterr()
        assert main(["search", corpus_dir, "builtin:PO1", "--quiet",
                     "--stats", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        stats = json.loads(captured.err)
        assert "search:retrieve" in stats["stages"]


class TestBatchObservability:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "pairs": [
                {"source": "builtin:PO1", "target": "builtin:PO2"},
            ],
        }), encoding="utf-8")
        return manifest

    def test_batch_stats_json(self, manifest_path, capsys):
        assert main(["batch", str(manifest_path), "--no-cache", "--quiet",
                     "--stats", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        stats = json.loads(captured.err)
        assert stats["counters"]["jobs.executed"] == 1

    def test_batch_report_json_on_stdout(self, manifest_path, capsys):
        assert main(["batch", str(manifest_path), "--no-cache",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["done"] == 1

    def test_batch_trace_dir(self, manifest_path, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["batch", str(manifest_path), "--quiet",
                     "--trace-dir", str(trace_dir)]) == 0
        traces = sorted(trace_dir.glob("*.jsonl"))
        assert len(traces) == 1
        # The written file is a loadable trace a later `qmatch explain`
        # can consume.
        assert main(["explain", str(traces[0])]) == 0
        assert "passed the threshold" in capsys.readouterr().out


FIXTURES = Path(__file__).parent / "fixtures"


class TestIngestCommand:
    def test_text_emission(self, capsys):
        assert main(["ingest", str(FIXTURES / "library.sql")]) == 0
        output = capsys.readouterr().out
        assert "[sql]" in output
        assert "books" in output
        assert "price : decimal" in output

    def test_xsd_emission_is_parseable(self, capsys, tmp_path):
        assert main(["ingest", str(FIXTURES / "library.sql"),
                     "--emit", "xsd"]) == 0
        from repro.xsd.parser import parse_xsd

        emitted = capsys.readouterr().out
        tree = parse_xsd(emitted)
        assert [c.name for c in tree.root.children] == [
            "authors", "books", "loans",
        ]

    def test_json_schema_emission(self, capsys):
        assert main(["ingest", str(FIXTURES / "catalog.json"),
                     "--emit", "json-schema"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["type"] == "object"

    def test_sql_round_trip_emission(self, capsys):
        assert main(["ingest", str(FIXTURES / "library.sql"),
                     "--emit", "sql"]) == 0
        assert "CREATE TABLE authors" in capsys.readouterr().out

    def test_data_profiling_and_profiles_out(self, capsys, tmp_path):
        out = tmp_path / "profiles.json"
        assert main(["ingest", str(FIXTURES / "library.sql"),
                     "--data", str(FIXTURES / "books.csv"),
                     "--profiles-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "profiled 6 columns" in captured.err
        profiles = json.loads(out.read_text(encoding="utf-8"))
        assert profiles["isbn"]["count"] == 8
        assert profiles["price"]["numeric_ratio"] == 1.0

    def test_forced_kind(self, capsys, tmp_path):
        dump = tmp_path / "schema.txt"
        dump.write_text((FIXTURES / "library.sql").read_text(),
                        encoding="utf-8")
        assert main(["ingest", str(dump), "--kind", "sql"]) == 0
        assert "[sql]" in capsys.readouterr().out

    def test_bad_schema_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "empty.sql"
        bad.write_text("SELECT 1;", encoding="utf-8")
        assert main(["ingest", str(bad)]) == 2
        assert "qmatch: error:" in capsys.readouterr().err


class TestCrossKindMatch:
    def test_sql_vs_json_schema(self, capsys):
        assert main(["match", str(FIXTURES / "library.sql"),
                     str(FIXTURES / "catalog.json")]) == 0
        output = capsys.readouterr().out
        assert "tree QoM" in output
        assert "isbn" in output

    def test_five_axis_weights_accepted(self, capsys):
        assert main(["match", str(FIXTURES / "library.sql"),
                     str(FIXTURES / "catalog.json"),
                     "--weights", "3,2,1,4,2"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_all_zero_five_axis_weights_exit_2(self, po_files, capsys):
        assert main(["match", *po_files, "--weights", "0,0,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert "qmatch: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_profile_files_change_scores(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.json"
        assert main(["ingest", str(FIXTURES / "library.sql"),
                     "--data", str(FIXTURES / "books.csv"),
                     "--profiles-out", str(profiles)]) == 0
        capsys.readouterr()
        base_args = ["match", str(FIXTURES / "library.sql"),
                     str(FIXTURES / "catalog.json"), "--format", "json"]
        assert main(base_args + ["--weights", "3,2,1,4,2"]) == 0
        without = json.loads(capsys.readouterr().out)
        assert main(base_args + ["--weights", "3,2,1,4,2",
                                 "--source-profiles", str(profiles)]) == 0
        with_profiles = json.loads(capsys.readouterr().out)
        # One-sided profiles discount unprofiled pairs: scores move.
        assert with_profiles != without

    def test_zero_instance_weight_profiles_inert(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.json"
        main(["ingest", str(FIXTURES / "library.sql"),
              "--data", str(FIXTURES / "books.csv"),
              "--profiles-out", str(profiles)])
        capsys.readouterr()
        base_args = ["match", str(FIXTURES / "library.sql"),
                     str(FIXTURES / "catalog.json"), "--format", "json"]
        assert main(base_args) == 0
        without = capsys.readouterr().out
        assert main(base_args + ["--source-profiles", str(profiles)]) == 0
        inert = capsys.readouterr().out
        assert inert == without

    def test_missing_profiles_file_exits_2(self, po_files, capsys):
        assert main(["match", *po_files,
                     "--source-profiles", "/nonexistent/p.json"]) == 2
        assert "not found" in capsys.readouterr().err


class TestHeterogeneousIndex:
    def test_index_and_search_mixed_kinds(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main(["index", "build", str(corpus_dir),
                     str(FIXTURES / "catalog.json"),
                     "--builtins"]) == 0
        capsys.readouterr()
        assert main(["index", "info", str(corpus_dir)]) == 0
        info = capsys.readouterr().out
        assert "from json" in info
        assert main(["search", str(corpus_dir),
                     str(FIXTURES / "library.sql"), "--k", "13"]) == 0
        results = capsys.readouterr().out
        # The SQL query ranks against the whole mixed corpus; the
        # JSON-sourced catalog (similar columns) appears in the hits.
        assert "catalog" in results
        assert "query 'library'" in results

    def test_index_add_with_data_profiles(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main(["index", "build", str(corpus_dir),
                     str(FIXTURES / "catalog.json")]) == 0
        capsys.readouterr()
        assert main(["index", "add", str(corpus_dir),
                     str(FIXTURES / "library.sql"),
                     "--data", str(FIXTURES / "books.csv")]) == 0
        capsys.readouterr()
        assert main(["index", "info", str(corpus_dir)]) == 0
        info = capsys.readouterr().out
        assert "profiled leaves" in info

    def test_index_add_data_needs_single_schema(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["index", "build", str(corpus_dir),
              str(FIXTURES / "catalog.json")])
        capsys.readouterr()
        assert main(["index", "add", str(corpus_dir),
                     str(FIXTURES / "library.sql"),
                     "builtin:PO1",
                     "--data", str(FIXTURES / "books.csv")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_search_with_weights_and_data(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main(["index", "build", str(corpus_dir),
              str(FIXTURES / "catalog.json")])
        capsys.readouterr()
        assert main(["search", str(corpus_dir),
                     str(FIXTURES / "library.sql"), "--k", "1",
                     "--weights", "3,2,1,4,2",
                     "--data", str(FIXTURES / "books.csv")]) == 0
        assert "catalog" in capsys.readouterr().out


class TestSegmentedIndexCommands:
    """Segments are the one on-disk index format of every command."""

    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        return str(tmp_path / "corpus")

    @staticmethod
    def search_json(corpus_dir, capsys, *extra):
        """One ``search --format json`` run: ``(payload without its
        timing stats, stderr)``."""
        assert main(["search", corpus_dir, *extra, "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        payload.pop("stats")
        return payload, captured.err

    def test_build_segmented_and_info(self, corpus_dir, capsys):
        assert main(["index", "build", corpus_dir, "builtin:PO1",
                     "builtin:PO2"]) == 0
        output = capsys.readouterr().out
        assert "index covers 2 documents" in output
        assert main(["index", "info", corpus_dir]) == 0
        info = capsys.readouterr().out
        assert "index: 2 documents in 1 segment," in info
        assert "fresh" in info
        assert Path(corpus_dir, "segments", "manifest.json").exists()
        assert sorted(path.name for path in Path(corpus_dir).iterdir()) \
            == ["manifest.json", "schemas", "segments"]

    def test_info_reports_stale_segments(self, corpus_dir, capsys):
        from repro.corpus import SchemaCorpus
        from repro.datasets import book

        main(["index", "build", corpus_dir, "builtin:PO1"])
        capsys.readouterr()
        # Mutate the corpus behind the index's back: it goes STALE.
        SchemaCorpus(corpus_dir).add(book())
        assert main(["index", "info", corpus_dir]) == 0
        info = capsys.readouterr().out
        assert "index: 1 documents in 1 segment," in info
        assert "STALE" in info

    def test_add_segmented_refreshes(self, corpus_dir, capsys):
        main(["index", "build", corpus_dir, "builtin:PO1"])
        capsys.readouterr()
        assert main(["index", "add", corpus_dir, "builtin:Book"]) == 0
        assert "index covers 2 documents" in capsys.readouterr().out
        assert main(["index", "info", corpus_dir]) == 0
        assert "2 documents in 2 segments" in capsys.readouterr().out

    def test_add_after_build_finds_the_added_schema(self, corpus_dir,
                                                    capsys):
        # ``index add`` refreshes the index ``index build`` wrote, so the
        # added schema is searchable at once and finds itself exactly.
        main(["index", "build", corpus_dir, "builtin:PO1", "builtin:PO2"])
        assert main(["index", "add", corpus_dir, "builtin:Book"]) == 0
        capsys.readouterr()
        payload, _ = self.search_json(corpus_dir, capsys, "builtin:Book",
                                      "--k", "1", "--no-rerank")
        assert payload["candidates"] > 0
        assert payload["hits"][0]["name"] == "Book"
        assert payload["hits"][0]["retrieval_score"] == 1.0
        assert main(["index", "info", corpus_dir]) == 0
        info = capsys.readouterr().out
        assert "fresh" in info and "STALE" not in info

    def test_search_warns_on_stale_index(self, corpus_dir, capsys,
                                         monkeypatch):
        from repro.corpus import SchemaCorpus, SegmentedCorpusIndex
        from repro.datasets import book

        main(["index", "build", corpus_dir, "builtin:PO1", "builtin:PO2"])
        capsys.readouterr()
        _, err = self.search_json(corpus_dir, capsys, "builtin:PO1",
                                  "--no-rerank")
        assert "stale" not in err
        SchemaCorpus(corpus_dir).add(book())
        stale, err = self.search_json(corpus_dir, capsys, "builtin:PO1",
                                      "--no-rerank")
        assert err.count("\n") == 1
        assert err.startswith("warning: corpus index is stale")
        assert "qmatch index build" in err
        # The warning goes to stderr only: stdout is what the same
        # search prints when no staleness is reported.
        monkeypatch.setattr(SegmentedCorpusIndex, "stale_for",
                            lambda self, corpus: False)
        unwarned, err = self.search_json(corpus_dir, capsys, "builtin:PO1",
                                         "--no-rerank")
        assert err == ""
        assert stale == unwarned

    def test_compact_folds_segments(self, corpus_dir, capsys):
        main(["index", "build", corpus_dir, "builtin:PO1"])
        main(["index", "add", corpus_dir, "builtin:Book"])
        capsys.readouterr()
        assert main(["index", "compact", corpus_dir]) == 0
        assert "compacted 2 segments -> 1; dropped 0" in \
            capsys.readouterr().out
        assert main(["index", "info", corpus_dir]) == 0
        assert "2 documents in 1 segment" in capsys.readouterr().out

    def test_compact_without_segments_rejected(self, corpus_dir, capsys):
        from repro.corpus import SchemaCorpus

        SchemaCorpus(corpus_dir).add(po1())
        assert main(["index", "compact", corpus_dir]) == 2
        err = capsys.readouterr().err
        assert "has no index to compact" in err
        assert "qmatch index build" in err

    def test_quiet_build_prints_nothing(self, corpus_dir, capsys):
        assert main(["index", "build", corpus_dir, "builtin:PO1",
                     "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_segmented_search_matches_monolithic(self, corpus_dir, capsys):
        # Every builtin, sealed into two segments: the index ranking is
        # the golden one recorded from the former monolithic index.
        from repro.datasets.registry import schema_names
        from tests.corpus_golden import load_fixture

        names = schema_names()
        main(["index", "build", corpus_dir,
              *(f"builtin:{name}" for name in names[:-1])])
        main(["index", "add", corpus_dir, f"builtin:{names[-1]}"])
        capsys.readouterr()
        golden = load_fixture("builtins")["queries"]
        for scorer in ("cosine", "bm25"):
            for query in ("PO1", "Book"):
                args = (f"builtin:{query}", "--no-rerank",
                        "--scorer", scorer)
                payload, _ = self.search_json(corpus_dir, capsys, *args)
                assert [
                    [hit["hash"], hit["name"], repr(hit["retrieval_score"]),
                     repr(hit["lexical_score"]),
                     repr(hit["structural_score"])]
                    for hit in payload["hits"]
                ] == golden[query][scorer]["search"]

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_shards_flag_removed(self, corpus_dir, capsys, command):
        # The stage-1 scan is one serial walk; there is no shard knob.
        main(["index", "build", corpus_dir, "builtin:PO1"])
        capsys.readouterr()
        argv = (["search", corpus_dir, "builtin:PO1"] if command == "search"
                else ["serve", "--corpus", corpus_dir])
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    def test_segmented_search_without_segments_rejected(self, corpus_dir,
                                                        capsys):
        from repro.corpus import SchemaCorpus

        # A corpus indexed in the former single-file format: its schemas
        # are there, its segment manifest is not.
        SchemaCorpus(corpus_dir).add(po1())
        Path(corpus_dir, "index.json").write_text("{}", encoding="utf-8")
        assert main(["search", corpus_dir, "builtin:PO1"]) == 2
        err = capsys.readouterr().err
        assert "has no index" in err
        assert err.rstrip().endswith("build it with qmatch index build")
        # Rebuilding from the corpus manifest makes it searchable.
        assert main(["index", "build", corpus_dir, "--quiet"]) == 0
        payload, _ = self.search_json(corpus_dir, capsys, "builtin:PO1",
                                      "--no-rerank")
        assert payload["hits"][0]["name"] == "PO1"
