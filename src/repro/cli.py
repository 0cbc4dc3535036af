"""Command-line front end.

Subcommands::

    qmatch match a.xsd b.xsd [--algorithm qmatch] [--threshold 0.5]
                             [--weights 0.3,0.2,0.1,0.4]
                             [--format text|tsv|json] [--save out.json]
                             [--stats] [--trace t.jsonl] [--quiet]
                             [--require constraints.json]
    qmatch check constraints.{json,yaml} a.xsd b.xsd
                 [--algorithm qmatch] [--threshold 0.5] [--format text|json]
    qmatch explain t.jsonl [--path SOURCE_PATH] [--target TARGET_PATH]
                           [--require constraints.json]
    qmatch show a.xsd [--properties]
    qmatch stats a.xsd
    qmatch evaluate [--task PO Book DCMD Inventory] [--format markdown]
    qmatch generate a.xsd [--seed N]
    qmatch translate a.xsd b.xsd [doc.xml]
    qmatch diff old.json new.json
    qmatch sdiff old.xsd new.xsd
    qmatch batch manifest.json [--workers N] [--cache-dir DIR]
                               [--report out.json]
                               [--require constraints.json]
    qmatch serve [--host H] [--port P] [--workers N] [--cache-dir DIR]
                 [--mode pool|inline] [--timeout S] [--retries N]
                 [--corpus DIR] [--scorer cosine|bm25] [--max-pending N]
                 [--max-body-bytes N] [--max-jobs N] [--drain-timeout S]
    qmatch index build DIR [schemas...] [--builtins]
    qmatch index add DIR schemas... [--data FILE]
    qmatch index info DIR
    qmatch index compact DIR [--auto]
    qmatch search DIR query.xsd [--k N] [--candidates N] [--no-rerank]
                                [--scorer cosine|bm25] [--weights W]
                                [--data FILE]
                                [--require constraints.json]
    qmatch ingest schema.{xsd,sql,json} [--kind xsd|sql|json]
                  [--emit text|xsd|json-schema|sql] [--data FILE ...]
                  [--profiles-out FILE]

``match`` matches two XSD files and prints the correspondences and the
overall schema QoM (``--trace`` records every pair's per-axis decision
record as JSON lines); ``check`` matches two schemas and gates on a
declarative match-constraint file (JSON/YAML, see
:mod:`repro.constraints`) -- exit 0 when the constraints hold, 1 when
violated; the same files drive ``--require`` on ``match``, ``batch``,
``search`` and ``explain``; ``explain`` renders a trace as a
human-readable breakdown; ``show`` / ``stats`` inspect one schema;
``evaluate`` runs the three paper algorithms on the built-in evaluation
pairs; ``generate`` emits a sample document; ``translate`` matches two
schemas and reshapes a document from one into the other; ``diff``
compares two saved match results; ``sdiff`` diffs two versions of a
schema; ``batch`` runs every pair in a manifest on a :mod:`repro.service`
worker pool with content-addressed result caching; ``serve`` exposes
the same engine as a JSON-over-HTTP job service (jobs run on a
persistent pre-warmed worker pool by default; ``--mode inline`` runs
them on the service threads);
``index`` manages an on-disk schema corpus and its blocking indexes;
``search`` ranks a corpus against a query schema by retrieving a
candidate shortlist from the indexes and reranking it with QMatch;
``ingest`` parses relational DDL / JSON Schema files into the engine's
tree form and profiles instance data into the evidence the optional
fifth (``instance``) axis weight scores.

All user-supplied parameters (thresholds, weights, manifests) validate
through :mod:`repro.service.validation`; a bad value prints one
``qmatch: error:`` line to stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import ALGORITHMS, __version__, make_matcher
from repro.core.config import QMatchConfig
from repro.evaluation.harness import evaluate_all, render_quality_rows
from repro.matching.selection import STRATEGY_NAMES
from repro.xsd.parser import parse_xsd, parse_xsd_file
from repro.xsd.serializer import to_compact_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmatch",
        description="QMatch: hybrid XML-Schema matching (ICDE 2005).",
    )
    parser.add_argument(
        "--version", action="version", version=f"qmatch {__version__}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    match_parser = subparsers.add_parser(
        "match", help="match two XSD files and print the correspondences"
    )
    match_parser.add_argument(
        "source",
        help="source schema file (XSD; .sql DDL and .json JSON Schema "
             "files are ingested automatically)",
    )
    match_parser.add_argument(
        "target", help="target schema file (as source)",
    )
    match_parser.add_argument(
        "--algorithm", choices=ALGORITHMS, default="qmatch",
        help="matching algorithm (default: qmatch)",
    )
    match_parser.add_argument(
        "--threshold", type=float, default=0.5,
        help="correspondence acceptance threshold (default: 0.5)",
    )
    match_parser.add_argument(
        "--strategy", choices=STRATEGY_NAMES,
        default=None,
        help="correspondence selection strategy "
             "(default: the algorithm's own)",
    )
    match_parser.add_argument(
        "--weights", metavar="L,P,H,C[,I]",
        help="QMatch axis weights: four comma-separated numbers "
             "(label, properties, level, children), optionally a fifth "
             "for instance evidence, or named "
             "label=..,properties=..,level=..,children=..[,instance=..] "
             "entries; normalized to sum 1",
    )
    match_parser.add_argument(
        "--source-profiles", metavar="FILE",
        help="instance profiles for the source schema (JSON "
             "{node_path: profile} map, see `qmatch ingest "
             "--profiles-out`); scored under the instance weight",
    )
    match_parser.add_argument(
        "--target-profiles", metavar="FILE",
        help="instance profiles for the target schema (JSON map, as "
             "--source-profiles)",
    )
    match_parser.add_argument(
        "--format", choices=("text", "tsv", "json"), default="text",
        dest="output_format", help="output format (default: text)",
    )
    match_parser.add_argument(
        "--save", metavar="FILE",
        help="also write the result as JSON (for later `qmatch diff`)",
    )
    match_parser.add_argument(
        "--complex", action="store_true", dest="find_complex",
        help="also scan for 1:n / n:1 split correspondences",
    )
    match_parser.add_argument(
        "--stats", action="store_true", dest="show_stats",
        help="print engine instrumentation (per-stage wall time, pair "
             "counts, cache hit rates) to stderr; with --format json the "
             "stats are machine-readable JSON",
    )
    match_parser.add_argument(
        "--trace", metavar="FILE",
        help="record a per-pair decision trace (JSON lines) to FILE; "
             "inspect it with `qmatch explain FILE --path ...`",
    )
    match_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress non-error output (explicit --stats still prints)",
    )
    match_parser.add_argument(
        "--require", metavar="FILE", default=None,
        help="evaluate the match against a JSON/YAML constraint file "
             "and exit 1 when it is violated (see DESIGN.md §14)",
    )

    check_parser = subparsers.add_parser(
        "check",
        help="match two schemas and gate the result on a declarative "
             "constraint file (exit 0: pass, 1: violated, 2: bad input)",
    )
    check_parser.add_argument(
        "constraints",
        help="JSON/YAML constraint file (see examples/constraints/)",
    )
    check_parser.add_argument(
        "source",
        help="source schema file (XSD; .sql DDL and .json JSON Schema "
             "files are ingested automatically)",
    )
    check_parser.add_argument(
        "target", help="target schema file (as source)",
    )
    check_parser.add_argument(
        "--algorithm", choices=ALGORITHMS, default="qmatch",
        help="matching algorithm (default: qmatch)",
    )
    check_parser.add_argument(
        "--threshold", type=float, default=0.5,
        help="correspondence acceptance threshold (default: 0.5)",
    )
    check_parser.add_argument(
        "--strategy", choices=STRATEGY_NAMES,
        default=None,
        help="correspondence selection strategy "
             "(default: the algorithm's own)",
    )
    check_parser.add_argument(
        "--weights", metavar="L,P,H,C[,I]",
        help="QMatch axis weights (same syntax as `qmatch match --weights`)",
    )
    check_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format",
        help="report format: rendered verdict tree or the canonical "
             "ConstraintReport JSON (default: text)",
    )
    check_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the report; the exit code carries the verdict",
    )

    explain_parser = subparsers.add_parser(
        "explain",
        help="render the per-axis decision breakdown recorded by "
             "`qmatch match --trace`",
    )
    explain_parser.add_argument(
        "trace", help="trace file written by `qmatch match --trace`"
    )
    explain_parser.add_argument(
        "--path", metavar="SOURCE_PATH", default=None,
        help="source node path (or unambiguous path suffix) to explain; "
             "omitted: print the run summary with the top accepted pairs",
    )
    explain_parser.add_argument(
        "--target", metavar="TARGET_PATH", default=None,
        help="pin the explanation to one exact (source, target) pair",
    )
    explain_parser.add_argument(
        "--top", type=int, default=10,
        help="accepted pairs shown in summary mode (default: 10)",
    )
    explain_parser.add_argument(
        "--alternatives", type=int, default=5,
        help="losing target candidates listed per explanation "
             "(default: 5)",
    )
    explain_parser.add_argument(
        "--require", metavar="FILE", default=None,
        help="also evaluate a JSON/YAML constraint file against the "
             "trace's accepted pairs and exit 1 when it is violated "
             "(structural predicates need the schemas and report so)",
    )

    show_parser = subparsers.add_parser(
        "show", help="parse an XSD file and print the schema tree"
    )
    show_parser.add_argument("schema", help="XSD file to show")
    show_parser.add_argument(
        "--properties", action="store_true",
        help="include non-default properties on each line",
    )

    evaluate_parser = subparsers.add_parser(
        "evaluate",
        help="run all algorithms on the built-in paper evaluation pairs",
    )
    evaluate_parser.add_argument(
        "--task", nargs="*", default=["PO", "Book", "DCMD", "Inventory"],
        help="tasks to run: PO Book DCMD Inventory Protein "
             "(default: the fast four)",
    )
    evaluate_parser.add_argument(
        "--algorithm", nargs="*", choices=ALGORITHMS,
        default=["linguistic", "structural", "qmatch"],
        help="algorithms to evaluate, by registry name "
             "(default: the paper's three)",
    )
    evaluate_parser.add_argument("--threshold", type=float, default=0.5)
    evaluate_parser.add_argument(
        "--share-context", action="store_true",
        help="run all algorithms of a task against one shared engine "
             "context (label analysis computed once per task)",
    )
    evaluate_parser.add_argument(
        "--workers", type=int, default=1,
        help="run the (task, algorithm) jobs on a worker pool with this "
             "many worker processes (default: 1, serial in process)",
    )
    evaluate_parser.add_argument(
        "--format", choices=("text", "markdown"), default="text",
        dest="output_format", help="report format (default: text)",
    )

    generate_parser = subparsers.add_parser(
        "generate", help="generate a sample XML document for a schema"
    )
    generate_parser.add_argument("schema", help="XSD file")
    generate_parser.add_argument("--seed", type=int, default=0)

    translate_parser = subparsers.add_parser(
        "translate",
        help="match two schemas, then translate a source document into "
             "the target layout",
    )
    translate_parser.add_argument("source", help="source XSD file")
    translate_parser.add_argument("target", help="target XSD file")
    translate_parser.add_argument(
        "document", nargs="?",
        help="XML document conforming to the source schema "
             "(default: a generated sample)",
    )
    translate_parser.add_argument(
        "--algorithm", choices=ALGORITHMS, default="qmatch",
    )
    translate_parser.add_argument("--threshold", type=float, default=0.5)

    stats_parser = subparsers.add_parser(
        "stats", help="profile a schema (counts, depths, fan-out, types)"
    )
    stats_parser.add_argument("schema", help="XSD file")

    diff_parser = subparsers.add_parser(
        "diff", help="compare two saved match results (see `match --save`)"
    )
    diff_parser.add_argument("old", help="baseline result JSON")
    diff_parser.add_argument("new", help="new result JSON")

    sdiff_parser = subparsers.add_parser(
        "sdiff", help="diff two versions of a schema (adds/removes/renames)"
    )
    sdiff_parser.add_argument("old", help="old-version XSD file")
    sdiff_parser.add_argument("new", help="new-version XSD file")

    batch_parser = subparsers.add_parser(
        "batch",
        help="match every schema pair in a JSON manifest, in parallel, "
             "with content-addressed result caching (resumable)",
    )
    batch_parser.add_argument(
        "manifest", help="JSON manifest of schema pairs (see DESIGN.md §8)"
    )
    batch_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes in the job pool (default: 1, serial)",
    )
    batch_parser.add_argument(
        "--cache-dir", metavar="DIR", default=".qmatch-cache",
        help="content-addressed result store directory "
             "(default: .qmatch-cache); re-runs reuse stored results",
    )
    batch_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result store (recompute every pair)",
    )
    batch_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline; a job past it is killed, retried, and "
             "finally marked timed-out (default: 300)",
    )
    batch_parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts after a failed or timed-out run (default: 1)",
    )
    batch_parser.add_argument(
        "--report", metavar="FILE",
        help="also write the machine-readable run report as JSON",
    )
    batch_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress non-error output",
    )
    batch_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format",
        help="report format on stdout (default: text)",
    )
    batch_parser.add_argument(
        "--stats", action="store_true", dest="show_stats",
        help="print the merged engine instrumentation of all workers to "
             "stderr; with --format json the stats are machine-readable "
             "JSON",
    )
    batch_parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="record a per-pair decision trace for every job and write "
             "them to DIR/<job_id>.jsonl (inspect with qmatch explain)",
    )
    batch_parser.add_argument(
        "--require", metavar="FILE", default=None,
        help="evaluate every finished job against a JSON/YAML "
             "constraint file; any violation fails the run (exit 1) "
             "and is listed with its blame path",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the JSON-over-HTTP match service (POST a schema pair, "
             "poll job status, fetch results)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (default: 8765; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent jobs; each runs in its own worker process "
             "(default: 2)",
    )
    serve_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="enable the content-addressed result store at DIR",
    )
    serve_parser.add_argument(
        "--mode", choices=("pool", "inline"), default="pool",
        help="job execution backend: a persistent pre-warmed worker "
             "pool (default) or inline on the service threads (lowest "
             "latency; no hard timeouts)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline in pool mode (default: 300)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts after a failed or timed-out job (default: 1)",
    )
    serve_parser.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="serve POST /search over the indexed schema corpus at DIR "
             "(see qmatch index); in pool mode the corpus stays "
             "resident in every worker",
    )
    serve_parser.add_argument(
        "--scorer", choices=("cosine", "bm25"), default="cosine",
        help="lexical retrieval scorer for POST /search (default: cosine)",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="admission limit: answer 429 + Retry-After once N jobs "
             "are pending or running (default: unbounded)",
    )
    serve_parser.add_argument(
        "--max-body-bytes", type=int, default=None, metavar="N",
        help="reject request bodies larger than N bytes with 413 "
             "(default: 10485760)",
    )
    serve_parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="bound the in-memory job registry: evict the oldest "
             "finished records past N (default: unbounded)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait up to this long for in-flight "
             "jobs before shutting down (default: 30)",
    )
    serve_parser.add_argument(
        "--trace-sample", type=float, default=0.0, metavar="RATE",
        help="head-sample this fraction of requests into span traces "
             "(0 disables tracing entirely; 1.0 traces everything)",
    )
    serve_parser.add_argument(
        "--trace-seed", type=int, default=0, metavar="N",
        help="seed for the deterministic trace sampler (default: 0)",
    )
    serve_parser.add_argument(
        "--trace-export", metavar="FILE", default=None,
        help="append sampled span trees to FILE as OTLP-shaped JSONL "
             "(read it back with `qmatch obs report` / `obs waterfall`)",
    )
    serve_parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="track a service-level objective, e.g. "
             "'name=search-fast,route=/search,threshold=0.5,target=0.99' "
             "(latency) or 'name=avail,kind=availability,target=0.999'; "
             "repeatable; replaces the built-in defaults",
    )

    obs_parser = subparsers.add_parser(
        "obs",
        help="inspect exported span traces (tail the stream, render a "
             "per-stage latency report, draw a trace waterfall)",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_tail = obs_sub.add_parser(
        "tail",
        help="print the most recent span lines from a --trace-export file",
    )
    obs_tail.add_argument("span_file", metavar="FILE")
    obs_tail.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show the last N span lines (default: 20)",
    )
    obs_tail.add_argument(
        "--follow", action="store_true",
        help="keep the file open and stream new spans as they land",
    )
    obs_report = obs_sub.add_parser(
        "report",
        help="per-stage latency table (count, total, p50/p95/p99, max) "
             "aggregated over every span in the file",
    )
    obs_report.add_argument("span_file", metavar="FILE")
    obs_waterfall = obs_sub.add_parser(
        "waterfall",
        help="render one trace as an indented waterfall of span bars",
    )
    obs_waterfall.add_argument("span_file", metavar="FILE")
    obs_waterfall.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace to draw (default: the last trace in the file)",
    )

    index_parser = subparsers.add_parser(
        "index",
        help="manage an on-disk schema corpus and its search indexes",
    )
    index_sub = index_parser.add_subparsers(dest="index_command",
                                            required=True)
    index_build = index_sub.add_parser(
        "build",
        help="add schemas to a corpus and (re)build its search index",
    )
    index_build.add_argument("corpus", help="corpus directory")
    index_build.add_argument(
        "schemas", nargs="*",
        help="XSD files or builtin:<Name> references to add",
    )
    index_build.add_argument(
        "--builtins", action="store_true",
        help="also add every bundled paper schema",
    )
    index_build.add_argument(
        "--num-perm", type=int, default=64,
        help="MinHash permutations (default: 64)",
    )
    index_build.add_argument(
        "--bands", type=int, default=16,
        help="LSH bands; must divide --num-perm (default: 16)",
    )
    index_build.add_argument(
        "--no-thesaurus", action="store_true",
        help="index surface tokens only (no abbreviation/acronym expansion)",
    )
    index_build.add_argument(
        "--quiet", action="store_true",
        help="suppress the progress line and summary",
    )
    index_add = index_sub.add_parser(
        "add", help="add schemas to an existing corpus and refresh its index"
    )
    index_add.add_argument("corpus", help="corpus directory")
    index_add.add_argument(
        "schemas", nargs="+",
        help="schema files (XSD/SQL DDL/JSON Schema by extension) or "
             "builtin:<Name> references to add",
    )
    index_add.add_argument(
        "--data", metavar="FILE", action="append", default=None,
        help="instance data file (CSV/JSON/JSONL) to profile and store "
             "with the schema (single schema only; repeatable)",
    )
    index_add.add_argument(
        "--quiet", action="store_true",
        help="suppress the progress line and summary",
    )
    index_info = index_sub.add_parser(
        "info", help="show corpus entries, index coverage and fingerprints"
    )
    index_info.add_argument("corpus", help="corpus directory")
    index_compact = index_sub.add_parser(
        "compact",
        help="fold the index's segments together and drop tombstoned "
             "documents",
    )
    index_compact.add_argument("corpus", help="corpus directory")
    index_compact.add_argument(
        "--auto", action="store_true",
        help="apply the size-tiered policy only (what `index add` "
             "triggers automatically) instead of a full merge",
    )

    search_parser = subparsers.add_parser(
        "search",
        help="top-k schemas of an indexed corpus for a query schema "
             "(index retrieval + QMatch rerank)",
    )
    search_parser.add_argument("corpus", help="corpus directory")
    search_parser.add_argument(
        "query",
        help="query schema file (XSD/SQL DDL/JSON Schema by extension, "
             "or builtin:<Name>)",
    )
    search_parser.add_argument(
        "--weights", metavar="L,P,H,C[,I]",
        help="QMatch axis weights for the rerank (same syntax as "
             "`qmatch match --weights`; a fifth/instance entry scores "
             "attached profiles)",
    )
    search_parser.add_argument(
        "--data", metavar="FILE", action="append", default=None,
        help="instance data file (CSV/JSON/JSONL) profiled into query "
             "instance evidence for the rerank (repeatable)",
    )
    search_parser.add_argument(
        "--k", type=int, default=10,
        help="number of hits to return (default: 10)",
    )
    search_parser.add_argument(
        "--candidates", type=int, default=None,
        help="candidate-shortlist budget for the QMatch rerank "
             "(default: max(3*k, 20))",
    )
    search_parser.add_argument(
        "--threshold", type=float, default=0.5,
        help="correspondence threshold for the rerank (default: 0.5)",
    )
    search_parser.add_argument(
        "--no-rerank", action="store_true",
        help="return the raw index ranking without running QMatch",
    )
    search_parser.add_argument(
        "--scorer", choices=("cosine", "bm25"), default="cosine",
        help="lexical retrieval scorer (default: cosine)",
    )
    search_parser.add_argument(
        "--workers", type=int, default=1,
        help="rerank worker processes; above 1 each search opens a "
             "worker pool for its rerank (default: 1, in process)",
    )
    search_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed result store for rerank results",
    )
    search_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format", help="output format (default: text)",
    )
    search_parser.add_argument(
        "--stats", action="store_true", dest="show_stats",
        help="print per-stage search instrumentation to stderr; with "
             "--format json the stats are machine-readable JSON",
    )
    search_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress non-error output (explicit --stats still prints)",
    )
    search_parser.add_argument(
        "--require", metavar="FILE", default=None,
        help="admit only hits whose rerank evidence satisfies the "
             "JSON/YAML constraint file (needs the rerank; "
             "incompatible with --no-rerank)",
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="parse a relational DDL / JSON Schema / XSD file into the "
             "engine's schema tree, optionally profiling instance data",
    )
    ingest_parser.add_argument(
        "schema", help="schema file (.sql/.ddl, .json/.schema, .xsd/.xml)"
    )
    ingest_parser.add_argument(
        "--kind", choices=("xsd", "sql", "json"), default=None,
        help="force the source kind instead of detecting it from the "
             "extension/content",
    )
    ingest_parser.add_argument(
        "--name", default=None,
        help="schema name for the tree (default: derived from the file)",
    )
    ingest_parser.add_argument(
        "--emit", choices=("text", "xsd", "json-schema", "sql"),
        default="text",
        help="output form: compact tree text (default), canonical XSD, "
             "a JSON Schema document, or SQL DDL",
    )
    ingest_parser.add_argument(
        "--data", metavar="FILE", action="append", default=None,
        help="instance data file (CSV/TSV, JSON/JSONL, or XML) to "
             "profile against the schema (repeatable)",
    )
    ingest_parser.add_argument(
        "--profiles-out", metavar="FILE",
        help="write the computed {node_path: profile} map as JSON "
             "(feed it to `qmatch match --source-profiles`)",
    )
    ingest_parser.add_argument(
        "--properties", action="store_true",
        help="with --emit text, include non-default node properties",
    )
    return parser


def _emit_stats(stats, output_format: str):
    """Engine stats to stderr: rendered table, or JSON under --format json."""
    if stats is None:
        return
    if output_format == "json":
        print(stats.to_json(indent=2), file=sys.stderr)
    else:
        print(stats.render(), file=sys.stderr)


def _load_schema_cli(ref, kind=None):
    """Load a schema file of any supported kind for a CLI command.

    XSD files go through :func:`parse_xsd_file` (keeping include/import
    resolution relative to the file); ``.sql``/``.json`` files dispatch
    to the ingestion parsers.  Returns ``(tree, kind)``.
    """
    from repro.ingest import detect_kind, load_schema_any

    resolved = kind or detect_kind(ref)
    if resolved == "xsd":
        return parse_xsd_file(ref), "xsd"
    return load_schema_any(ref, kind=resolved)


def _load_profiles_file(path):
    """Read a ``{node_path: profile_dict}`` JSON map (see --profiles-out)."""
    from pathlib import Path

    from repro.service.validation import ValidationError

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"profiles file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"profiles file {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise ValidationError(
            f"profiles file {path} must hold a JSON object "
            "{node_path: profile}"
        )
    return data


def _profile_data_files(paths, tree=None):
    """Profile data files into one merged ``{path: profile_dict}`` map."""
    from repro.ingest.profile import profile_data_file

    merged = {}
    for path in paths or ():
        profiles = profile_data_file(path, tree=tree)
        merged.update({
            key: profile.as_dict() for key, profile in profiles.items()
        })
    return merged


def _require_report(require_path, result, source, target, matcher,
                    context=None):
    """Evaluate the ``--require`` constraint file against a live result.

    Goes through :meth:`MatchEvidence.from_result`, i.e. the canonical
    payload form, so the verdict (and its canonical JSON) is identical
    to what ``qmatch batch --require`` or the HTTP service computes for
    the same pair and configuration.
    """
    from repro.constraints import (
        MatchEvidence,
        evaluate_constraint,
        load_constraint_file,
    )

    constraint = load_constraint_file(require_path)
    evidence = MatchEvidence.from_result(
        result, source, target, matcher=matcher, context=context,
    )
    return evaluate_constraint(constraint, evidence)


def _command_match(args) -> int:
    from repro.service.validation import (
        ValidationError,
        validate_threshold,
        validate_weights,
    )

    threshold = validate_threshold(args.threshold, field="--threshold")
    kwargs = {}
    if args.weights:
        if args.algorithm != "qmatch":
            raise ValidationError(
                "--weights only applies to the qmatch algorithm"
            )
        weights = validate_weights(args.weights, field="--weights")
        kwargs["config"] = QMatchConfig(weights=weights)
    source, _ = _load_schema_cli(args.source)
    target, _ = _load_schema_cli(args.target)
    if args.source_profiles or args.target_profiles:
        from repro.ingest.profile import attach_profiles

        if args.source_profiles:
            attach_profiles(source, _load_profiles_file(args.source_profiles))
        if args.target_profiles:
            attach_profiles(target, _load_profiles_file(args.target_profiles))
    matcher = make_matcher(args.algorithm, **kwargs)
    tracer = None
    context = None
    if args.trace:
        from repro.obs.trace import TraceRecorder, trace_run_id
        from repro.service.store import content_hash
        from repro.xsd.serializer import to_xsd

        # Same run-ID recipe as the batch worker (content hashes +
        # config fingerprint), so the trace of `qmatch match --trace`
        # is byte-identical to the one a traced batch job records for
        # the same pair and configuration.
        tracer = TraceRecorder(run_id=trace_run_id(
            content_hash(to_xsd(source)), content_hash(to_xsd(target)),
            matcher.fingerprint(threshold, args.strategy),
        ))
        context = matcher.make_context(source, target, tracer=tracer)
    result = matcher.match(
        source, target, threshold=threshold, strategy=args.strategy,
        context=context,
    )
    if args.show_stats:
        _emit_stats(result.stats, args.output_format)
    if args.trace:
        tracer.write(args.trace)
        if not args.quiet:
            print(
                f"wrote trace ({len(tracer.spans)} spans) to {args.trace}",
                file=sys.stderr,
            )
    if args.save:
        from pathlib import Path

        Path(args.save).write_text(result.to_json(), encoding="utf-8")
        if not args.quiet:
            print(f"saved result to {args.save}", file=sys.stderr)
    report = None
    if args.require:
        report = _require_report(
            args.require, result, source, target, matcher, context=context,
        )
    status = 0 if report is None or report.passed else 1
    if args.quiet:
        return status
    if args.output_format == "text":
        print(result.summary())
        if report is not None:
            print()
            print(report.render())
    elif args.output_format == "tsv":
        for c in result.correspondences:
            category = c.category or ""
            print(f"{c.source_path}\t{c.target_path}\t{c.score:.4f}\t{category}")
        if report is not None:
            # Keep stdout machine-parsable rows; the verdict goes to
            # stderr (the exit code already carries pass/fail).
            print(report.render(), file=sys.stderr)
    else:
        payload = {
            "algorithm": result.algorithm,
            "tree_qom": result.tree_qom,
            "correspondences": [
                {
                    "source": c.source_path,
                    "target": c.target_path,
                    "score": c.score,
                    "category": c.category,
                }
                for c in result.correspondences
            ],
        }
        if report is not None:
            payload["constraint"] = report.as_dict()
        json.dump(payload, sys.stdout, indent=2)
        print()
    if args.find_complex:
        from repro.matching.complex import find_complex_correspondences

        proposals = find_complex_correspondences(result)
        if proposals:
            print("\ncomplex (1:n) proposals:")
            for proposal in proposals:
                print(f"  {proposal}")
        else:
            print("\nno complex (1:n) proposals found")
    return status


def _command_check(args) -> int:
    from repro.constraints import (
        MatchEvidence,
        evaluate_constraint,
        load_constraint_file,
    )
    from repro.service.validation import (
        ValidationError,
        validate_threshold,
        validate_weights,
    )

    constraint = load_constraint_file(args.constraints)
    threshold = validate_threshold(args.threshold, field="--threshold")
    kwargs = {}
    if args.weights:
        if args.algorithm != "qmatch":
            raise ValidationError(
                "--weights only applies to the qmatch algorithm"
            )
        weights = validate_weights(args.weights, field="--weights")
        kwargs["config"] = QMatchConfig(weights=weights)
    source, _ = _load_schema_cli(args.source)
    target, _ = _load_schema_cli(args.target)
    matcher = make_matcher(args.algorithm, **kwargs)
    result = matcher.match(
        source, target, threshold=threshold, strategy=args.strategy,
    )
    evidence = MatchEvidence.from_result(
        result, source, target, matcher=matcher,
    )
    report = evaluate_constraint(constraint, evidence)
    if not args.quiet:
        if args.output_format == "json":
            print(report.to_json())
        else:
            print(report.render())
    return 0 if report.passed else 1


def _command_explain(args) -> int:
    from repro.obs.explain import (
        render_pair_explanation,
        render_trace_summary,
    )
    from repro.obs.trace import load_trace

    trace = load_trace(args.trace)
    if args.path:
        print(render_pair_explanation(
            trace, args.path, target_path=args.target,
            alternatives=args.alternatives,
        ))
    else:
        print(render_trace_summary(trace, top=args.top))
    if args.require:
        from repro.constraints import (
            MatchEvidence,
            evaluate_constraint,
            load_constraint_file,
        )

        constraint = load_constraint_file(args.require)
        report = evaluate_constraint(
            constraint, MatchEvidence.from_trace(trace.spans),
        )
        print()
        print(report.render())
        return 0 if report.passed else 1
    return 0


def _command_show(args) -> int:
    schema = parse_xsd_file(args.schema)
    print(f"# {schema.name}: {schema.size} nodes, max depth {schema.max_depth}")
    print(to_compact_text(schema, show_properties=args.properties))
    return 0


def _command_evaluate(args) -> int:
    from repro.datasets import registry  # heavy import kept local
    from repro.service.validation import validate_threshold

    threshold = validate_threshold(args.threshold, field="--threshold")
    tasks = [registry.task(name) for name in args.task]
    # Algorithm names go straight to the harness, which resolves them
    # through the engine registry.
    rows = evaluate_all(
        tasks, args.algorithm, threshold=threshold,
        share_context=args.share_context, workers=args.workers,
    )
    if args.output_format == "markdown":
        from repro.evaluation.report import render_markdown_report

        print(render_markdown_report(rows))
    else:
        print(render_quality_rows(rows))
    return 0


def _command_generate(args) -> int:
    from repro.xsd.instances import InstanceConfig, generate_instance_text

    schema = parse_xsd_file(args.schema)
    print(generate_instance_text(schema, InstanceConfig(seed=args.seed)))
    return 0


def _command_translate(args) -> int:
    import xml.etree.ElementTree as ET

    from repro.mapping import Mapping, translate_instance_text
    from repro.xsd.instances import generate_instance, validate_instance

    source = parse_xsd_file(args.source)
    target = parse_xsd_file(args.target)
    if args.document:
        document = ET.parse(args.document).getroot()
        problems = validate_instance(source, document)
        if problems:
            print("warning: document does not fully conform to the source "
                  "schema:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
    else:
        document = generate_instance(source)
        print("(no document given -- translating a generated sample)",
              file=sys.stderr)
    matcher = make_matcher(args.algorithm)
    result = matcher.match(source, target, threshold=args.threshold)
    mapping = Mapping.from_result(result)
    print(translate_instance_text(document, source, target, mapping))
    return 0


def _command_stats(args) -> int:
    from repro.xsd.stats import schema_stats

    schema = parse_xsd_file(args.schema)
    print(schema_stats(schema).render())
    return 0


def _command_diff(args) -> int:
    from pathlib import Path

    from repro.matching.io import diff_results, result_from_json

    old = result_from_json(Path(args.old).read_text(encoding="utf-8"))
    new = result_from_json(Path(args.new).read_text(encoding="utf-8"))
    diff = diff_results(old, new)
    print(diff.render())
    return 0 if diff.is_empty else 1


def _command_sdiff(args) -> int:
    from repro.xsd.diff import diff_schemas

    old = parse_xsd_file(args.old)
    new = parse_xsd_file(args.new)
    diff = diff_schemas(old, new)
    print(diff.render())
    return 0 if diff.is_empty else 1


def _command_batch(args) -> int:
    from pathlib import Path

    from repro.service.manifest import load_manifest
    from repro.service.pool import WorkerPool
    from repro.service.store import ResultStore
    from repro.service.validation import ValidationError

    if args.workers < 1:
        raise ValidationError(f"invalid --workers {args.workers}: must be >= 1")
    if args.retries < 0:
        raise ValidationError(f"invalid --retries {args.retries}: must be >= 0")
    specs = load_manifest(args.manifest)
    if args.trace_dir:
        # Tracing rides in the worker envelope, so cached results can
        # never satisfy a traced job; dropping the store keeps the
        # promise that every job in the run produces a trace.
        from dataclasses import replace

        specs = [replace(spec, trace=True) for spec in specs]
        args.no_cache = True
    constraint = None
    if args.require:
        from repro.constraints import load_constraint_file

        constraint = load_constraint_file(args.require)
    store = None
    if not args.no_cache:
        store = ResultStore(args.cache_dir)
    runner_kwargs = {}
    if args.timeout is not None:
        runner_kwargs["timeout"] = args.timeout
    with WorkerPool(
        workers=args.workers, store=store, retries=args.retries,
        constraint=constraint,
        **runner_kwargs,
    ) as pool:
        report = pool.run(specs)
    if args.show_stats:
        _emit_stats(report.stats, args.output_format)
    if args.trace_dir:
        from repro.obs.trace import TraceRecorder

        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for job_id, snapshot in report.traces.items():
            TraceRecorder.from_dict(snapshot).write(
                trace_dir / f"{job_id}.jsonl"
            )
        if not args.quiet:
            print(
                f"wrote {len(report.traces)} trace"
                f"{'s' if len(report.traces) != 1 else ''} to "
                f"{trace_dir}",
                file=sys.stderr,
            )
    if args.report:
        Path(args.report).write_text(
            report.to_json(), encoding="utf-8"
        )
        if not args.quiet:
            print(f"wrote run report to {args.report}", file=sys.stderr)
    if not args.quiet:
        if args.output_format == "json":
            print(report.to_json())
        else:
            print(report.render())
    return 0 if report.ok and report.constraints_ok else 1


def _command_serve(args) -> int:
    from repro.service.server import serve
    from repro.service.validation import ValidationError

    if args.workers < 1:
        raise ValidationError(f"invalid --workers {args.workers}: must be >= 1")
    if args.retries < 0:
        raise ValidationError(f"invalid --retries {args.retries}: must be >= 0")
    if args.timeout is not None and args.timeout <= 0:
        raise ValidationError(f"invalid --timeout {args.timeout}: must be > 0")
    if args.max_pending is not None and args.max_pending < 1:
        raise ValidationError(
            f"invalid --max-pending {args.max_pending}: must be >= 1"
        )
    if args.max_body_bytes is not None and args.max_body_bytes < 1:
        raise ValidationError(
            f"invalid --max-body-bytes {args.max_body_bytes}: must be >= 1"
        )
    if args.max_jobs is not None and args.max_jobs < 1:
        raise ValidationError(
            f"invalid --max-jobs {args.max_jobs}: must be >= 1"
        )
    if args.drain_timeout is not None and args.drain_timeout < 0:
        raise ValidationError(
            f"invalid --drain-timeout {args.drain_timeout}: must be >= 0"
        )
    if not 0.0 <= args.trace_sample <= 1.0:
        raise ValidationError(
            f"invalid --trace-sample {args.trace_sample}: must be in [0, 1]"
        )
    slos = None
    if args.slo:
        from repro.obs.slo import parse_slo
        slos = [parse_slo(spec) for spec in args.slo]
    kwargs = {}
    if args.max_body_bytes is not None:
        kwargs["max_body_bytes"] = args.max_body_bytes
    return serve(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=args.cache_dir,
        mode=args.mode,
        timeout=args.timeout,
        retries=args.retries,
        corpus_dir=args.corpus,
        scorer=args.scorer,
        max_pending=args.max_pending,
        max_jobs=args.max_jobs,
        drain_timeout=args.drain_timeout,
        trace_sample=args.trace_sample,
        trace_seed=args.trace_seed,
        trace_export=args.trace_export,
        slos=slos,
        **kwargs,
    )


def _command_obs(args) -> int:
    import os
    import time as _time

    from repro.obs.spans import (
        load_span_file,
        render_span_report,
        render_waterfall,
        span_report,
    )
    from repro.service.validation import ValidationError

    if args.obs_command == "tail":
        path = args.span_file
        if not os.path.exists(path):
            raise ValidationError(f"span file not found: {path}")
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
            for line in lines[-max(0, args.limit):]:
                print(line)
            if args.follow:
                # Poll rather than inotify: the exporter appends whole
                # lines under a lock, so a short sleep loop never sees
                # a torn record.
                try:
                    while True:
                        chunk = handle.readline()
                        if not chunk:
                            _time.sleep(0.2)
                            continue
                        if chunk.strip():
                            print(chunk.rstrip("\n"), flush=True)
                except KeyboardInterrupt:
                    return 0
        return 0

    spans = load_span_file(args.span_file)
    if args.obs_command == "report":
        print(render_span_report(span_report(spans)))
        return 0
    # waterfall
    trace_id = args.trace_id
    if trace_id is None:
        if not spans:
            raise ValidationError(f"no spans in {args.span_file}")
        trace_id = spans[-1]["trace_id"]
    selected = [span for span in spans if span["trace_id"] == trace_id]
    if not selected:
        raise ValidationError(
            f"trace {trace_id} not found in {args.span_file}"
        )
    print(render_waterfall(selected))
    return 0


def _corpus_add_refs(corpus, refs, add_builtins=False, profile=None,
                     progress=None, batch_size=500):
    """Add schema refs (file paths or ``builtin:<Name>``) to ``corpus``.

    File refs dispatch on extension, so ``.sql`` DDL and ``.json``
    JSON Schema files ingest with their ``source_kind`` recorded in the
    manifest.  ``profile`` optionally attaches an instance-evidence map
    to the (single) added schema.  XSD/builtin refs batch through
    :meth:`~repro.corpus.corpus.SchemaCorpus.add_many` in chunks of
    ``batch_size`` -- one manifest write per chunk instead of per
    schema, which is what keeps bulk ``index build`` linear.
    ``progress`` (``(done, total) -> None``) is called after every ref.
    Returns the entries that were actually new.
    """
    from pathlib import Path

    from repro.datasets.registry import schema_names
    from repro.ingest import detect_kind
    from repro.service.manifest import BUILTIN_PREFIX, _load_schema_text
    from repro.service.validation import ValidationError

    refs = list(refs)
    if profile and (len(refs) != 1 or add_builtins):
        raise ValidationError(
            "--data profiles attach to exactly one added schema; pass a "
            "single schema file with it"
        )
    if add_builtins:
        refs.extend(f"{BUILTIN_PREFIX}{name}" for name in schema_names())
    added = []
    total = len(refs)
    done = 0
    pending = []

    def flush():
        nonlocal pending
        if pending:
            added.extend(corpus.add_many(pending))
            pending = []

    for ref in refs:
        is_file_kind = (
            not ref.startswith(BUILTIN_PREFIX) and detect_kind(ref) != "xsd"
        )
        if profile:
            # Single-schema path: profiles attach at add time, so this
            # stays on the per-entry API.
            before = len(corpus)
            if is_file_kind:
                entry = corpus.add_file(ref, profile=profile)
            else:
                text, name = _load_schema_text(ref, Path.cwd())
                entry = corpus.add(
                    parse_xsd(text, name=name), profile=profile
                )
            if len(corpus) > before:
                added.append(entry)
        elif is_file_kind:
            flush()
            before = len(corpus)
            entry = corpus.add_file(ref)
            if len(corpus) > before:
                added.append(entry)
        else:
            text, name = _load_schema_text(ref, Path.cwd())
            pending.append(parse_xsd(text, name=name))
            if len(pending) >= batch_size:
                flush()
        done += 1
        if progress is not None:
            progress(done, total)
    flush()
    return added


def _command_index(args) -> int:
    from repro.corpus.corpus import SchemaCorpus
    from repro.corpus.indexes import IndexConfig
    from repro.corpus.segments import (
        SEGMENT_MANIFEST_NAME,
        SEGMENTS_DIR,
        SegmentedCorpusIndex,
    )
    from repro.service.validation import ValidationError

    corpus = SchemaCorpus(args.corpus)
    segments_root = corpus.root / SEGMENTS_DIR
    has_segments = (segments_root / SEGMENT_MANIFEST_NAME).exists()
    quiet = getattr(args, "quiet", False)

    def progress(done, total):
        if not quiet and total >= 10 and sys.stderr.isatty():
            end = "\n" if done == total else "\r"
            print(f"  adding schemas: {done}/{total}",
                  end=end, file=sys.stderr, flush=True)

    if args.index_command == "info":
        print(f"corpus: {corpus.root}")
        print(f"schemas: {len(corpus)}")
        for entry in corpus.entries():
            notes = ""
            if entry.source_kind != "xsd":
                notes += f", from {entry.source_kind}"
            if entry.profile:
                notes += f", {len(entry.profile)} profiled leaves"
            print(f"  {entry.hash[:12]}  {entry.name}  "
                  f"({entry.nodes} nodes, depth {entry.max_depth}{notes})")
        print(f"fingerprint: {corpus.fingerprint()[:16]}")
        if not has_segments:
            print("index: none (run qmatch index build)")
            return 0
        index = SegmentedCorpusIndex.open(segments_root)
        info = index.info()
        state = "STALE" if index.stale_for(corpus) else "fresh"
        print(f"index: {info['docs']} documents in "
              f"{info['segments']} segment"
              f"{'s' if info['segments'] != 1 else ''}, "
              f"{info['tombstones']} tombstone"
              f"{'s' if info['tombstones'] != 1 else ''}, "
              f"{info['payload_bytes']} payload bytes "
              f"({info['postings_bytes_loaded']} loaded), "
              f"config {info['config_fingerprint']}, {state}")
        return 0

    if args.index_command == "compact":
        if not has_segments:
            raise ValidationError(
                f"corpus {str(corpus.root)!r} has no index to compact; "
                "build one with qmatch index build"
            )
        index = SegmentedCorpusIndex.open(segments_root)
        before = index.segment_count
        outcome = index.compact(full=not args.auto)
        print(f"compacted {before} segment{'s' if before != 1 else ''} "
              f"-> {outcome['segments']}; dropped {outcome['dropped']} "
              f"tombstoned document"
              f"{'s' if outcome['dropped'] != 1 else ''}")
        return 0

    if args.index_command == "build":
        if not args.schemas and not args.builtins and len(corpus) == 0:
            raise ValidationError(
                "nothing to index: pass schema files, builtin:<Name> refs "
                "or --builtins"
            )
        config = IndexConfig(
            num_perm=args.num_perm,
            bands=args.bands,
            use_thesaurus=not args.no_thesaurus,
        )
        added = _corpus_add_refs(
            corpus, args.schemas, add_builtins=args.builtins,
            progress=progress,
        )
        index = SegmentedCorpusIndex.build(corpus, config=config)
    else:  # add
        profile = _profile_data_files(args.data) or None
        added = _corpus_add_refs(
            corpus, args.schemas, profile=profile, progress=progress,
        )
        if has_segments:
            index = SegmentedCorpusIndex.open(segments_root)
            index.refresh(corpus)
        else:
            index = SegmentedCorpusIndex.build(corpus)
    if not quiet:
        print(f"{len(added)} schema{'s' if len(added) != 1 else ''} added; "
              f"{len(corpus)} in corpus; index covers "
              f"{index.document_count} documents")
    return 0


def _command_search(args) -> int:
    from pathlib import Path

    from repro.service.manifest import BUILTIN_PREFIX, _load_schema_text
    from repro.service.server import build_searcher
    from repro.service.validation import (
        ValidationError,
        validate_search_budget,
        validate_threshold,
        validate_weights,
    )

    k_value, candidates = validate_search_budget(
        args.k, args.candidates,
        k_field="--k", candidates_field="--candidates",
    )
    if args.workers < 1:
        raise ValidationError(f"invalid --workers {args.workers}: must be >= 1")
    threshold = validate_threshold(args.threshold, field="--threshold")
    searcher = build_searcher(
        args.corpus, cache_dir=args.cache_dir, workers=args.workers,
        scorer=args.scorer,
    )
    if not args.quiet and searcher.index.stale_for(searcher.corpus):
        print("warning: corpus index is stale (corpus content changed "
              "since the last build); run qmatch index build to refresh",
              file=sys.stderr)
    searcher.threshold = threshold
    if args.weights:
        searcher.weights = validate_weights(
            args.weights, field="--weights"
        ).as_tuple()
    if args.query.startswith(BUILTIN_PREFIX):
        text, name = _load_schema_text(args.query, Path.cwd())
        query_tree = parse_xsd(text, name=name)
    else:
        query_tree, _ = _load_schema_cli(args.query)
    query_profiles = _profile_data_files(args.data, tree=query_tree) or None
    constraint = None
    if args.require:
        from repro.constraints import load_constraint_file

        constraint = load_constraint_file(args.require)
    result = searcher.search(
        query_tree, k=k_value, candidates=candidates,
        rerank=not args.no_rerank,
        query_profiles=query_profiles,
        constraint=constraint,
    )
    if args.show_stats:
        _emit_stats(result.stats, args.output_format)
    if args.quiet:
        return 0
    if args.output_format == "json":
        print(result.to_json())
    else:
        print(result.render())
    return 0


def _command_ingest(args) -> int:
    from pathlib import Path

    from repro.ingest import load_schema_any
    from repro.ingest.profile import attach_profiles

    tree, kind = load_schema_any(args.schema, kind=args.kind, name=args.name)
    profiles = _profile_data_files(args.data, tree=tree)
    if profiles:
        attached = attach_profiles(tree, profiles)
        print(
            f"profiled {len(profiles)} columns from "
            f"{len(args.data)} data file"
            f"{'s' if len(args.data) != 1 else ''}; "
            f"{attached} attached to schema nodes",
            file=sys.stderr,
        )
    if args.profiles_out:
        Path(args.profiles_out).write_text(
            json.dumps(profiles, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote profiles to {args.profiles_out}", file=sys.stderr)
    if args.emit == "xsd":
        from repro.xsd.serializer import to_xsd

        print(to_xsd(tree))
    elif args.emit == "json-schema":
        from repro.ingest.jsonschema import to_json_schema

        print(to_json_schema(tree))
    elif args.emit == "sql":
        from repro.ingest.sql import to_sql_ddl

        print(to_sql_ddl(tree))
    else:
        print(
            f"# {tree.name} [{kind}]: {tree.size} nodes, "
            f"max depth {tree.max_depth}"
        )
        print(to_compact_text(tree, show_properties=args.properties))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "match": _command_match,
        "check": _command_check,
        "explain": _command_explain,
        "show": _command_show,
        "evaluate": _command_evaluate,
        "generate": _command_generate,
        "translate": _command_translate,
        "stats": _command_stats,
        "diff": _command_diff,
        "sdiff": _command_sdiff,
        "batch": _command_batch,
        "serve": _command_serve,
        "obs": _command_obs,
        "index": _command_index,
        "search": _command_search,
        "ingest": _command_ingest,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 -- CLI boundary: no tracebacks
        print(f"qmatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
