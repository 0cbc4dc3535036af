"""Trace overhead benchmark: tracing must stay cheap.

Every QMatch run scores through the block path; a traced run then
records one span per pair from the grids that run holds.  This module
prices both against the scalar per-pair loop they replaced, on the
builtin PO pair, each variant on a fresh context:

- **baseline** -- the frozen scalar reference loop
  (:func:`tests.qmatch_reference.match_context`, untraced);
- **disabled** -- the shipping ``match_context`` with the default
  ``NULL_TRACER``;
- **traced** -- the shipping ``match_context`` with a live
  :class:`TraceRecorder`, every pair recording a full span with axis
  contributions.

The contract: an untraced run costs at most 5% over the baseline, and
a traced one at most 2x.  The traced/untraced ratio of the shipping
path is reported alongside.  Timings are best-of-N means so one
scheduler hiccup cannot fail the build, and each round times the three
variants in turn so host-speed drift cannot favour one.
"""

import sys
from pathlib import Path

from repro.core.qmatch import QMatchMatcher
from repro.datasets import registry
from repro.obs.trace import TraceRecorder

from conftest import best_of_interleaved, write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import qmatch_reference  # noqa: E402

#: Best-of ROUNDS, each round averaging ITERATIONS full matches.
ROUNDS = 7
ITERATIONS = 15

#: An untraced run may cost at most this factor over the baseline.
DISABLED_BUDGET = 1.05

#: Recording full spans may cost at most this factor over baseline.
TRACED_BUDGET = 2.0


def test_trace_overhead(benchmark):
    task = registry.task("PO")
    matcher = QMatchMatcher()
    source, target = task.source, task.target

    # Fresh context per match, as every production entry point does --
    # a warmed context would shrink the per-pair work and overstate the
    # trace's relative cost.
    def baseline():
        qmatch_reference.match_context(
            matcher, matcher.make_context(source, target))

    def disabled():
        matcher.match_context(matcher.make_context(source, target))

    def traced():
        recorder = TraceRecorder(run_id="bench")
        matcher.match_context(
            matcher.make_context(source, target, tracer=recorder)
        )

    benchmark.pedantic(traced, rounds=3, iterations=1)

    baseline_s, disabled_s, traced_s = best_of_interleaved(
        (baseline, disabled, traced), ROUNDS, ITERATIONS
    )

    write_result(
        "trace_overhead",
        "Trace overhead: PO pair, best-of-7 mean of 15 matches (seconds)",
        "\n".join([
            f"scalar reference loop      : {baseline_s:.6f}",
            f"tracing disabled (blocks)  : {disabled_s:.6f}"
            f"  ({disabled_s / baseline_s:.3f}x, budget "
            f"{DISABLED_BUDGET:.2f}x)",
            f"tracing enabled (spans)    : {traced_s:.6f}"
            f"  ({traced_s / baseline_s:.3f}x, budget "
            f"{TRACED_BUDGET:.2f}x)",
            f"traced / untraced          : {traced_s / disabled_s:.3f}x",
        ]),
    )

    assert disabled_s <= baseline_s * DISABLED_BUDGET, (
        f"untraced run {disabled_s:.6f}s exceeds "
        f"{DISABLED_BUDGET:.2f}x the scalar reference {baseline_s:.6f}s"
    )
    assert traced_s <= baseline_s * TRACED_BUDGET, (
        f"traced run {traced_s:.6f}s exceeds "
        f"{TRACED_BUDGET:.2f}x the scalar reference {baseline_s:.6f}s"
    )


def test_shipping_runs_match_the_reference():
    """Untraced and traced runs score exactly like the reference."""
    task = registry.task("PO")
    matcher = QMatchMatcher()
    before = qmatch_reference.match_context(
        matcher, matcher.make_context(task.source, task.target)
    )
    for tracer in (None, TraceRecorder(run_id="bench")):
        after = matcher.match_context(
            matcher.make_context(task.source, task.target, tracer=tracer))
        assert list(before.items()) == list(after.items())
        assert before.categories == after.categories
