"""Trace overhead benchmark: the per-pair guard must stay free.

The observability layer injects exactly one branch into the QMatch pair
loop (``if tracer.enabled`` in ``QMatchMatcher._score_row``).  This
module prices that branch on the builtin PO pair three ways, each on a
fresh memo-on context:

- **baseline** -- the scoring loop without the trace branch
  (``_pair_qom`` driven directly over the postorder index grid, no
  guard);
- **disabled** -- the shipping scalar loop (``_score_row`` over every
  source row) with the default ``NULL_TRACER``: the guard is present
  but never taken, so it is the only difference from the baseline.
  (``match_context`` itself would score this context with the guard-free
  block path, which prices something else.);
- **traced** -- ``match_context`` with a live :class:`TraceRecorder`
  (the scalar loop again, every pair recording a full span with axis
  contributions).

The contract: disabled tracing costs at most 5% over the pre-PR
baseline, and full tracing at most 2x.  Timings are best-of-N means so
one scheduler hiccup cannot fail the build, and each round times the
three variants in turn so host-speed drift cannot favour one.
"""

from repro.core.qmatch import QMatchMatcher
from repro.datasets import registry
from repro.matching.result import CATEGORY_CODES, ScoreMatrix, checked_score
from repro.obs.trace import TraceRecorder

from conftest import best_of_interleaved, write_result

#: Best-of ROUNDS, each round averaging ITERATIONS full matches.
ROUNDS = 7
ITERATIONS = 15

#: The guard may cost at most this factor over the unguarded loop.
DISABLED_BUDGET = 1.05

#: Recording full spans may cost at most this factor over baseline.
TRACED_BUDGET = 2.0


def _pre_pr_loop(matcher, ctx) -> ScoreMatrix:
    """The pair loop without the trace branch: the same index-based
    ``_pair_qom`` over the context's postorder tables, no guard."""
    source, target = ctx.source_table, ctx.target_table
    width = len(target)
    grid = [0.0] * (len(source) * width)
    categories = (
        [None] * len(grid) if matcher.config.record_categories else None
    )
    for s_index in range(len(source)):
        row = s_index * width
        for t_index in range(width):
            qom, category = matcher._pair_qom(
                s_index, t_index, grid, categories, ctx
            )
            grid[row + t_index] = checked_score(
                qom, source.paths[s_index], target.paths[t_index]
            )
            if categories is not None:
                categories[row + t_index] = CATEGORY_CODES[category._value_]
    return ScoreMatrix(ctx.source, ctx.target, "postorder", grid, categories)


def _guarded_loop(matcher, ctx) -> ScoreMatrix:
    """The shipping scalar pair loop, guard included: what
    ``match_context`` runs for a traced or memo-off context."""
    grid = [0.0] * (len(ctx.source_table) * len(ctx.target_table))
    categories = (
        [-1] * len(grid) if matcher.config.record_categories else None
    )
    for s_index in range(len(ctx.source_table)):
        matcher._score_row(s_index, grid, categories, ctx)
    return ScoreMatrix(ctx.source, ctx.target, "postorder", grid, categories)


def test_trace_guard_overhead(benchmark):
    task = registry.task("PO")
    matcher = QMatchMatcher()
    source, target = task.source, task.target

    # Fresh context per match, as every production entry point does --
    # a warmed context would shrink the per-pair work and overstate the
    # guard's relative cost.
    def baseline():
        _pre_pr_loop(matcher, matcher.make_context(source, target))

    def disabled():
        _guarded_loop(matcher, matcher.make_context(source, target))

    def traced():
        recorder = TraceRecorder(run_id="bench")
        matcher.match_context(
            matcher.make_context(source, target, tracer=recorder)
        )

    benchmark.pedantic(disabled, rounds=3, iterations=1)

    baseline_s, disabled_s, traced_s = best_of_interleaved(
        (baseline, disabled, traced), ROUNDS, ITERATIONS
    )

    write_result(
        "trace_overhead",
        "Trace overhead: PO pair, best-of-7 mean of 15 matches (seconds)",
        "\n".join([
            f"pre-PR baseline (no guard) : {baseline_s:.6f}",
            f"tracing disabled (guard)   : {disabled_s:.6f}"
            f"  ({disabled_s / baseline_s:.3f}x, budget "
            f"{DISABLED_BUDGET:.2f}x)",
            f"tracing enabled (spans)    : {traced_s:.6f}"
            f"  ({traced_s / baseline_s:.3f}x, budget "
            f"{TRACED_BUDGET:.2f}x)",
        ]),
    )

    assert disabled_s <= baseline_s * DISABLED_BUDGET, (
        f"disabled tracing {disabled_s:.6f}s exceeds "
        f"{DISABLED_BUDGET:.2f}x the pre-PR baseline {baseline_s:.6f}s"
    )
    assert traced_s <= baseline_s * TRACED_BUDGET, (
        f"enabled tracing {traced_s:.6f}s exceeds "
        f"{TRACED_BUDGET:.2f}x the pre-PR baseline {baseline_s:.6f}s"
    )


def test_guarded_loop_matches_pre_pr_scores():
    """The refactored loop must be a pure superset: identical scores."""
    task = registry.task("PO")
    matcher = QMatchMatcher()
    before = _pre_pr_loop(
        matcher, matcher.make_context(task.source, task.target)
    )
    for after in (
        _guarded_loop(matcher, matcher.make_context(task.source,
                                                    task.target)),
        matcher.match_context(matcher.make_context(task.source,
                                                   task.target)),
    ):
        assert list(before.items()) == list(after.items())
        assert before.categories == after.categories
