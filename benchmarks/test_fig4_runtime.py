"""Figure 4: overall runtime of the match algorithms.

The paper plots running time against the total number of elements in the
input pair (19, 24, 91, 3984) for the linguistic, structural and hybrid
algorithms, observing that the hybrid QMatch is the slowest -- "as
expected, as the hybrid QMatch algorithm combines both linguistic and
structural algorithms".

Each (pair, algorithm) combination is its own pytest-benchmark entry,
timed as the median of its rounds; after the hybrid run of a pair, the
shape assertion checks that the hybrid took at least as long (within
measurement noise) as each baseline on that pair, and that every
algorithm's runtime grows with the input size.  On the pairs under 100
elements the shape assertion compares medians of rounds run in
alternation (linguistic, structural, hybrid, linguistic, ...): there the
host's speed drifts more between one benchmark entry and the next than
the algorithms differ.

Absolute numbers are not comparable to the paper's (Java on a 2 GHz
Pentium 4 vs Python here); the curve shape is the reproduction target.
"""

import statistics
import time

import pytest

import repro
from repro.datasets import registry

from conftest import ALGORITHMS, FIGURE4_PAIRS, cold_start, write_result
from repro.evaluation.harness import render_table

#: (task, algorithm) -> measured seconds, filled as benchmarks run.
MEASURED = {}

#: Rounds per algorithm on the pairs under 100 elements.
SMALL_PAIR_ROUNDS = 9

_PARAMS = [
    (task_name, total, algorithm)
    for task_name, total in FIGURE4_PAIRS
    for algorithm in ALGORITHMS
]


@pytest.mark.parametrize(
    "task_name,total_elements,algorithm",
    _PARAMS,
    ids=[f"{t}-{n}-{a}" for t, n, a in _PARAMS],
)
def test_fig4_runtime(benchmark, task_name, total_elements, algorithm):
    task = registry.task(task_name)
    assert task.total_elements == total_elements

    # On the small pairs the hybrid and the linguistic baseline both
    # spend most of a run in the same cold label-table fill, so their
    # times are medians of many rounds, not means of a few.
    rounds = 1 if total_elements > 100 else SMALL_PAIR_ROUNDS
    # Matchers share the default thesaurus's token lexicon and the
    # property table, so one algorithm's run would warm the next one's;
    # each timed round starts from cold tables, as a lone
    # ``repro.match`` does.
    benchmark.pedantic(
        repro.match,
        args=(task.source, task.target),
        kwargs={"algorithm": algorithm},
        setup=cold_start,
        rounds=rounds,
        iterations=1,
    )
    elapsed = benchmark.stats.stats.median
    MEASURED[(task_name, algorithm)] = elapsed

    if algorithm == "qmatch":
        # Shape: the hybrid is the slowest algorithm on this pair.
        shape_times = MEASURED
        if rounds > 1:
            shape_times = _alternating_medians(task, task_name, rounds)
            elapsed = shape_times[(task_name, "qmatch")]
        for baseline in ("linguistic", "structural"):
            baseline_time = shape_times.get((task_name, baseline))
            if baseline_time is not None:
                assert elapsed >= 0.8 * baseline_time, (
                    f"hybrid not slowest on {task_name}: "
                    f"{elapsed:.3f}s vs {baseline} {baseline_time:.3f}s"
                )

    if (task_name, algorithm) == ("Protein", "qmatch"):
        _write_report()
        _assert_growth()


def _alternating_medians(task, task_name, rounds):
    """Median seconds of a cold run per algorithm, the algorithms timed
    in turn within each round so a drift in host speed hits all alike."""
    times = {(task_name, algorithm): [] for algorithm in ALGORITHMS}
    for _ in range(rounds):
        for algorithm in ALGORITHMS:
            cold_start()
            started = time.perf_counter()
            repro.match(task.source, task.target, algorithm=algorithm)
            times[(task_name, algorithm)].append(time.perf_counter() - started)
    return {key: statistics.median(values) for key, values in times.items()}


def _write_report():
    rows = []
    for task_name, total in FIGURE4_PAIRS:
        rows.append((
            task_name, total,
            MEASURED.get((task_name, "linguistic")),
            MEASURED.get((task_name, "structural")),
            MEASURED.get((task_name, "qmatch")),
        ))
    write_result(
        "fig4", "Figure 4: Overall Performance of Match Algorithms "
        "(median seconds per run)",
        render_table(
            ["pair", "total elements", "linguistic", "structural", "hybrid"],
            rows,
        ),
    )


def _assert_growth():
    """Every algorithm's runtime grows from the smallest to the largest
    input (the O(n*m) trend of the paper's curve)."""
    for algorithm in ALGORITHMS:
        smallest = MEASURED.get(("PO", algorithm))
        largest = MEASURED.get(("Protein", algorithm))
        if smallest is not None and largest is not None:
            assert largest > smallest * 10, algorithm
