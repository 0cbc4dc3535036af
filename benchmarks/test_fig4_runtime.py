"""Figure 4: overall runtime of the match algorithms.

The paper plots running time against the total number of elements in the
input pair (19, 24, 91, 3984) for the linguistic, structural and hybrid
algorithms, observing that the hybrid QMatch is the slowest -- "as
expected, as the hybrid QMatch algorithm combines both linguistic and
structural algorithms".

Each (pair, algorithm) combination is its own pytest-benchmark entry;
after the hybrid run of a pair, the shape assertion checks that the
hybrid took at least as long (within measurement noise) as each
baseline on that pair, and that every algorithm's runtime grows with the
input size.

Absolute numbers are not comparable to the paper's (Java on a 2 GHz
Pentium 4 vs Python here); the curve shape is the reproduction target.
"""

import pytest

import repro
from repro.datasets import registry

from conftest import ALGORITHMS, FIGURE4_PAIRS, write_result
from repro.evaluation.harness import render_table
from repro.linguistic.thesaurus import Thesaurus

#: (task, algorithm) -> measured seconds, filled as benchmarks run.
MEASURED = {}

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

    rounds = 1 if total_elements > 100 else 3
    # Every matcher on the default thesaurus shares its token lexicon,
    # so one algorithm's run would warm the next one's; each timed round
    # starts from a cold lexicon, as a lone ``repro.match`` does.
    benchmark.pedantic(
        repro.match,
        args=(task.source, task.target),
        kwargs={"algorithm": algorithm},
        setup=Thesaurus.default().drop_lexicons,
        rounds=rounds,
        iterations=1,
    )
    elapsed = benchmark.stats.stats.mean
    MEASURED[(task_name, algorithm)] = elapsed

    if algorithm == "qmatch":
        # Shape: the hybrid is the slowest algorithm on this pair.
        for baseline in ("linguistic", "structural"):
            baseline_time = MEASURED.get((task_name, baseline))
            if baseline_time is not None:
                assert elapsed >= 0.8 * baseline_time, (
                    f"hybrid not slowest on {task_name}: "
                    f"{elapsed:.3f}s vs {baseline} {baseline_time:.3f}s"
                )

    if (task_name, algorithm) == ("Protein", "qmatch"):
        _write_report()
        _assert_growth()


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
        "(seconds per run)",
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
