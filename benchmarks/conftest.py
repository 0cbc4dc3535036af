"""Shared benchmark fixtures.

Each benchmark module regenerates one table or figure of the paper (see
DESIGN.md's experiment index).  Match results are cached per
(task, algorithm) so quality figures do not recompute the expensive
protein-scale matrices; the runtime figure (Figure 4) always performs
its own timed runs.

Every module writes its paper-vs-measured table to
``benchmarks/results/<experiment>.txt`` (and echoes it to stdout, visible
with ``pytest -s``); EXPERIMENTS.md is assembled from those files.
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path

import pytest

import repro
from repro.datasets import registry
from repro.evaluation.harness import render_table
from repro.linguistic.thesaurus import Thesaurus
from repro.properties.matcher import drop_property_tables

RESULTS_DIR = Path(__file__).parent / "results"

ALGORITHMS = ("linguistic", "structural", "qmatch")

#: Figure 4's x-axis: the paper's total-element counts per pair.
FIGURE4_PAIRS = (
    ("PO", 19),
    ("Book", 24),
    ("DCMD", 91),
    ("Protein", 3984),
)


def cold_start():
    """Drop the tables matchers share across matches -- the default
    thesaurus's token lexicons and the property table -- so the next
    match starts cold, as a lone ``repro.match`` in a new process does."""
    Thesaurus.default().drop_lexicons()
    drop_property_tables()


@functools.lru_cache(maxsize=None)
def cached_match(task_name: str, algorithm: str):
    """Run (once per session) and cache a matcher on a named task."""
    task = registry.task(task_name)
    return repro.match(task.source, task.target, algorithm=algorithm)


@pytest.fixture(scope="session")
def task_of():
    return registry.task


@pytest.fixture(scope="session")
def match_of():
    return cached_match


def write_result(name: str, title: str, body: str):
    """Persist one experiment's report and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = f"== {title} ==\n{body}\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"\n{text}")


@pytest.fixture(scope="session")
def report():
    def _report(name, title, headers, rows):
        write_result(name, title, render_table(headers, rows))
    return _report


def best_of_interleaved(fns, rounds: int, iterations: int) -> list:
    """Best-of means for several variants, measured round-robin.

    Interleaving the rounds (baseline, guard, traced, baseline, ...)
    cancels monotonic drift -- allocator state, frequency scaling --
    that sequential phases would attribute entirely to whichever
    variant ran last.
    """
    best = [math.inf] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            started = time.perf_counter()
            for _ in range(iterations):
                fn()
            best[index] = min(
                best[index], (time.perf_counter() - started) / iterations,
            )
    return best
