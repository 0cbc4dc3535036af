"""Frozen outputs of the two Fig. 4 baselines: the golden snapshots behind
test_baseline_golden.

A snapshot captures what a ``linguistic`` or ``structural`` run exposes
for one builtin task: the full ``ScoreMatrix`` in insertion order, the
selected correspondences, the config fingerprint, and the engine
counters and cache hit/miss records (timings and the context's
interning counters excluded).  Floats are stored as ``repr`` strings so
the comparison is exact.  A case with more node pairs than
:data:`FULL_ROWS_PAIRS` stores a SHA-256 of its rows' exact bytes plus
their length.

The fixtures were recorded while both baselines still scored through
path-keyed ``ScoreMatrix.set`` calls and the structural matcher's
name-bearing leaf signatures.  Python 3.12's compensated float
``sum()`` does not reach these matchers, so one fixture set serves every
supported interpreter.

Regenerate (only when an output change is intended and explained)::

    PYTHONPATH=src python -m tests.baseline_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "baseline_golden"

#: Every builtin task of :mod:`repro.datasets.registry`.
TASKS = ("PO", "Book", "DCMD", "Inventory", "Extreme", "Protein")

ALGORITHMS = ("linguistic", "structural")

#: Cases with more node pairs than this store a digest of their rows.
FULL_ROWS_PAIRS = 400

#: Engine counters a snapshot leaves out (see :func:`snapshot`).
INTERNING_COUNTERS = ("context.label_ids", "context.signature_ids")


def _digest(text):
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def snapshot(task_name, algorithm):
    """Run one baseline on one builtin task and capture its outputs."""
    import repro
    from repro.datasets import registry

    task = registry.task(task_name)
    result = repro.match(task.source, task.target, algorithm=algorithm)
    rows = [
        [s_path, t_path, repr(score)]
        for (s_path, t_path), score in result.matrix.items()
    ]
    return {
        "task": task_name,
        "algorithm": algorithm,
        "fingerprint": result.config_fingerprint,
        "correspondences": [
            [c.source_path, c.target_path, repr(c.score), c.category]
            for c in result.correspondences
        ],
        "caches": [
            [name, cache.hits, cache.misses]
            for name, cache in result.stats.caches.items()
        ],
        # The context's interning counters size its tables, not the
        # result; they appear once a baseline reads those tables.
        "counters": [
            [name, value]
            for name, value in sorted(result.stats.counters.items())
            if name not in INTERNING_COUNTERS
        ],
        "pairs": len(rows),
        "rows": (rows if len(rows) <= FULL_ROWS_PAIRS
                 else _digest(json.dumps(rows))),
    }


def fixture_path(task_name):
    return FIXTURE_DIR / f"{task_name}.json"


def load_fixture(task_name):
    return json.loads(fixture_path(task_name).read_text(encoding="utf-8"))


def dump_fixture(payload):
    """``{algorithm: snapshot}`` as JSON with one line per list entry."""
    blocks = []
    for algorithm, snap in payload.items():
        fields = []
        for key, value in snap.items():
            if isinstance(value, list) and value:
                entries = ",\n".join(f"   {json.dumps(v)}" for v in value)
                fields.append(f"  {json.dumps(key)}: [\n{entries}\n  ]")
            else:
                fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
        blocks.append(f" {json.dumps(algorithm)}: {{\n" + ",\n".join(fields)
                      + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def write_fixtures():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for task_name in TASKS:
        payload = {
            algorithm: snapshot(task_name, algorithm)
            for algorithm in ALGORITHMS
        }
        fixture_path(task_name).write_text(dump_fixture(payload),
                                           encoding="utf-8")
        print(f"wrote {fixture_path(task_name)}")


if __name__ == "__main__":
    write_fixtures()
