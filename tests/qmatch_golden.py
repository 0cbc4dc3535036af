"""Frozen QMatch outputs: the golden snapshots behind test_qmatch_golden.

A snapshot captures everything a QMatch run exposes for one
(pair, config) case: the full ``ScoreMatrix`` in insertion order with
each pair's taxonomy category, ``tree_qom``, the selected
correspondences, the config fingerprint, the ``EngineStats`` cache
counters (in their recorded order) and the ``--trace`` JSON lines.
Floats are stored as ``repr`` strings so the comparison is exact.

Bulky parts of large cases (the matrix rows and the trace of a pair
with thousands of node pairs) are stored as a SHA-256 of their exact
bytes plus their length, which keeps the fixtures small while still
comparing byte for byte.

Python 3.12 made the built-in ``sum()`` of floats compensated, which
moves some scores in their last bit, so there is one fixture set per
summation regime: ``naive-sum`` (Python 3.10 and 3.11) and
``compensated-sum`` (3.12 and later).

Regenerate the running interpreter's set (only when an output change is
intended and explained)::

    PYTHONPATH=src python -m tests.qmatch_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

FIXTURE_DIR = (
    Path(__file__).parent / "fixtures" / "qmatch_golden"
    / ("compensated-sum" if sys.version_info >= (3, 12) else "naive-sum")
)

#: The paper's evaluation pairs, plus one seeded Protein-scale sample.
PAIRS = ("PO", "Book", "DCMD", "Inventory", "PIR-PDB50")

#: Score-shaping configurations every pair is frozen under.
CONFIGS = ("default", "all_pairs", "documentation", "instance")

#: Cases with more node pairs than these store a digest of their matrix
#: rows (respectively their trace) instead of the full text.
FULL_ROWS_PAIRS = 400
FULL_TRACE_PAIRS = 100

#: Size of the sampled PDB subtree of the Protein-scale case.
SAMPLE_NODES = 50


def _sample_subtree(root, size, rng):
    """A seeded, connected ``size``-node sample of ``root``'s subtree."""
    from repro.xsd.model import SchemaNode

    kept = {id(root)}
    frontier = list(root.children)
    while len(kept) < size:
        node = frontier.pop(rng.randrange(len(frontier)))
        kept.add(id(node))
        frontier.extend(node.children)

    def clone(node):
        copy = SchemaNode(node.name, kind=node.kind,
                          properties=dict(node.properties))
        for child in node.children:
            if id(child) in kept:
                copy.add_child(clone(child))
        return copy

    return clone(root)


@functools.lru_cache(maxsize=1)
def _protein_sample():
    """PIR against a mutated 50-element sample of a PDB subtree."""
    from repro.datasets.protein import PROTEIN_TYPE_POOL, pdb, pir
    from repro.xsd.model import SchemaTree
    from repro.xsd.mutations import MutationConfig, SchemaMutator

    rng = random.Random("qmatch-golden:0")
    candidates = [
        node for node in pdb().root.iter_preorder()
        if SAMPLE_NODES <= sum(1 for _ in node.iter_preorder())
        <= 4 * SAMPLE_NODES
    ]
    root = rng.choice(candidates)
    base = SchemaTree(_sample_subtree(root, SAMPLE_NODES, rng),
                      name=f"PDB:{root.name}")
    mutator = SchemaMutator(
        MutationConfig(seed=rng.randrange(1 << 30), rename_probability=0.1,
                       shuffle_probability=0.3, retype_probability=0.05),
        type_pool=PROTEIN_TYPE_POOL,
    )
    sample, _ = mutator.mutate(base, name=base.name)
    return pir(), sample


def _attach_instance_profiles(tree, seed):
    """Profiles of three seeded generated instances of ``tree``."""
    from repro.ingest.profile import attach_profiles, profile_xml_instances
    from repro.xsd.instances import InstanceConfig, generate_instance

    documents = [
        generate_instance(tree, InstanceConfig(seed=seed + offset))
        for offset in range(3)
    ]
    attach_profiles(tree, profile_xml_instances(tree, documents))


def _attach_documentation(tree):
    """Seeded ``xs:documentation`` text on three of every four nodes.

    The text depends only on a node's level and sibling order, so nodes
    at the same position on both sides get similar documentation even
    when their names differ -- the case documentation evidence rescues.
    """
    subjects = ("postal", "billing", "customer", "order", "item", "price",
                "date")
    roles = ("record", "field", "entry")
    for node in tree.root.iter_preorder():
        order = node.order or 0
        if order % 4 == 3:
            continue
        node.properties["documentation"] = (
            f"the {subjects[order % len(subjects)]} "
            f"{roles[node.level % len(roles)]} details"
        )


def load_pair(pair, config):
    """Fresh ``(source, target)`` trees of one case."""
    from repro.datasets import registry

    if pair == "PIR-PDB50":
        source, target = (tree.copy() for tree in _protein_sample())
    else:
        task = registry.task(pair)
        source, target = task.source.copy(), task.target.copy()
    if config == "documentation":
        _attach_documentation(source)
        _attach_documentation(target)
    if config == "instance":
        _attach_instance_profiles(source, 11)
        _attach_instance_profiles(target, 23)
    return source, target


def make_config(config):
    from repro.core.config import QMatchConfig
    from repro.core.weights import AxisWeights

    if config == "all_pairs":
        return QMatchConfig(children_aggregation="all_pairs")
    if config == "documentation":
        return QMatchConfig(use_documentation=True)
    if config == "instance":
        return QMatchConfig(weights=AxisWeights(
            label=0.15, properties=0.1, level=0.05, children=0.2,
            instance=0.5,
        ))
    return QMatchConfig()


def _digest(text):
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "bytes": len(text.encode("utf-8")),
    }


def _explain_row(breakdown):
    """An :class:`AxisBreakdown` with exact (``repr``) floats."""
    return [
        repr(value) if isinstance(value, float) else str(value)
        for value in vars(breakdown).values()
    ]


def snapshot(pair, config):
    """Run one case (untraced, then traced) and capture its outputs."""
    from repro.core.qmatch import QMatchMatcher
    from repro.obs.trace import TraceRecorder

    source, target = load_pair(pair, config)
    matcher = QMatchMatcher(config=make_config(config))
    context = matcher.make_context(source, target)
    result = matcher.match(source, target, context=context)
    caches = [
        [name, cache.hits, cache.misses]
        for name, cache in result.stats.caches.items()
    ]
    explained = [
        _explain_row(matcher.explain(
            source, target, c.source_path, c.target_path,
            matrix=result.matrix, context=context,
        ))
        for c in result.correspondences
    ]
    explained.append(_explain_row(matcher.explain(
        source, target, source.root.path, target.root.path,
    )))
    tracer = TraceRecorder(run_id="golden")
    traced = matcher.match(
        source, target,
        context=matcher.make_context(source, target, tracer=tracer),
    )
    categories = result.matrix.categories
    rows = [
        [s_path, t_path, repr(score), categories[(s_path, t_path)]]
        for (s_path, t_path), score in result.matrix.items()
    ]
    trace = tracer.to_jsonl()
    return {
        "pair": pair,
        "config": config,
        "tree_qom": repr(result.tree_qom),
        "fingerprint": result.config_fingerprint,
        "correspondences": [
            [c.source_path, c.target_path, repr(c.score), c.category]
            for c in result.correspondences
        ],
        "caches": caches,
        "explain": explained,
        "traced_caches": [
            [name, cache.hits, cache.misses]
            for name, cache in traced.stats.caches.items()
        ],
        "traced_rows_equal": (
            list(traced.matrix.items()) == list(result.matrix.items())
            and traced.matrix.categories == categories
        ),
        "pairs": len(rows),
        "rows": (rows if len(rows) <= FULL_ROWS_PAIRS
                 else _digest(json.dumps(rows))),
        "trace": (trace.splitlines() if len(rows) <= FULL_TRACE_PAIRS
                  else _digest(trace)),
    }


def fixture_path(pair):
    return FIXTURE_DIR / f"{pair}.json"


def load_fixture(pair):
    return json.loads(fixture_path(pair).read_text(encoding="utf-8"))


def dump_fixture(payload):
    """``{config: snapshot}`` as JSON with one line per list entry (one
    matrix row, correspondence or trace line each), so diffs stay
    readable."""
    configs = []
    for config, snap in payload.items():
        fields = []
        for key, value in snap.items():
            if isinstance(value, list) and value:
                entries = ",\n".join(f"   {json.dumps(v)}" for v in value)
                fields.append(f"  {json.dumps(key)}: [\n{entries}\n  ]")
            else:
                fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
        configs.append(f" {json.dumps(config)}: {{\n" + ",\n".join(fields)
                       + "\n }")
    return "{\n" + ",\n".join(configs) + "\n}\n"


def write_fixtures():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for pair in PAIRS:
        payload = {config: snapshot(pair, config) for config in CONFIGS}
        fixture_path(pair).write_text(dump_fixture(payload), encoding="utf-8")
        print(f"wrote {fixture_path(pair)}")


if __name__ == "__main__":
    write_fixtures()
