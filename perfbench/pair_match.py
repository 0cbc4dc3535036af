"""``pair-match``: QMatch on PIR against seeded PDB subtrees, in process.

The paper's Figure 4 path at Protein scale.  Every operation is one
``QMatchMatcher().match(PIR, subtree)`` on a fresh matcher (as
``repro.match`` does), closed loop, one thread.  The seed picks, per
operation, a PDB subtree to start from, a connected sample of exactly
50 of its elements, and the mutations applied to the sample (child
shuffles, retypes, light renames -- the element count never changes).
Every operation therefore scores the same 231 x 50 node pairs, which
keeps the per-run median steady across seeds."""

from __future__ import annotations

import random
import time

from common import (
    ENGINE_TALLY,
    InProcessWorkload,
    OpLog,
    add_engine_stats,
    digest,
    median,
    metric,
)

NAME = "pair-match"

#: Elements per sampled subtree, the largest PDB subtree a sample may
#: start from, and nominal operations per second of run length.
SUBTREE_NODES = 50
MAX_ROOT_NODES = 4 * SUBTREE_NODES
OPS_PER_SECOND = 2.0


def op_count(seconds: int) -> int:
    return max(4, round(seconds * OPS_PER_SECOND))


def node_count(node) -> int:
    return sum(1 for _ in node.iter_preorder())


def sample_subtree(root, size: int, rng: random.Random):
    """A seeded, connected sample of exactly ``size`` nodes of the
    subtree under ``root`` (which must hold at least ``size``), copied
    into a fresh tree."""
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


def result_digest(result) -> str:
    return digest({
        "tree_qom": repr(result.tree_qom),
        "correspondences": [
            [c.source_path, c.target_path, repr(c.score), c.category]
            for c in result.correspondences
        ],
    })


class Workload(InProcessWorkload):
    """Inputs and passes of the pair-match workload."""

    name = NAME

    def __init__(self, seed: int, seconds: int, work):
        self.seed = seed
        self.seconds = seconds

    # ------------------------------------------------------------------

    def make_ops(self, seed: int, seconds: int) -> list:
        """The ``(root path, subtree)`` inputs of a ``seconds``-long run."""
        from repro.datasets.protein import PROTEIN_TYPE_POOL
        from repro.xsd.model import SchemaTree
        from repro.xsd.mutations import MutationConfig, SchemaMutator

        rng = random.Random(f"pair-match:{seed}")
        ops = []
        for _ in range(op_count(seconds)):
            root = rng.choice(self.candidates)
            base = SchemaTree(
                sample_subtree(root, SUBTREE_NODES, rng),
                name=f"PDB:{root.name}",
            )
            mutator = SchemaMutator(
                MutationConfig(
                    seed=rng.randrange(1 << 30),
                    rename_probability=0.1,
                    shuffle_probability=0.3,
                    retype_probability=0.05,
                ),
                type_pool=PROTEIN_TYPE_POOL,
            )
            subtree, _ = mutator.mutate(base, name=base.name)
            ops.append((root.path, subtree))
        return ops

    def setup(self, passes: int, replays: int):
        from repro.core.qmatch import QMatchMatcher
        from repro.datasets.protein import pdb, pir

        self.source = pir()
        self.candidates = [
            node for node in pdb().root.iter_preorder()
            if SUBTREE_NODES <= node_count(node) <= MAX_ROOT_NODES
        ]
        self.ops = self.make_ops(self.seed, self.seconds)
        # Warm-up: the thesaurus and lazy imports load here, not in
        # the first timed operation.
        QMatchMatcher().match(self.source, self.ops[0][1])

    # ------------------------------------------------------------------

    def run_ops(self, ops, oplog: OpLog, tally: dict, digests: list):
        from repro.core.qmatch import QMatchMatcher

        source = self.source
        for _, subtree in ops:
            started = time.perf_counter()
            try:
                result = QMatchMatcher().match(source, subtree)
            except Exception:  # noqa: BLE001 -- counted as a failure
                oplog.record("match", time.perf_counter() - started, ok=False)
                digests.append(None)
                continue
            oplog.record("match", time.perf_counter() - started)
            add_engine_stats(tally, result.stats)
            digests.append(result_digest(result))

    def run_pass(self, index: int, oplog: OpLog) -> dict:
        tally = dict.fromkeys(ENGINE_TALLY, 0)
        digests: list = []
        self.run_ops(self.ops, oplog, tally, digests)
        return {"oplog": oplog, "tally": tally, "digests": digests}

    # ------------------------------------------------------------------

    def replay_digests(self, seed: int, seconds: int, n_ops: int) -> list:
        """Digests of the first ``n_ops`` operations of golden
        ``seed``'s ``seconds``-long run."""
        digests: list = []
        self.run_ops(self.make_ops(seed, seconds)[:n_ops], OpLog(),
                     dict.fromkeys(ENGINE_TALLY, 0), digests)
        return digests

    def end_to_end(self, run: dict) -> dict:
        oplog = run["oplog"]
        scale = run["scale"]
        latencies = oplog.latencies.get("match", [])
        seconds = oplog.class_seconds("match") * scale
        return {
            "pairs_per_s": metric(
                run["tally"]["pairs"] / seconds, "pairs/s", len(latencies)
            ),
            "p50_ms": metric(
                1e3 * median(latencies) * scale, "ms", len(latencies)
            ),
        }

    def report_lines(self, run: dict) -> list:
        tally = run["tally"]
        return [
            f"inputs     PIR ({self.source.size} elements) x "
            f"{len(self.ops)} seeded {SUBTREE_NODES}-element samples of PDB "
            f"subtrees ({len(self.candidates)} roots to sample from)",
            f"node pairs {tally['pairs']}",
        ]
