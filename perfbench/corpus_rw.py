"""``corpus-rw``: reads and writes on a segmented schema corpus, in process.

Set-up builds a ~2k-schema synthetic corpus (fixed master seed) with a
segmented index, then copies it once per timed pass so every pass
starts from the same bytes.  The seed then picks a mix of four
operation classes, interleaved in a seeded order, closed loop, one
thread:

- ``retrieve`` -- budgeted retrieve-only search (``rerank=False``, index
  ``max_candidates``) for a seeded mutation of a corpus schema;
- ``search``   -- full two-stage search with a small rerank budget; each
  examined candidate is a QMatch job through the inline batch runner;
- ``add``      -- ``SchemaCorpus.add_many`` plus
  ``SegmentedCorpusIndex.add_batch`` of fresh schemas (auto-compaction
  fires during the run and is billed to the add that triggers it);
- ``remove``   -- corpus removal plus an index tombstone.
"""

from __future__ import annotations

import math
import random
import shutil
import time

from common import (
    ENGINE_TALLY,
    InProcessWorkload,
    OpLog,
    add_engine_stats,
    digest,
    median,
    metric,
    percentile,
    tail_ok,
)

NAME = "corpus-rw"

BASE_SCHEMAS = 2000
ADD_BATCH = 25
RETRIEVE_BUDGET = 128
SEARCH_K, SEARCH_CANDIDATES = 3, 4
RETRIEVE_K = 10

#: Nominal operations per second of each class (run length scales them).
CLASS_RATES = (("retrieve", 50.0), ("search", 2.4), ("add", 1.6),
               ("remove", 1.6))


def class_counts(seconds: int) -> dict:
    return {name: max(2, round(rate * seconds)) for name, rate in CLASS_RATES}


class Workload(InProcessWorkload):
    """Inputs, corpus copies and passes of the corpus-rw workload."""

    name = NAME

    def __init__(self, seed: int, seconds: int, work):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self._copies = 0

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def make_ops(self, seed: int, seconds: int) -> list:
        """The seeded operation sequence of a ``seconds``-long run:
        ``(class, argument)`` rows."""
        from dataclasses import replace

        from repro.xsd.generator import (
            SchemaGenerator,
            derive_seed,
            synthetic_corpus_configs,
        )
        from repro.xsd.mutations import MutationConfig, SchemaMutator

        counts = class_counts(seconds)
        rng = random.Random(f"corpus-rw:{seed}")
        kinds = [name for name, _ in CLASS_RATES for _ in range(counts[name])]
        rng.shuffle(kinds)
        removals = iter(rng.sample(range(BASE_SCHEMAS), counts["remove"]))
        fresh = synthetic_corpus_configs(
            counts["add"] * ADD_BATCH,
            master_seed=derive_seed(seed, 0, label="corpus-rw-add"),
            pool=self.pool,
        )
        ops = []
        for position, kind in enumerate(kinds):
            if kind in ("retrieve", "search"):
                base = self.base_trees[rng.randrange(BASE_SCHEMAS)]
                mutator = SchemaMutator(MutationConfig(
                    seed=rng.randrange(1 << 30),
                    rename_probability=0.2,
                    shuffle_probability=0.3,
                ))
                query, _ = mutator.mutate(base, name=f"Q{seed}x{position}")
                ops.append((kind, query))
            elif kind == "add":
                batch = []
                for _ in range(ADD_BATCH):
                    config = next(fresh)
                    config = replace(
                        config, root_name=f"Add{seed}x{config.root_name[5:]}"
                    )
                    batch.append(SchemaGenerator(config).generate())
                ops.append((kind, batch))
            else:
                ops.append((kind, self.base_trees[next(removals)].name))
        return ops

    def setup(self, passes: int, replays: int):
        """Build the base corpus, one copy per pass and per golden
        replay, and the operation sequence; warm everything up."""
        from repro.corpus import SchemaCorpus, SegmentedCorpusIndex
        from repro.corpus.segments import SEGMENTS_DIR
        from repro.xsd.generator import (
            CORPUS_MASTER_SEED,
            SchemaGenerator,
            synthetic_corpus_configs,
            vocabulary_pool,
        )

        self.pool = vocabulary_pool(
            max(64, int(8 * math.sqrt(BASE_SCHEMAS))), CORPUS_MASTER_SEED
        )
        self.base_trees = [
            SchemaGenerator(config).generate()
            for config in synthetic_corpus_configs(
                BASE_SCHEMAS, master_seed=CORPUS_MASTER_SEED, pool=self.pool
            )
        ]
        self.base_root = self.work.sub("base")
        entries = SchemaCorpus(self.base_root).add_many(self.base_trees)
        SegmentedCorpusIndex(self.base_root / SEGMENTS_DIR).add_batch(
            (entry.hash, tree) for entry, tree in zip(entries, self.base_trees)
        )
        self.ops = self.make_ops(self.seed, self.seconds)
        self.stores = [self._open_copy() for _ in range(passes)]
        self.replay_stores = [self._open_copy() for _ in range(replays)]
        # One full search loads the rerank path (matcher, batch runner);
        # searches leave the stored corpus unchanged.
        self.stores[0][2].search(
            self.base_trees[0], k=SEARCH_K, candidates=SEARCH_CANDIDATES
        )

    def _open_copy(self):
        """A private, warmed copy of the base corpus and its index."""
        from repro.corpus import (
            CorpusSearcher,
            SchemaCorpus,
            SegmentedCorpusIndex,
        )
        from repro.corpus.segments import SEGMENTS_DIR

        self._copies += 1
        root = self.work.sub(f"copy{self._copies}")
        shutil.copytree(self.base_root, root)
        corpus = SchemaCorpus(root)
        index = SegmentedCorpusIndex.open(
            root / SEGMENTS_DIR, max_candidates=RETRIEVE_BUDGET
        )
        searcher = CorpusSearcher(corpus, index)
        # Warm-up: segment payloads load and the search stack imports
        # here; a retrieve leaves the stored corpus unchanged.
        searcher.search(self.base_trees[0], k=RETRIEVE_K, rerank=False)
        return corpus, index, searcher

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------

    def run_ops(self, ops, store, oplog: OpLog, tally: dict, digests: list):
        corpus, index, searcher = store
        for kind, arg in ops:
            started = time.perf_counter()
            try:
                if kind == "retrieve":
                    result = searcher.search(arg, k=RETRIEVE_K, rerank=False)
                elif kind == "search":
                    result = searcher.search(
                        arg, k=SEARCH_K, candidates=SEARCH_CANDIDATES
                    )
                elif kind == "add":
                    entries = corpus.add_many(arg)
                    added = index.add_batch(
                        (entry.hash, tree) for entry, tree in zip(entries, arg)
                    )
                else:
                    entry = corpus.remove(arg)
                    removed = index.remove(entry.hash)
            except Exception:  # noqa: BLE001 -- counted as a failure
                oplog.record(kind, time.perf_counter() - started, ok=False)
                digests.append(None)
                continue
            oplog.record(kind, time.perf_counter() - started)
            if kind in ("retrieve", "search"):
                scan = index.last_scan
                tally["docs_scored"] += scan.get("docs_scored", 0)
                tally["postings_walked"] += scan.get("postings_walked", 0)
                tally["candidates"] += result.candidates
                hits = [
                    [hit.hash, repr(hit.retrieval_score), repr(hit.qom)]
                    for hit in result.hits
                ]
                if kind == "search":
                    tally["examined"] += result.examined
                    add_engine_stats(tally, result.stats)
                digests.append(digest([kind, hits]))
            elif kind == "add":
                tally["added"] += added
                digests.append(digest([kind, [e.hash for e in entries], added]))
            else:
                digests.append(digest([kind, entry.hash, removed]))
        tally["segments"] = index.segment_count
        tally["tombstones"] = index.tombstone_count

    @staticmethod
    def _tally() -> dict:
        return dict.fromkeys(
            ENGINE_TALLY + ("docs_scored", "postings_walked", "candidates",
                            "examined", "added", "segments", "tombstones"),
            0,
        )

    def run_pass(self, index: int, oplog: OpLog) -> dict:
        tally = self._tally()
        digests: list = []
        self.run_ops(self.ops, self.stores[index], oplog, tally, digests)
        return {"oplog": oplog, "tally": tally, "digests": digests}

    def replay_digests(self, seed: int, seconds: int, n_ops: int) -> list:
        """Replay the first ``n_ops`` operations of golden ``seed``'s
        ``seconds``-long run on an untouched corpus copy."""
        digests: list = []
        self.run_ops(self.make_ops(seed, seconds)[:n_ops],
                     self.replay_stores.pop(), OpLog(), self._tally(), digests)
        return digests

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def end_to_end(self, run: dict) -> dict:
        oplog = run["oplog"]
        scale = run["scale"]
        retrieves = oplog.latencies.get("retrieve", [])
        searches = oplog.latencies.get("search", [])
        return {
            "pairs_per_s": metric(
                run["tally"]["pairs"]
                / (oplog.class_seconds("search") * scale),
                "pairs/s", len(searches),
            ),
            "p50_ms": metric(
                1e3 * median(retrieves) * scale, "ms", len(retrieves)
            ),
        }

    def report_lines(self, run: dict) -> list:
        oplog = run["oplog"]
        tally = run["tally"]
        scale = run["scale"]
        lines = [
            f"inputs     {BASE_SCHEMAS} base schemas; "
            f"{class_counts(self.seconds)} operations; add batches of "
            f"{ADD_BATCH}",
        ]
        for kind, name in (("search", "search_p50_ms"),
                           ("retrieve", "retrieve_p50_ms"),
                           ("add", "add_p50_ms"),
                           ("remove", "remove_p50_ms")):
            samples = oplog.latencies.get(kind, [])
            if samples:
                lines.append(
                    f"metric {name:<16} "
                    f"{1e3 * median(samples) * scale:10.3f} ms "
                    f"(n={len(samples)})"
                )
        retrieves = oplog.latencies.get("retrieve", [])
        if tail_ok(len(retrieves), 95):
            lines.append(
                f"metric {'retrieve_p95_ms':<16} "
                f"{1e3 * percentile(retrieves, 95) * scale:10.3f} ms "
                f"(n={len(retrieves)})"
            )
        else:
            lines.append("metric retrieve_p95_ms   absent: fewer than 10 "
                         "samples beyond p95")
        lines.append(
            f"index      segments={tally['segments']} "
            f"tombstones={tally['tombstones']} added={tally['added']}"
        )
        return lines
