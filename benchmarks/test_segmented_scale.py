"""Segmented index at corpus scale: 100k synthetic schemas.

Not a paper experiment -- this proves the PR-8 segmented corpus layer's
scaling contract on a corpus derived byte-for-byte from one master seed
(:data:`repro.xsd.generator.CORPUS_MASTER_SEED`):

- **incremental adds are corpus-size independent**: each ``add_batch``
  seals one new segment without loading any sealed one, so the traced
  allocation peak of a late batch matches an early batch (< 2x
  asserted) and every segment stays cold (zero payload bytes) until
  the first query;
- **budgeted retrieval is sublinear**: full-scan lexical retrieval
  touches nearly every document at any scale (the tokenizer splits
  compound labels into a small set of shared stems -- posting lists
  are dense by construction), but the candidate-admission budget
  (``max_candidates``: LSH band candidates + rarest-token postings)
  scores a roughly constant set, so the scanned *fraction* shrinks as
  the corpus grows (asserted across the size ladder);
- **budget mode keeps the answer**: on a 1k subsample, the full-scan
  top-10 ids AND scores of a 4-segment index are byte-identical to a
  single-segment build for both scorers, and budgeted recall@10
  against that exact answer is reported (and asserted >= 0.8 for
  cosine).

Defaults to a 2k corpus; CI runs ``QMATCH_SEGSCALE_N=5000``, and the
committed ``results/segmented_scale*.txt`` come from
``QMATCH_SEGSCALE_N=4000``.  The generator keeps sibling names unique,
so the master corpus generates at every size checked: 5k, 8k, 10k, 25k
and 100k.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import tracemalloc

import pytest

from repro.corpus import IndexConfig, SegmentedCorpusIndex
from repro.xsd.generator import (
    CORPUS_MASTER_SEED,
    SchemaGenerator,
    synthetic_corpus_configs,
)

from conftest import write_result

TOTAL = int(os.environ.get("QMATCH_SEGSCALE_N", "2000"))
BATCH = max(250, TOTAL // 200)
BUDGET = 128
N_QUERIES = 8
N_SUBSAMPLE = min(1000, TOTAL)
N_PARITY_QUERIES = 20
CONFIG = IndexConfig(use_thesaurus=False)


def corpus_trees(start: int, stop: int):
    """``(doc_id, tree)`` pairs ``start..stop`` of the master corpus."""
    configs = itertools.islice(
        synthetic_corpus_configs(TOTAL, master_seed=CORPUS_MASTER_SEED),
        start, stop,
    )
    return [
        (config.root_name, SchemaGenerator(config).generate())
        for config in configs
    ]


def checkpoint_batches(n_batches: int) -> list:
    """Batch indices after which to measure: a ~4-point size ladder."""
    return sorted({
        max(1, math.ceil(n_batches / 64)),
        max(1, math.ceil(n_batches / 16)),
        max(1, math.ceil(n_batches / 4)),
        n_batches,
    })


def measure_retrieval(index, features, budget):
    """Mean retrieve latency + scan telemetry at one corpus size."""
    index.max_candidates = budget
    try:
        # Warm up once so lazy segment loading is not billed to a query.
        index.retrieve_scores(features[0][0], features[0][1])
        latencies, scored, walked = [], 0, 0
        for query_tokens, signature in features:
            start = time.perf_counter()
            index.retrieve_scores(query_tokens, signature)
            latencies.append(time.perf_counter() - start)
            scored += index.last_scan["docs_scored"]
            walked += index.last_scan["postings_walked"]
        live = index.last_scan["live_docs"]
        return {
            "ms": 1e3 * sum(latencies) / len(latencies),
            "docs_scored": scored / len(features),
            "postings_walked": walked / len(features),
            "fraction": (scored / len(features)) / live,
            "live": live,
        }
    finally:
        index.max_candidates = None


def test_scale_constant_memory_adds_and_sublinear_budget(tmp_path):
    index = SegmentedCorpusIndex(
        tmp_path / "segments", config=CONFIG, auto_compact=False
    )
    n_batches = math.ceil(TOTAL / BATCH)
    checkpoints = checkpoint_batches(n_batches)
    traced = set(range(1, 5)) | set(range(n_batches - 4, n_batches + 1))

    # The same queries at every corpus size: schemas from the first
    # checkpoint's prefix, so each query's own document is always live.
    query_span = checkpoints[0] * BATCH
    query_indices = [
        round(position * (query_span - 1) / (N_QUERIES - 1))
        for position in range(N_QUERIES)
    ]
    features = None

    peaks = {}
    add_seconds = 0.0
    full_runs, budget_runs = [], []
    queries_ran = False
    for batch in range(1, n_batches + 1):
        trees = corpus_trees((batch - 1) * BATCH, min(batch * BATCH, TOTAL))
        if batch in traced:
            tracemalloc.start()
        start = time.perf_counter()
        index.add_batch(trees)
        add_seconds += time.perf_counter() - start
        if batch in traced:
            peaks[batch] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if batch not in checkpoints:
            continue
        if not queries_ran:
            # Sealing N batches never touched a sealed payload: every
            # segment is still cold until the first retrieval below.
            assert all(
                segment.bytes_loaded == 0 for segment in index.segments()
            )
            queries_ran = True
            features = [
                (index.query_tokens(tree), index.query_signature(tree))
                for _, tree in corpus_trees(0, query_span)
            ]
            features = [features[i] for i in query_indices]
        full_run = measure_retrieval(index, features, None)
        full_run["segments"] = index.segment_count
        full_runs.append(full_run)
        budget_runs.append(measure_retrieval(index, features, BUDGET))

    early_peak = max(peaks[batch] for batch in sorted(peaks)[1:4])
    late_peak = max(peaks[batch] for batch in sorted(peaks)[-3:])

    rows = [
        f"{full['live']:>8}  {full['segments']:>4}     "
        f"{full['ms']:>8.1f}  {full['fraction']:>7.1%}   "
        f"{budget['ms']:>8.2f}  {budget['docs_scored']:>7.0f}  "
        f"{budget['fraction']:>8.2%}"
        for full, budget in zip(full_runs, budget_runs)
    ]
    write_result(
        "segmented_scale",
        f"Segmented index scale ({TOTAL} synthetic schemas, "
        f"seed {CORPUS_MASTER_SEED})",
        "\n".join([
            f"corpus           : {TOTAL} schemas, 24 nodes / depth 4 each, "
            f"batches of {BATCH}",
            f"index            : {index.segment_count} segments, "
            f"num_perm={CONFIG.num_perm}, bands={CONFIG.bands}, "
            f"thesaurus off",
            f"build            : {add_seconds:.1f}s total add_batch time "
            f"({TOTAL / add_seconds:.0f} docs/s)",
            f"add memory       : early batch peak "
            f"{early_peak / 1e6:.1f} MB, late batch peak "
            f"{late_peak / 1e6:.1f} MB "
            f"({late_peak / early_peak:.2f}x; corpus-size independent)",
            f"queries          : {N_QUERIES} self-retrievals, cosine, "
            f"budget={BUDGET}",
            "",
            "       N  segs  full-scan ms  scanned  budget ms   scored"
            "  scanned",
            *rows,
            "",
            "full-scan posting lists are dense by construction (compound"
            " labels",
            "share base stems), so sublinearity comes from the admission"
            " budget:",
            "the scored fraction falls as the corpus grows while the"
            " admitted",
            "set stays roughly constant.",
        ]),
    )

    # Incremental indexing memory does not grow with the corpus.
    assert late_peak < 2.0 * early_peak
    # The budgeted scan fraction shrinks as the corpus grows.
    assert len(budget_runs) >= 2
    assert budget_runs[-1]["fraction"] < budget_runs[0]["fraction"]
    # The admitted set itself stays far below linear growth: going from
    # the first ladder point to the last multiplies the corpus by
    # len(ladder) steps of ~4x but the scored set by far less.
    growth = budget_runs[-1]["docs_scored"] / budget_runs[0]["docs_scored"]
    size_growth = budget_runs[-1]["live"] / budget_runs[0]["live"]
    assert growth < size_growth / 2


def ranked(scores: dict) -> list:
    """Top-10 ``(doc_id, score)`` with the searcher's tie-break order."""
    return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))[:10]


def test_subsample_parity_and_budget_recall(tmp_path):
    trees = corpus_trees(0, N_SUBSAMPLE)

    single = SegmentedCorpusIndex(
        tmp_path / "single", config=CONFIG, auto_compact=False
    )
    single.add_batch(trees)
    segmented = SegmentedCorpusIndex(
        tmp_path / "segments", config=CONFIG, auto_compact=False
    )
    quarter = math.ceil(len(trees) / 4)
    for start in range(0, len(trees), quarter):
        segmented.add_batch(trees[start:start + quarter])
    assert segmented.segment_count > 1
    assert segmented.document_count == single.document_count

    query_indices = [
        round(position * (N_SUBSAMPLE - 1) / (N_PARITY_QUERIES - 1))
        for position in range(N_PARITY_QUERIES)
    ]
    recalls = {"cosine": [], "bm25": []}
    for query_index in query_indices:
        _, tree = trees[query_index]
        query_tokens = segmented.query_tokens(tree)
        signature = segmented.query_signature(tree)
        for scorer in ("cosine", "bm25"):
            single_scores, single_candidates = single.retrieve_scores(
                query_tokens, signature, scorer=scorer
            )
            seg_scores, seg_candidates = segmented.retrieve_scores(
                query_tokens, signature, scorer=scorer
            )
            full_top = ranked(seg_scores)
            # Ids AND scores byte-identical to the single-segment build.
            assert full_top == ranked(single_scores)
            assert seg_candidates == single_candidates

            segmented.max_candidates = BUDGET
            try:
                budget_scores, _ = segmented.retrieve_scores(
                    query_tokens, signature, scorer=scorer
                )
            finally:
                segmented.max_candidates = None
            expected = {doc_id for doc_id, _ in full_top}
            got = {doc_id for doc_id, _ in ranked(budget_scores)}
            recalls[scorer].append(len(got & expected) / len(expected))

    mean = {
        scorer: sum(values) / len(values)
        for scorer, values in recalls.items()
    }
    write_result(
        "segmented_scale_parity",
        f"Multi-segment vs single-segment parity ({N_SUBSAMPLE}-schema "
        "subsample)",
        "\n".join([
            f"subsample          : first {N_SUBSAMPLE} of the "
            f"{TOTAL}-schema corpus, {segmented.segment_count} segments",
            f"queries            : {N_PARITY_QUERIES} self-retrievals, "
            f"both scorers",
            "full-scan top-10   : ids AND scores identical to a "
            "single-segment build (asserted)",
            f"budget recall@10   : cosine {mean['cosine']:.3f}, "
            f"bm25 {mean['bm25']:.3f} (budget {BUDGET})",
        ]),
    )
    assert mean["cosine"] >= 0.8


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
