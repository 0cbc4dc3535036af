"""Two-stage top-k schema search: index retrieval + QMatch rerank.

Stage 1 (**retrieve**) asks the
:class:`~repro.corpus.segments.SegmentedCorpusIndex` for everything that
shares evidence with the query -- lexical token scores from the
postings, Jaccard estimates from the MinHash LSH buckets -- as aligned
arrays, blends them, and keeps a candidate shortlist: only the
candidates within the budget (ties at its cut included) become
:class:`SearchHit` objects, get a name and are sorted.  Cost is
proportional to the matching posting lists, not the corpus.

Stage 2 (**rerank**) runs the full hybrid QMatch engine on query ×
shortlist only, through the job state machine the batch service uses
(:class:`~repro.service.runner.BatchRunner` in process, or a
:class:`~repro.service.pool.WorkerPool` opened for the rerank when
``workers`` > 1; either hits the content-addressed result store when
one is attached), and orders hits by tree QoM.

The point: against an ``N``-schema corpus a search examines
``len(shortlist)`` expensive pairs instead of ``N`` -- the
``search.pruned`` counter and the ``search:retrieve`` /
``search:rerank`` stage timings in the result's
:class:`~repro.engine.stats.EngineStats` quantify exactly what was
skipped.  When the corpus is small (fewer entries than the candidate
budget) nothing is pruned and the ranking provably equals brute force.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.corpus.corpus import SchemaCorpus
from repro.corpus.segments import SegmentedCorpusIndex
from repro.engine.stats import EngineStats
from repro.obs.log import NULL_LOGGER
from repro.obs.spans import current_tracer
from repro.service.jobs import MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner
from repro.service.store import ResultStore, content_hash

#: Default number of hits a search returns.
DEFAULT_K = 10

#: Candidate-budget defaults: rerank at most max(k * OVERSAMPLE,
#: MIN_CANDIDATES) schemas.  Generous on small corpora (everything is
#: reranked -- exact brute-force ranking), a hard prune on large ones.
OVERSAMPLE = 3
MIN_CANDIDATES = 20


@dataclass
class SearchHit:
    """One ranked corpus schema."""

    hash: str
    name: str
    #: Blended stage-1 score (lexical cosine + structural Jaccard).
    retrieval_score: float
    lexical_score: float
    structural_score: float
    #: Full QMatch tree QoM; ``None`` when the hit was not reranked.
    qom: Optional[float] = None
    correspondences: Optional[int] = None
    reranked: bool = False
    error: Optional[str] = None
    #: Root-pair axis breakdown of the rerank (label/properties/level/
    #: children[/instance] floats); ``None`` when not reranked or the
    #: algorithm cannot explain itself.
    axes: Optional[dict] = None
    #: The full rerank result payload -- kept so constraint filtering can
    #: evaluate against complete evidence.  Deliberately not serialized.
    payload: Optional[dict] = None

    @property
    def score(self) -> float:
        """The hit's ranking score: QoM when reranked, else retrieval."""
        return self.qom if self.qom is not None else self.retrieval_score

    def as_dict(self) -> dict:
        return {
            "hash": self.hash,
            "name": self.name,
            "score": self.score,
            "retrieval_score": self.retrieval_score,
            "lexical_score": self.lexical_score,
            "structural_score": self.structural_score,
            "qom": self.qom,
            "axes": self.axes,
            "correspondences": self.correspondences,
            "reranked": self.reranked,
            "error": self.error,
        }


class Ranking(list):
    """Stage-1 hits, best-first.  ``candidates`` counts every document
    with index evidence; a budgeted retrieve lists only the kept ones."""

    candidates: int = 0


def _best(scores: np.ndarray, budget: Optional[int]) -> np.ndarray:
    """Positions of the ``budget`` highest scores and of every score
    tying the lowest of them (all positions without a budget or when
    ``budget`` covers them)."""
    if budget is None or len(scores) <= budget:
        return np.arange(len(scores))
    cut = len(scores) - budget
    return np.flatnonzero(scores >= np.partition(scores, cut)[cut])


@dataclass
class SearchResult:
    """The outcome of one top-k search."""

    query_name: str
    k: int
    hits: list = field(default_factory=list)
    corpus_size: int = 0
    #: Docs with any index evidence (stage-1 scoring work).
    candidates: int = 0
    #: Candidates dropped before the expensive stage.
    pruned: int = 0
    #: Full QMatch runs actually performed.
    examined: int = 0
    #: Constraint-filtering counters (``{"evaluated", "admitted",
    #: "filtered"}``) when a constraint was applied, else ``None``.
    constraints: Optional[dict] = None
    stats: EngineStats = field(default_factory=EngineStats)

    def as_dict(self, include_stats: bool = True) -> dict:
        payload = {
            "query": self.query_name,
            "k": self.k,
            "corpus_size": self.corpus_size,
            "candidates": self.candidates,
            "pruned": self.pruned,
            "examined": self.examined,
            "hits": [hit.as_dict() for hit in self.hits],
        }
        if self.constraints is not None:
            payload["constraints"] = self.constraints
        if include_stats:
            payload["stats"] = self.stats.as_dict()
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable ranking table plus the pruning summary."""
        from repro.evaluation.harness import render_table

        rows = []
        for rank, hit in enumerate(self.hits, start=1):
            rows.append((
                rank,
                hit.name,
                hit.hash[:12],
                f"{hit.qom:.4f}" if hit.qom is not None else "-",
                f"{hit.retrieval_score:.4f}",
                hit.correspondences if hit.correspondences is not None else "-",
                hit.error or "",
            ))
        table = render_table(
            ["rank", "schema", "hash", "QoM", "retrieval", "found", "note"],
            rows,
        )
        summary = (
            f"query {self.query_name!r}: {len(self.hits)} of top-{self.k} "
            f"over {self.corpus_size} schemas; {self.candidates} candidates, "
            f"{self.pruned} pruned, {self.examined} reranked with QMatch"
        )
        if self.constraints is not None:
            summary += (
                f"; constraints: {self.constraints['admitted']} admitted, "
                f"{self.constraints['filtered']} filtered"
            )
        return f"{table}\n{summary}"


class CorpusSearcher:
    """Retrieve-then-rerank top-k search over a :class:`SchemaCorpus`."""

    def __init__(self, corpus: SchemaCorpus, index: SegmentedCorpusIndex,
                 algorithm: str = "qmatch",
                 threshold: float = 0.5,
                 weights=None,
                 lexical_weight: float = 0.7,
                 scorer: str = "cosine",
                 workers: int = 1,
                 store: Optional[ResultStore] = None,
                 log=NULL_LOGGER):
        """``lexical_weight`` blends the stage-1 signals:
        ``score = lw * lexical + (1 - lw) * jaccard``, where the
        lexical side is ``scorer`` -- ``cosine`` (default) or ``bm25``
        (see :data:`~repro.corpus.indexes.LEXICAL_SCORERS`; both live
        in [0, 1]).  ``workers`` > 1 runs each rerank on a
        :class:`~repro.service.pool.WorkerPool` of that many processes,
        opened for that rerank (1 reranks in process, with matchers
        kept across searches); ``store`` makes reranks
        content-addressed-cacheable across searches.  ``log`` is an
        :class:`~repro.obs.log.EventLogger` that receives
        ``search.retrieve`` / ``search.rerank`` stage events (disabled
        by default).
        """
        from repro.corpus.indexes import LEXICAL_SCORERS

        if not 0.0 <= lexical_weight <= 1.0:
            raise ValueError(
                f"lexical_weight must be in [0, 1], got {lexical_weight}"
            )
        if scorer not in LEXICAL_SCORERS:
            raise ValueError(
                f"unknown scorer {scorer!r}: expected one of "
                f"{', '.join(LEXICAL_SCORERS)}"
            )
        self.corpus = corpus
        self.index = index
        self.algorithm = algorithm
        self.threshold = threshold
        self.weights = weights
        self.lexical_weight = lexical_weight
        self.scorer = scorer
        self.workers = workers
        self.store = store
        self.log = log

    # ------------------------------------------------------------------
    # Stage 1: index retrieval
    # ------------------------------------------------------------------

    def retrieve(self, query_tree, stats: Optional[EngineStats] = None,
                 budget: Optional[int] = None) -> Ranking:
        """Every candidate with index evidence, best-first.

        Union scoring: a schema appears when the inverted index *or*
        the LSH buckets surface it; the blended score rewards agreement
        between the two signals.  With a ``budget``, only the best
        ``budget`` candidates and every candidate tying the last of
        them become hits -- the head of the full ranking, in its order
        -- and ``candidates`` still counts them all.  Traced, the stage
        emits the ``corpus.retrieve`` span.
        """
        stats = stats if stats is not None else EngineStats()
        tracer = current_tracer()
        with stats.stage("search:retrieve", span="corpus.retrieve"):
            tracer.annotate({"corpus_size": len(self.corpus)})
            tokens, signature = self.index.query_features(query_tree)
            found = self.index.candidates(tokens, signature,
                                          scorer=self.scorer)
            scores = (
                self.lexical_weight * found.lexical
                + (1.0 - self.lexical_weight) * found.structural
            )
            kept = _best(scores, budget)
            hits = Ranking(
                SearchHit(
                    hash=doc_id,
                    name=self._name(doc_id),
                    retrieval_score=score,
                    lexical_score=lex,
                    structural_score=struct,
                )
                for doc_id, score, lex, struct in zip(
                    found.doc_ids[kept].tolist(), scores[kept].tolist(),
                    found.lexical[kept].tolist(),
                    found.structural[kept].tolist(),
                )
            )
            hits.candidates = len(scores)
            hits.sort(key=lambda hit: (-hit.retrieval_score, hit.name,
                                       hit.hash))
            if tracer.enabled:
                scan = self.index.last_scan
                tracer.annotate({"candidates": hits.candidates, **{
                    key: value for key, value in scan.items()
                    if value is not None
                }})
        return hits

    def _name(self, doc_id: str) -> str:
        try:
            return self.corpus.entry(doc_id).name
        except Exception:
            return doc_id[:12]

    # ------------------------------------------------------------------
    # Stage 2: QMatch rerank
    # ------------------------------------------------------------------

    def _rerank(self, query_xsd: str, query_hash: str, query_name: str,
                shortlist: list, stats: EngineStats,
                query_profiles: Optional[dict] = None):
        def entry_profile(doc_id):
            try:
                return self.corpus.entry(doc_id).profile or None
            except Exception:
                return None

        specs = [
            MatchJobSpec(
                source_xsd=query_xsd,
                target_xsd=self.corpus.text(hit.hash),
                algorithm=self.algorithm,
                threshold=self.threshold,
                weights=self.weights,
                label=f"{query_name}~{hit.name}",
                source_name=query_name,
                target_name=hit.name,
                source_hash=query_hash,
                target_hash=hit.hash,
                source_profiles=query_profiles,
                target_profiles=entry_profile(hit.hash),
            )
            for hit in shortlist
        ]
        log = self.log.child(stage="rerank")
        tracer = current_tracer()
        with stats.stage("search:rerank", span="corpus.rerank"):
            tracer.annotate({"examined": len(shortlist)})
            if self.workers == 1:
                report = BatchRunner(
                    store=self.store, retries=0, log=log,
                ).run(specs)
            else:
                with WorkerPool(
                    workers=self.workers, store=self.store, retries=0,
                    log=log,
                ) as pool:
                    report = pool.run(specs)
            for hit, record in zip(shortlist, report.records):
                hit.reranked = True
                if record.result is not None:
                    hit.payload = record.result
                    hit.qom = record.result.get("tree_qom")
                    hit.axes = record.result.get("root_axes")
                    hit.correspondences = len(
                        record.result.get("correspondences", ())
                    )
                else:
                    hit.error = (record.error or {}).get(
                        "message", "rerank failed"
                    )
            tracer.annotate({
                "errors": sum(1 for hit in shortlist if hit.error),
            })
        stats.merge(report.stats)

    # ------------------------------------------------------------------
    # The search entry point
    # ------------------------------------------------------------------

    def search(self, query_tree, k: int = DEFAULT_K,
               candidates: Optional[int] = None,
               rerank: bool = True,
               query_profiles: Optional[dict] = None,
               constraint=None) -> SearchResult:
        """Top-``k`` corpus schemas for ``query_tree``.

        ``candidates`` caps the expensive stage (default
        ``max(OVERSAMPLE * k, MIN_CANDIDATES)``); ``rerank=False``
        returns the pure index ranking (no QMatch runs at all).
        ``query_profiles`` are instance-evidence profiles for the query
        schema (``{node_path: profile_dict}``), forwarded -- together
        with each corpus entry's stored profiles -- into the rerank jobs
        so a nonzero ``instance`` weight can use them.  ``constraint``
        (a parsed :class:`repro.constraints.Constraint`) filters the
        reranked shortlist *before* the top-``k`` cut: only hits whose
        full match evidence satisfies it are admitted, so the result may
        legitimately hold fewer than ``k`` hits.
        """
        from repro.xsd.serializer import to_xsd

        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if candidates is not None and candidates < 1:
            raise ValueError(f"candidates must be >= 1, got {candidates}")
        if constraint is not None and not rerank:
            raise ValueError(
                "constraint filtering needs rerank evidence; "
                "drop --no-rerank or the constraint"
            )
        stats = EngineStats()
        budget = (
            candidates if candidates is not None
            else max(OVERSAMPLE * k, MIN_CANDIDATES)
        )
        ranked = self.retrieve(query_tree, stats=stats, budget=budget)
        shortlist = ranked[:budget]
        pruned = ranked.candidates - len(shortlist)
        if len(shortlist) < budget:
            # The index surfaced fewer candidates than we can afford to
            # rerank: spend the leftover budget on zero-evidence entries
            # (deterministic order).  On corpora smaller than the budget
            # this makes the rerank exhaustive -- a recall floor that
            # guarantees parity with brute force -- while large corpora
            # still prune everything past the budget.
            seen = {hit.hash for hit in shortlist}
            for entry in self.corpus.entries():
                if len(shortlist) >= budget:
                    break
                if entry.hash in seen:
                    continue
                shortlist.append(SearchHit(
                    hash=entry.hash, name=entry.name,
                    retrieval_score=0.0, lexical_score=0.0,
                    structural_score=0.0,
                ))
        stats.count("search.corpus-size", len(self.corpus))
        stats.count("search.candidates", ranked.candidates)
        stats.count("search.pruned", pruned)
        self.log.event(
            "search.retrieve",
            query=query_tree.name,
            corpus_size=len(self.corpus),
            candidates=ranked.candidates,
            shortlist=len(shortlist),
            pruned=pruned,
            seconds=round(stats.stage_seconds("search:retrieve"), 6),
        )
        result = SearchResult(
            query_name=query_tree.name,
            k=k,
            corpus_size=len(self.corpus),
            candidates=ranked.candidates,
            pruned=pruned,
            stats=stats,
        )
        if rerank and shortlist:
            query_xsd = to_xsd(query_tree)
            self._rerank(
                query_xsd, content_hash(query_xsd), query_tree.name,
                shortlist, stats, query_profiles=query_profiles,
            )
            result.examined = len(shortlist)
            stats.count("search.reranked", len(shortlist))
            self.log.event(
                "search.rerank",
                query=query_tree.name,
                examined=len(shortlist),
                errors=sum(1 for hit in shortlist if hit.error),
                seconds=round(stats.stage_seconds("search:rerank"), 6),
            )
            shortlist.sort(
                key=lambda hit: (-(hit.qom if hit.qom is not None else -1.0),
                                 -hit.retrieval_score, hit.name, hit.hash)
            )
            if constraint is not None:
                shortlist = self._constrain(
                    query_tree, shortlist, constraint, result, stats
                )
        result.hits = shortlist[:k]
        return result

    def _constrain(self, query_tree, shortlist: list, constraint,
                   result: SearchResult, stats: EngineStats) -> list:
        """Admit only reranked hits whose evidence satisfies ``constraint``.

        Hits whose rerank errored carry no evidence and are filtered --
        a gate must not admit what it cannot verify.
        """
        from repro.constraints import MatchEvidence, evaluate_constraint
        from repro.xsd.parser import parse_xsd

        tracer = current_tracer()
        admitted = []
        filtered = 0
        with stats.stage("search:constrain", span="constraints.filter"):
            tracer.annotate({"evaluated": len(shortlist)})
            for hit in shortlist:
                if hit.payload is None:
                    filtered += 1
                    continue
                target_tree = parse_xsd(
                    self.corpus.text(hit.hash), name=hit.name
                )
                evidence = MatchEvidence.from_payload(
                    hit.payload, source_tree=query_tree,
                    target_tree=target_tree,
                )
                if evaluate_constraint(constraint, evidence).passed:
                    admitted.append(hit)
                else:
                    filtered += 1
            tracer.annotate({"admitted": len(admitted), "filtered": filtered})
        stats.count("search.constraint_admitted", len(admitted))
        stats.count("search.constraint_filtered", filtered)
        result.constraints = {
            "evaluated": len(shortlist),
            "admitted": len(admitted),
            "filtered": filtered,
        }
        self.log.event(
            "search.constrain", query=query_tree.name,
            evaluated=len(shortlist), admitted=len(admitted),
            filtered=filtered,
        )
        return admitted
