"""The matcher protocol all algorithms implement.

Since the engine refactor every matcher scores through a shared
:class:`~repro.engine.context.MatchContext`: :meth:`Matcher.match_context`
receives the context (precomputed node lists, memoized label/property
comparisons, instrumentation) and returns a
:class:`~repro.matching.result.ScoreMatrix`.  The classic two-tree entry
points (:meth:`score_matrix`, :meth:`match`) remain and simply build a
context first -- callers that match one pair with several matchers (the
composite, the evaluation harness) build one context and pass it to each
matcher so per-node work is shared.
"""

from __future__ import annotations

import abc

from repro.matching.result import MatchResult, ScoreMatrix
from repro.matching.selection import DEFAULT_THRESHOLD, select_correspondences
from repro.xsd.model import SchemaTree


class Matcher(abc.ABC):
    """Common shape of every match algorithm in the library.

    Subclasses implement :meth:`match_context` (preferred -- it gets the
    shared engine context) or legacy :meth:`score_matrix`;
    :meth:`match` adds the shared correspondence-selection step so the
    evaluation harness, the benchmarks and the CLI can drive any matcher
    identically.
    """

    #: Short algorithm name used in reports ("linguistic", "qmatch", ...).
    name = "matcher"

    #: Selection strategy used when :meth:`match` gets ``strategy=None``.
    #: Flat greedy for the baselines; QMatch overrides this with
    #: "hierarchical" (it is a tree algorithm -- parent context is part
    #: of its contribution, and must not leak into the baselines).
    default_strategy = "greedy"

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def make_context(self, source: SchemaTree, target: SchemaTree,
                     stats=None, cache_enabled: bool = True, tracer=None):
        """Build the :class:`MatchContext` a standalone run uses.

        Matchers carrying configured services (a custom thesaurus, a
        tuned property config) override this to inject them, so the
        context's shared caches serve *their* comparisons.  ``tracer``
        (a :class:`repro.obs.trace.TraceRecorder`) turns on per-pair
        decision tracing for matchers that support it.
        """
        from repro.engine.context import MatchContext

        return MatchContext(
            source, target, stats=stats, cache_enabled=cache_enabled,
            tracer=tracer,
        )

    def match_context(self, context) -> ScoreMatrix:
        """Score every pair using the shared ``context``.

        The engine-native entry point; every in-library matcher
        implements it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither match_context "
            "nor score_matrix"
        )

    def score_with_context(self, context) -> ScoreMatrix:
        """Score through ``context``, tolerating legacy subclasses.

        A subclass that predates the engine and only overrides
        :meth:`score_matrix` is driven through that; everything else
        goes through :meth:`match_context`.
        """
        if type(self).match_context is Matcher.match_context:
            if type(self).score_matrix is Matcher.score_matrix:
                raise NotImplementedError(
                    f"{type(self).__name__} implements neither "
                    "match_context nor score_matrix"
                )
            return self.score_matrix(context.source, context.target)
        return self.match_context(context)

    # ------------------------------------------------------------------
    # Classic two-tree protocol
    # ------------------------------------------------------------------

    def score_matrix(self, source: SchemaTree, target: SchemaTree) -> ScoreMatrix:
        """Score every (source node, target node) pair."""
        return self.score_with_context(self.make_context(source, target))

    # ------------------------------------------------------------------
    # Memory kept across matches
    # ------------------------------------------------------------------

    def resident_entries(self) -> int:
        """Entries in the memos this instance keeps from one match to
        the next.

        A matcher kept across jobs
        (:class:`~repro.service.runner.ResidentMatchers`) is dropped once
        this passes a fixed cap.  Matchers that memoize on the instance
        override it to count every such memo; the rest hold none.
        """
        return 0

    # ------------------------------------------------------------------
    # Configuration identity
    # ------------------------------------------------------------------

    def config_signature(self) -> dict:
        """JSON-friendly description of everything that shapes scores.

        Matchers with tunable configuration (QMatch's weights and
        fidelity switches) override this so two differently-configured
        instances produce different :meth:`fingerprint` values; the base
        implementation identifies the algorithm alone.
        """
        return {"algorithm": self.name}

    def fingerprint(self, threshold=DEFAULT_THRESHOLD, strategy=None) -> str:
        """Stable short hash of (config, threshold, selection strategy).

        This is the config component of the service result-store key
        and the ``config_fingerprint`` stamped on every
        :class:`MatchResult`: equal fingerprints mean a re-run would
        reproduce the stored result bit for bit.
        """
        from repro.matching.io import config_fingerprint

        signature = self.config_signature()
        signature["threshold"] = threshold
        signature["strategy"] = strategy or self.default_strategy
        return config_fingerprint(signature)

    def match(self, source: SchemaTree, target: SchemaTree,
              threshold=DEFAULT_THRESHOLD, strategy=None,
              context=None) -> MatchResult:
        """Run the matcher end to end and return a :class:`MatchResult`.

        ``strategy=None`` (the default) uses the matcher's own
        :attr:`default_strategy`.  ``context`` may carry a prebuilt
        (possibly shared, possibly warm) :class:`MatchContext`; when
        omitted a fresh one is created.  The context's
        :class:`EngineStats` lands on :attr:`MatchResult.stats`.
        """
        ctx = context if context is not None else self.make_context(source, target)
        stats = ctx.stats
        with stats.stage(f"score:{self.name}"):
            matrix = self.score_with_context(ctx)
        strategy = strategy or self.default_strategy
        with stats.stage(f"select:{self.name}"):
            correspondences = select_correspondences(
                matrix,
                strategy=strategy,
                threshold=threshold,
                categories=matrix.categories,
            )
        return MatchResult(
            algorithm=self.name,
            matrix=matrix,
            correspondences=correspondences,
            tree_qom=matrix.get(source.root, target.root),
            strategy=strategy,
            stats=stats,
            config_fingerprint=self.fingerprint(threshold, strategy),
            trace=ctx.tracer if ctx.tracer.enabled else None,
        )
