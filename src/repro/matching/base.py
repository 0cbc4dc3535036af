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

    Subclasses implement :meth:`match_context`, which gets the shared
    engine context; :meth:`match` adds the shared
    correspondence-selection step so the evaluation harness, the
    benchmarks and the CLI can drive any matcher identically.
    """

    #: Short algorithm name used in reports ("linguistic", "qmatch", ...).
    name = "matcher"

    #: Selection strategy used when :meth:`match` gets ``strategy=None``.
    #: Flat greedy for the baselines; QMatch overrides this with
    #: "hierarchical" (it is a tree algorithm -- parent context is part
    #: of its contribution, and must not leak into the baselines).
    default_strategy = "greedy"

    #: The label and property services a standalone run's context uses;
    #: ``None`` leaves the context its default instances.  A matcher
    #: built on a configured service (a custom thesaurus, a tuned
    #: property config) sets it, so the context's memos serve *its*
    #: comparisons.
    linguistic = None
    property_matcher = None

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def make_context(self, source: SchemaTree, target: SchemaTree,
                     tracer=None):
        """Build the :class:`MatchContext` a standalone run uses, on this
        matcher's :attr:`linguistic` and :attr:`property_matcher`.

        ``tracer`` (a :class:`repro.obs.trace.TraceRecorder`) turns on
        per-pair decision tracing for matchers that support it.
        """
        from repro.engine.context import MatchContext

        return MatchContext(
            source, target, linguistic=self.linguistic,
            property_matcher=self.property_matcher, tracer=tracer,
        )

    @abc.abstractmethod
    def match_context(self, context) -> ScoreMatrix:
        """Score every pair using the shared ``context``."""

    # ------------------------------------------------------------------
    # Classic two-tree protocol
    # ------------------------------------------------------------------

    def score_matrix(self, source: SchemaTree, target: SchemaTree) -> ScoreMatrix:
        """Score every (source node, target node) pair."""
        return self.match_context(self.make_context(source, target))

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
        (possibly shared) :class:`MatchContext`; when omitted a fresh one
        is created.  The context's :class:`EngineStats` lands on
        :attr:`MatchResult.stats`.
        """
        ctx = context if context is not None else self.make_context(source, target)
        stats = ctx.stats
        with stats.stage(f"score:{self.name}"):
            matrix = self.match_context(ctx)
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
