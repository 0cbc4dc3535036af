"""Per-stage instrumentation for the match engine.

:class:`EngineStats` is the single instrumentation object threaded
through a :class:`~repro.engine.context.MatchContext`: every matcher
stage records its wall time under a named stage, hot-path caches record
hit/miss counters, and matchers bump pair counters.  The result surfaces
on :class:`~repro.matching.result.MatchResult.stats` and behind the CLI
``--stats`` flag, and is the hook later sharding/async/batching work
reports through.

Stages nest (``score:qmatch`` may run inside ``evaluate:PO``); nested
time is attributed to every active stage, which keeps the report
readable ("how long did selection take?") without building a profiler.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.obs.spans import StageClock


@dataclass
class StageStats:
    """Accumulated wall time of one named engine stage."""

    name: str
    calls: int = 0
    seconds: float = 0.0

    def add(self, elapsed: float):
        self.calls += 1
        self.seconds += elapsed


@dataclass
class CacheStats:
    """Hit/miss counters of one named engine cache."""

    name: str
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class EngineStats:
    """Wall time per stage, pair counts and cache hit/miss counters.

    One instance lives on each :class:`MatchContext`; sharing a context
    across matchers (the composite, or a harness run) accumulates into
    the same object, so the report covers the whole pipeline.
    """

    def __init__(self):
        self.stages: dict[str, StageStats] = {}
        self.caches: dict[str, CacheStats] = {}
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, span: Optional[str] = None):
        """Time a block of work under ``name`` (re-entrant per name).

        The stage is registered on *entry*, so reports render stages in
        pipeline order (an outer stage appears before the inner stages
        it wraps) rather than completion order.  A traced stage emits
        the span named ``span`` from its own clock readings.
        """
        stage = self.stages.get(name)
        if stage is None:
            stage = self.stages[name] = StageStats(name)
        clock = StageClock(span)
        try:
            with clock:
                yield self
        finally:
            stage.add(clock.seconds)

    def count(self, name: str, amount: int = 1):
        """Bump a free-form counter (pair counts, node counts, ...)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def cache(self, name: str) -> CacheStats:
        """The hit/miss record of cache ``name`` (created on first use)."""
        stats = self.caches.get(name)
        if stats is None:
            stats = self.caches[name] = CacheStats(name)
        return stats

    def record_hit(self, cache_name: str):
        (self.caches.get(cache_name) or self.cache(cache_name)).hits += 1

    def record_miss(self, cache_name: str):
        (self.caches.get(cache_name) or self.cache(cache_name)).misses += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def stage_seconds(self, name: str) -> float:
        stage = self.stages.get(name)
        return stage.seconds if stage else 0.0

    def hit_rate(self, cache_name: str) -> float:
        """Hit rate of one cache; 0.0 for an unknown or unused cache."""
        stats = self.caches.get(cache_name)
        return stats.hit_rate if stats else 0.0

    def total_cache_hit_rate(self) -> float:
        """Hit rate over every engine cache combined."""
        hits = sum(c.hits for c in self.caches.values())
        lookups = sum(c.lookups for c in self.caches.values())
        return hits / lookups if lookups else 0.0

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold ``other``'s numbers into this instance (and return it)."""
        for name, stage in other.stages.items():
            mine = self.stages.get(name)
            if mine is None:
                mine = self.stages[name] = StageStats(name)
            mine.calls += stage.calls
            mine.seconds += stage.seconds
        for name, cache in other.caches.items():
            mine = self.cache(name)
            mine.hits += cache.hits
            mine.misses += cache.misses
        for name, value in other.counters.items():
            self.count(name, value)
        return self

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        """Rebuild an instance from an :meth:`as_dict` snapshot.

        The cross-process aggregation hook: batch-service workers return
        their stats as plain dicts over a pipe, and the parent folds
        them back into one report via ``stats.merge(EngineStats.from_dict(d))``.
        """
        stats = cls()
        for name, entry in (payload.get("stages") or {}).items():
            stage = stats.stages[name] = StageStats(name)
            stage.calls = int(entry.get("calls", 0))
            stage.seconds = float(entry.get("seconds", 0.0))
        for name, entry in (payload.get("caches") or {}).items():
            cache = stats.cache(name)
            cache.hits = int(entry.get("hits", 0))
            cache.misses = int(entry.get("misses", 0))
        for name, value in (payload.get("counters") or {}).items():
            stats.counters[name] = int(value)
        return stats

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of everything recorded."""
        return {
            "stages": {
                name: {"calls": s.calls, "seconds": s.seconds}
                for name, s in self.stages.items()
            },
            "caches": {
                name: {
                    "hits": c.hits,
                    "misses": c.misses,
                    "hit_rate": c.hit_rate,
                }
                for name, c in self.caches.items()
            },
            "counters": dict(self.counters),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Machine-readable snapshot (``--stats --format json``)."""
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable report (what ``qmatch match --stats`` prints)."""
        lines = ["engine stats"]
        if self.stages:
            lines.append("  stages:")
            for stage in self.stages.values():
                lines.append(
                    f"    {stage.name:<24} {stage.seconds * 1000.0:9.2f} ms"
                    f"  ({stage.calls} call{'s' if stage.calls != 1 else ''})"
                )
        if self.caches:
            lines.append("  caches:")
            for cache in self.caches.values():
                lines.append(
                    f"    {cache.name:<24} {cache.hits} hit / "
                    f"{cache.misses} miss  ({cache.hit_rate:.1%} hit rate)"
                )
        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                lines.append(f"    {name:<24} {self.counters[name]}")
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"<EngineStats stages={len(self.stages)} "
            f"caches={len(self.caches)} counters={len(self.counters)}>"
        )
