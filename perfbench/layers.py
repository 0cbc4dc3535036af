"""Per-layer call counts and self time, measured from outside ``src/``.

:class:`LayerTracer` wraps public functions and methods of the
library's modules (``xsd``, ``linguistic``, ``properties``, ``core``,
``matching``, ``constraints``, ``corpus``, ``service``) for the length
of one traced pass, then restores them.  Each wrapper is a span: it
counts the call and adds its duration minus the time of nested traced
spans to its own *self* time, so a layer's ``self_ms`` excludes the
layers it calls.  Module-level functions are replaced in every
``repro`` module that imported them by name; methods are replaced on
their class.

Spans live on one stack, so the tracer serves single-threaded callers
only (the in-process workloads).
"""

from __future__ import annotations

import importlib
import sys
import time

#: ``(span name, module, attribute, class name or None)`` boundaries.
#: The ``service.execute`` span marks the job body so the batch
#: runner's self time is ``BatchRunner.run`` minus the jobs it runs.
BOUNDARIES = (
    ("xsd.parse", "repro.xsd.parser", "parse_xsd", None),
    ("xsd.serialize", "repro.xsd.serializer", "to_xsd", None),
    ("linguistic.compare", "repro.linguistic.matcher", "compare_labels",
     "LinguisticMatcher"),
    ("properties.compare", "repro.properties.matcher", "compare",
     "PropertyMatcher"),
    ("core.score", "repro.core.qmatch", "match_context", "QMatchMatcher"),
    ("matching.select", "repro.matching.selection",
     "select_correspondences", None),
    ("matching.payload", "repro.matching.io", "result_to_payload", None),
    ("constraints.attach_axes", "repro.constraints.evidence",
     "attach_result_axes", None),
    ("corpus.retrieve", "repro.corpus.search", "retrieve", "CorpusSearcher"),
    ("corpus.add", "repro.corpus.segments", "add_batch",
     "SegmentedCorpusIndex"),
    ("corpus.compact", "repro.corpus.segments", "compact",
     "SegmentedCorpusIndex"),
    ("corpus.store_add", "repro.corpus.corpus", "add_many", "SchemaCorpus"),
    ("service.runner", "repro.service.runner", "run", "BatchRunner"),
    ("service.execute", "repro.service.runner", "_execute_inline",
     "BatchRunner"),
)


class LayerTracer:
    """Counts calls and accumulates self time per boundary span."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_seconds: dict[str, float] = {}
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        calls = self.calls
        self_seconds = self.self_seconds
        stack = self._stack
        clock = time.perf_counter
        calls.setdefault(name, 0)
        self_seconds.setdefault(name, 0.0)

        def span(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                calls[name] += 1
                self_seconds[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return span

    def install(self):
        """Wrap every boundary (undone by :meth:`uninstall`)."""
        for name, module_name, attr, class_name in BOUNDARIES:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name != "repro" and not other_name.startswith(
                    "repro."
                ):
                    continue
                if getattr(other, attr, None) is original:
                    setattr(other, attr, wrapper)
                    self._restore.append((other, attr, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def self_ms(self, name: str) -> float:
        return 1e3 * self.self_seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)
