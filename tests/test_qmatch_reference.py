"""Traces, ``explain`` and incremental re-matching equal the frozen
scalar reference.

Every QMatch run scores through the block path and builds its trace
spans, ``explain`` rows and incrementally rescored rows from the grids
that run holds; :mod:`tests.qmatch_reference` keeps the scalar per-pair
loop those used to run.  These tests compare the two on generated,
mutated schema pairs under every golden configuration and with
``record_categories`` off:

- the trace JSON lines, byte for byte, including the ``cache``
  provenance of every axis, on fresh contexts, on contexts a
  :class:`LinguisticMatcher` or Cupid run filled first, with one
  recorder reused for two runs, and with documentation texts equal to
  node names;
- ``explain`` rows of every correspondence and of the root pair;
- incremental matrices (by ``repr``), and that an incremental run makes
  no more ``compare_labels`` calls than the reference's;
- the error message of a QoM outside [0, 1].  What a recorder holds
  after such an error is not pinned: the reference records the spans
  before the bad pair, the block path records none.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import QMatchConfig
from repro.core.qmatch import QMatchMatcher
from repro.cupid.matcher import CupidMatcher
from repro.linguistic.matcher import LinguisticMatcher
from repro.matching.incremental import incremental_qmatch
from repro.obs.trace import TraceRecorder
from tests import qmatch_reference
from tests.qmatch_golden import CONFIGS, _explain_row, load_pair, make_config
from tests.test_block_scoring import (
    _BrokenProperties,
    outputs,
    prepare,
    schema_pairs,
)

#: The golden configurations plus ``record_categories`` off.
VARIANTS = CONFIGS + ("no_categories",)

SETTINGS = settings(max_examples=10, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def make_matcher(variant, linguistic=None):
    config = (QMatchConfig(record_categories=False)
              if variant == "no_categories" else make_config(variant))
    return QMatchMatcher(config=config, linguistic=linguistic)


def prepared(pair, variant):
    source, target = pair
    prepare(source, target, variant)
    return source, target


def traced(run, matcher, source, target, recorder=None, warm=None):
    """``run`` (the shipped or reference ``match_context``) on a fresh
    traced context, after ``warm(ctx)``; returns (matrix, JSON lines)."""
    if recorder is None:
        recorder = TraceRecorder(run_id="reference")
    ctx = matcher.make_context(source, target, tracer=recorder)
    if warm is not None:
        warm(ctx)
    matrix = run(ctx)
    return matrix, recorder.to_jsonl()


def shipped(matcher):
    return matcher.match_context


def reference(matcher):
    return lambda ctx: qmatch_reference.match_context(matcher, ctx)


def assert_traces_equal(matcher, source, target, warm=None):
    block, block_trace = traced(shipped(matcher), matcher, source, target,
                                warm=warm)
    scalar, scalar_trace = traced(reference(matcher), matcher, source,
                                  target, warm=warm)
    assert outputs(block) == outputs(scalar)
    assert block_trace == scalar_trace


def explain_rows(explain, matcher, source, target):
    """``explain`` of every correspondence with the run's matrix and
    context, then of the root pair from scratch."""
    ctx = matcher.make_context(source, target)
    result = matcher.match(source, target, context=ctx)
    rows = [
        _explain_row(explain(matcher, source, target, c.source_path,
                             c.target_path, matrix=result.matrix,
                             context=ctx))
        for c in result.correspondences
    ]
    rows.append(_explain_row(explain(matcher, source, target,
                                     source.root.path, target.root.path)))
    return rows


def shipped_explain(matcher, *args, **kwargs):
    return matcher.explain(*args, **kwargs)


class TestTraces:
    @pytest.mark.parametrize("variant", VARIANTS)
    @SETTINGS
    @given(pair=schema_pairs())
    def test_generated_pairs(self, variant, pair):
        source, target = prepared(pair, variant)
        assert_traces_equal(make_matcher(variant), source, target)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_protein_sample(self, variant):
        source, target = load_pair("PIR-PDB50",
                                   "default" if variant == "no_categories"
                                   else variant)
        assert_traces_equal(make_matcher(variant), source, target)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("first", ["linguistic", "cupid"])
    @SETTINGS
    @given(pair=schema_pairs())
    def test_warm_memo_provenance(self, variant, first, pair):
        # A context another matcher filled first: label pairs it compared
        # read as hits from the first span on.
        source, target = prepared(pair, variant)
        linguistic = LinguisticMatcher()
        matcher = make_matcher(variant, linguistic=linguistic)
        warmer = (LinguisticMatcher() if first == "linguistic"
                  else CupidMatcher(linguistic=linguistic))
        assert_traces_equal(matcher, source, target,
                            warm=warmer.match_context)

    @SETTINGS
    @given(pair=schema_pairs())
    def test_reused_recorder(self, pair):
        # Two runs on one recorder: the second run (PO, whose spans link
        # to child spans) must point into its own spans, after however
        # many the generated first run recorded.
        matcher = QMatchMatcher()
        traces = []
        for run in (shipped(matcher), reference(matcher)):
            recorder = TraceRecorder(run_id="reused")
            traced(run, matcher, *pair, recorder=recorder)
            traced(run, matcher, *load_pair("PO", "default"),
                   recorder=recorder)
            traces.append(recorder.to_jsonl())
        assert traces[0] == traces[1]

    @SETTINGS
    @given(pair=schema_pairs(), data=st.data())
    def test_documentation_equal_to_names(self, pair, data):
        # Documentation texts drawn from both sides' node names intern to
        # the names' label ids, so documentation lookups and name pairs
        # share memo entries.
        source, target = pair
        names = sorted({node.name for tree in pair for node in tree})
        for tree in pair:
            for node in tree:
                if data.draw(st.booleans()):
                    node.properties["documentation"] = data.draw(
                        st.sampled_from(names))
        assert_traces_equal(make_matcher("documentation"), source, target)

    @pytest.mark.parametrize("broken", [
        {("integer", None), (None, None)},
        {(None, None), ("date", "date")},
    ], ids=["block-pair-first", "interior-pair-first"])
    def test_out_of_range_message(self, broken):
        source, target = load_pair("PO", "default")
        matcher = QMatchMatcher(property_matcher=_BrokenProperties(broken))
        messages = []
        for run in (shipped(matcher), reference(matcher)):
            with pytest.raises(ValueError) as raised:
                traced(run, matcher, source, target)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert "is outside [0, 1]" in messages[0]


class TestExplain:
    @pytest.mark.parametrize("variant", VARIANTS)
    @SETTINGS
    @given(pair=schema_pairs())
    def test_generated_pairs(self, variant, pair):
        source, target = prepared(pair, variant)
        matcher = make_matcher(variant)
        assert (explain_rows(shipped_explain, matcher, source, target)
                == explain_rows(qmatch_reference.explain, matcher, source,
                                target))


class _CountingLinguistic(LinguisticMatcher):
    """Counts ``compare_labels`` calls."""

    calls = 0

    def compare_labels(self, *args, **kwargs):
        self.calls += 1
        return super().compare_labels(*args, **kwargs)


def edit(tree, data):
    """A copy of ``tree`` with one drawn node renamed or retyped."""
    edited = tree.copy()
    nodes = list(edited)
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    if data.draw(st.booleans()):
        node.name = node.name + "Edited"
    else:
        node.type_name = "decimal" if node.type_name != "decimal" else "string"
    return edited


class TestIncremental:
    @pytest.mark.parametrize("variant", VARIANTS)
    @SETTINGS
    @given(pair=schema_pairs(), data=st.data())
    def test_generated_edits(self, variant, pair, data):
        source, target = prepared(pair, variant)
        edited = edit(source, data)
        matrices, calls = [], []
        for incremental in (incremental_qmatch,
                            qmatch_reference.incremental_qmatch):
            linguistic = _CountingLinguistic()
            matcher = make_matcher(variant, linguistic=linguistic)
            old = matcher.score_matrix(source, target)
            linguistic.calls = 0
            matrix = incremental(matcher, old, edited, target)
            matrices.append((outputs(matrix), matrix.incremental_stats))
            calls.append(linguistic.calls)
        assert matrices[0] == matrices[1]
        assert calls[0] <= calls[1]
