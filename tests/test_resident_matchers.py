"""A matcher kept resident across jobs answers exactly like a fresh one.

The corpus searcher's inline rerank and every pool worker keep one
matcher per ``(algorithm, weights)`` across jobs
(:class:`repro.service.runner.ResidentMatchers`), one map per process.
These tests pin that a job's payload, trace and stats never depend on
which jobs ran before it, that the resident map stays bounded, that a
pool worker holds exactly one map, and that concurrent searches on one
searcher agree with a serial run.
"""

from __future__ import annotations

import itertools
import json
import string
import sys
import threading
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus import CorpusSearcher, SchemaCorpus, SegmentedCorpusIndex
from repro.datasets import registry
from repro.engine.registry import DEFAULT_REGISTRY
from repro.linguistic.matcher import LinguisticMatcher
from repro.linguistic.thesaurus import Thesaurus
from repro.service import runner
from repro.service.jobs import MatchJobSpec
from repro.service.pool import PoolWarmup
from repro.service.runner import ResidentMatchers, execute_job, job_matcher
from repro.xsd.generator import (
    GeneratorConfig,
    SchemaGenerator,
    derive_seed,
    vocabulary_pool,
)
from repro.xsd.mutations import MutationConfig, SchemaMutator
from repro.xsd.serializer import to_xsd

#: The builtin schemas small enough to match under every algorithm in a
#: unit test (PIR and PDB are the Protein pair, seconds per match).
SMALL_BUILTINS = tuple(
    name for name in registry.schema_names() if name not in ("PIR", "PDB")
)


def thesaurus_vocabulary() -> list:
    """Every word the bundled thesaurus data names."""
    words = set()
    data = resources.files("repro.linguistic") / "data"
    for entry in data.iterdir():
        if entry.name.endswith(".tsv"):
            for line in entry.read_text(encoding="utf-8").splitlines():
                fields = line.split("#", 1)[0].split()
                words.update(word.lower() for word in fields[1:])
    return sorted(words)


VOCABULARY = thesaurus_vocabulary()
TOKENS = st.one_of(
    st.sampled_from(VOCABULARY),
    st.sampled_from(VOCABULARY).map(lambda word: word + "s"),
    st.text(alphabet=string.ascii_lowercase + string.digits, max_size=12),
)


class TestTokenSymmetry:
    matcher = LinguisticMatcher()

    @given(TOKENS, TOKENS)
    def test_token_similarity_is_symmetric(self, left, right):
        score = self.matcher.lexicon().token_similarity_uncached
        assert score(left, right) == score(right, left)


def synthetic_pairs(count: int = 6) -> list:
    """Seeded synthetic schemas, each paired with a renamed mutation of
    itself and with the next schema (thesaurus-backed renames plus
    unrelated vocabularies)."""
    pool = vocabulary_pool(64, master_seed=11)
    trees = [
        SchemaGenerator(GeneratorConfig(
            n_nodes=14, max_depth=3, seed=derive_seed(11, index),
            vocabulary=pool[index * 8:index * 8 + 16],
            root_name=f"Synthetic{index}",
        )).generate()
        for index in range(count)
    ]
    pairs = []
    for index, tree in enumerate(trees):
        mutated, _ = SchemaMutator(MutationConfig(
            seed=index, rename_probability=0.5,
        )).mutate(tree, name=f"Mutated{index}")
        pairs.append((tree, mutated))
        pairs.append((tree, trees[(index + 1) % count]))
    return pairs


def job_specs() -> list:
    """Every pair of the small builtins in both orders plus the
    synthetic pairs, for every registered algorithm (and a second
    qmatch weight vector), and the two DCMD schemas (38 and 53 nodes,
    the largest vocabulary) under qmatch.  Grouped by configuration, so
    each resident matcher warms up over many jobs before later
    configurations evict it."""
    schemas = [
        registry.load_schema(name) for name in SMALL_BUILTINS
        if not name.startswith("DCMD")
    ]
    pairs = list(itertools.product(schemas, repeat=2)) + synthetic_pairs()
    dcmd = [registry.load_schema("DCMDItem"), registry.load_schema("DCMDOrd")]
    configs = [(name, None, pairs) for name in DEFAULT_REGISTRY.names()]
    configs.append(("qmatch", (0.4, 0.3, 0.1, 0.2), pairs))
    configs.append(("qmatch", None, [tuple(dcmd), tuple(reversed(dcmd))]))
    return [
        MatchJobSpec(
            source_xsd=to_xsd(source), target_xsd=to_xsd(target),
            source_name=source.name, target_name=target.name,
            algorithm=algorithm, weights=weights,
            trace=algorithm == "qmatch",
        )
        for algorithm, weights, config_pairs in configs
        for source, target in config_pairs
    ]


def comparable(envelope: dict) -> str:
    """An envelope minus its wall-clock timings, as canonical JSON."""
    stats = dict(envelope["stats"])
    stats["stages"] = {
        name: stage["calls"] for name, stage in stats["stages"].items()
    }
    return json.dumps(
        [envelope["result"], stats, envelope.get("trace")], sort_keys=True,
    )


def cold_envelopes(specs) -> list:
    """``comparable`` envelopes of fresh jobs, each run from a cold
    token lexicon (matchers share the default thesaurus's lexicon)."""
    envelopes = []
    for spec in specs:
        Thesaurus.default().drop_lexicons()
        envelopes.append(comparable(execute_job(spec)))
    return envelopes


class TestResidentEqualsFresh:
    def test_every_payload_equals_a_fresh_job(self):
        specs = job_specs()
        fresh = cold_envelopes(specs)
        state = {"matchers": ResidentMatchers()}
        mismatched = []
        # The resident jobs run in a row, on a lexicon every earlier
        # job warmed.
        for spec, expected in zip(specs, fresh):
            resident = comparable(execute_job(spec, state))
            assert len(state["matchers"]) <= runner.MAX_RESIDENT_MATCHERS
            if resident != expected:
                mismatched.append(spec.label)
        assert not mismatched, mismatched[:5]


NAMED_TYPE_XSD = """\
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="{place}{index}">
    <xs:sequence>
      <xs:element name="street" type="xs:string"/>
      <xs:element name="city" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="{order}{index}">
    <xs:sequence>
      <xs:element name="shipTo" type="{place}{index}"/>
      <xs:element name="billTo" type="{place}{index}"/>
      <xs:element name="quantity" type="xs:int"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="{root}" type="{order}{index}"/>
</xs:schema>
"""


def named_type_spec(algorithm: str, index: int) -> MatchJobSpec:
    """A pair whose complex types carry names no other ``index`` uses,
    as a stream of distinct uploaded schemas would."""
    return MatchJobSpec(
        source_xsd=NAMED_TYPE_XSD.format(
            place="Address", order="Order", root="order", index=index,
        ),
        target_xsd=NAMED_TYPE_XSD.format(
            place="Location", order="Purchase", root="purchase", index=index,
        ),
        algorithm=algorithm,
    )


class TestResidentBounds:
    def spec(self, algorithm="qmatch", weights=None):
        po1, po2 = registry.load_schema("PO1"), registry.load_schema("PO2")
        return MatchJobSpec(
            source_xsd=to_xsd(po1), target_xsd=to_xsd(po2),
            algorithm=algorithm, weights=weights,
        )

    def test_state_reuses_its_matcher(self):
        spec = self.spec()
        state = {"matchers": ResidentMatchers()}
        with job_matcher(spec, state) as first:
            pass
        with job_matcher(spec, state) as second:
            pass
        assert first is second
        with job_matcher(spec) as fresh:
            pass
        assert fresh is not first

    def test_over_full_matcher_is_replaced(self, monkeypatch):
        spec = self.spec()
        state = {"matchers": ResidentMatchers()}
        execute_job(spec, state)
        with job_matcher(spec, state) as matcher:
            pass
        entries = matcher.resident_entries()
        assert entries > 0
        monkeypatch.setattr(runner, "MAX_RESIDENT_ENTRIES", entries - 1)
        # Checked out whole, but dropped on check-in: over the cap.
        with job_matcher(spec, state) as again:
            assert again is matcher
        assert len(state["matchers"]) == 0
        with job_matcher(spec, state) as replacement:
            assert replacement is not matcher

    def test_map_never_exceeds_its_configuration_limit(self, monkeypatch):
        monkeypatch.setattr(runner, "MAX_RESIDENT_MATCHERS", 2)
        state = {"matchers": ResidentMatchers()}
        specs = [
            self.spec(weights=weights) for weights in (
                (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.1, 0.2),
                (0.1, 0.2, 0.3, 0.4),
            )
        ]
        held = []
        for spec in specs:
            with job_matcher(spec, state) as matcher:
                held.append(matcher)
            assert len(state["matchers"]) <= 2
        # The least recently used configuration was evicted ...
        with job_matcher(specs[0], state) as matcher:
            assert matcher is not held[0]
        # ... and the most recent one is still resident.
        with job_matcher(specs[2], state) as matcher:
            assert matcher is held[2]

    def test_map_never_exceeds_its_entry_limit(self, monkeypatch):
        specs = [
            self.spec(weights=weights) for weights in (
                (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.1, 0.2),
                (0.1, 0.2, 0.3, 0.4),
            )
        ]
        state = {"matchers": ResidentMatchers()}
        execute_job(specs[0], state)
        one = state["matchers"].resident_entries()
        assert one > 0
        monkeypatch.setattr(runner, "MAX_RESIDENT_ENTRIES", 2 * one)
        for spec in specs[1:]:
            execute_job(spec, state)
            assert state["matchers"].resident_entries() <= 2 * one
        # Every configuration fills the same ``one`` entries on this
        # pair, so the third check-in evicted the first matcher.
        assert state["matchers"].resident_entries() == 2 * one
        assert len(state["matchers"]) == 2
        with job_matcher(specs[0], state) as matcher:
            assert matcher.resident_entries() == 0

    @pytest.mark.parametrize("algorithm", ["properties", "qmatch"])
    def test_named_types_count_toward_the_cap(self, algorithm, monkeypatch):
        # Uploaded schemas with their own complex-type names grow the
        # property memo, which is keyed on type names; the cap must see
        # that growth, or a long-lived worker grows without limit.
        state = {"matchers": ResidentMatchers()}
        execute_job(named_type_spec(algorithm, 0), state)
        with job_matcher(named_type_spec(algorithm, 0), state) as matcher:
            pass
        assert matcher.property_matcher.resident_entries() > 0
        monkeypatch.setattr(
            runner, "MAX_RESIDENT_ENTRIES", 2 * matcher.resident_entries()
        )
        state = {"matchers": ResidentMatchers()}
        held = []
        for index in range(8):
            spec = named_type_spec(algorithm, index)
            execute_job(spec, state)
            with job_matcher(spec, state) as matcher:
                assert (matcher.resident_entries()
                        <= runner.MAX_RESIDENT_ENTRIES)
            held.append(matcher)
        # Each job's new type names filled the matcher past the cap
        # within a few jobs, and it was replaced by a fresh one.
        assert held[0] is held[1]
        assert len({id(matcher) for matcher in held}) > 1

    def test_failed_job_does_not_return_its_matcher(self):
        spec = self.spec()
        state = {"matchers": ResidentMatchers()}
        with pytest.raises(RuntimeError):
            with job_matcher(spec, state):
                raise RuntimeError("match failed")
        assert len(state["matchers"]) == 0


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = SchemaCorpus(tmp_path_factory.mktemp("resident") / "corpus")
    for name in SMALL_BUILTINS:
        corpus.add(registry.load_schema(name))
    return corpus, SegmentedCorpusIndex.build(corpus)


#: Searches each of the stress test's 8 threads runs (a thread starts
#: at its own query, so every query runs concurrently with others).
SEARCHES_PER_THREAD = 3


class TestConcurrentSearch:
    def test_threads_sharing_a_searcher_agree_with_serial(self, small_corpus):
        corpus, index = small_corpus
        queries = [registry.load_schema(name) for name in SMALL_BUILTINS]

        def search(searcher, query):
            return searcher.search(query, k=3, candidates=4).as_dict(
                include_stats=False,
            )

        serial_searcher = CorpusSearcher(corpus, index)
        expected = [search(serial_searcher, query) for query in queries]

        shared = CorpusSearcher(corpus, index)
        threads_count = 8
        results = [None] * threads_count
        errors = []

        def work(slot):
            try:
                results[slot] = [
                    search(shared, queries[(slot + step) % len(queries)])
                    for step in range(SEARCHES_PER_THREAD)
                ]
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for slot, got in enumerate(results):
            want = [
                expected[(slot + step) % len(queries)]
                for step in range(SEARCHES_PER_THREAD)
            ]
            assert got == want, slot
        assert len(shared._rerank_state["matchers"]) <= (
            runner.MAX_RESIDENT_MATCHERS
        )


class TestPoolWorkerState:
    def test_worker_with_a_corpus_holds_one_map_its_searchers(
            self, small_corpus):
        corpus, _ = small_corpus
        state = PoolWarmup(corpus_dir=corpus.root)()
        assert isinstance(state["matchers"], ResidentMatchers)
        assert state["matchers"] is (
            state["searcher"]._rerank_state["matchers"]
        )

    def test_worker_without_a_corpus_holds_a_fresh_map(self):
        state = PoolWarmup()()
        assert state["searcher"] is None
        assert isinstance(state["matchers"], ResidentMatchers)
        assert len(state["matchers"]) == 0
        assert state["matchers"] is not PoolWarmup()()["matchers"]

    def test_job_stream_equals_fresh_jobs(self):
        """One worker state fed a stream that switches configurations
        and repeats schemas (tree LRU hits) answers every job with the
        result, trace and stats of a fresh ``execute_job``."""
        specs = job_specs()
        stream = specs[::5] + specs[1::11] + specs[::5]
        fresh = cold_envelopes(stream)
        state = PoolWarmup()()
        mismatched = []
        for spec, expected in zip(stream, fresh):
            resident = comparable(execute_job(spec, state))
            assert len(state["matchers"]) <= runner.MAX_RESIDENT_MATCHERS
            if resident != expected:
                mismatched.append((spec.algorithm, spec.source_name,
                                   spec.target_name))
        assert not mismatched, mismatched[:5]
        assert len(state["matchers"]) > 0
        assert state["trees"]
