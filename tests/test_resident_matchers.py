"""Tables kept across jobs answer exactly like cold ones.

Every job builds its own matcher, but matchers share two tables across
jobs: the thesaurus's token lexicon and the property table
(:mod:`repro.properties.matcher`), each keyed by configuration and
bounded.  These tests pin that a job's payload, trace and stats never
depend on which jobs warmed those tables before it, that the property
table stays bounded, and that jobs and searches on threads sharing one
table agree with a serial run.
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
from repro.properties import matcher as property_module
from repro.properties.matcher import (
    PropertyConfig,
    PropertyMatcher,
    drop_property_tables,
)
from repro.service.jobs import MatchJobSpec
from repro.service.pool import PoolWarmup
from repro.service.runner import execute_job
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
    each configuration's jobs read tables its own earlier jobs warmed,
    after other configurations' jobs warmed them too."""
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
    """``comparable`` envelopes of jobs each run from a cold token
    lexicon and a cold property table."""
    envelopes = []
    for spec in specs:
        Thesaurus.default().drop_lexicons()
        drop_property_tables()
        envelopes.append(comparable(execute_job(spec)))
    return envelopes


def table_entries(matcher: PropertyMatcher) -> int:
    """Entries in the shared property table ``matcher`` reads."""
    return len(matcher._cache) + len(matcher._type_cache)


class TestResidentEqualsFresh:
    def test_every_payload_equals_a_fresh_job(self):
        specs = job_specs()
        cold = cold_envelopes(specs)
        mismatched = []
        # The warm jobs run in a row, on tables every earlier job
        # warmed.
        for spec, expected in zip(specs, cold):
            if comparable(execute_job(spec)) != expected:
                mismatched.append(spec.label)
        assert not mismatched, mismatched[:5]


class TestSharedPropertyTable:
    def test_equal_scoring_inputs_share_one_table(self):
        drop_property_tables()
        first = PropertyMatcher()
        assert PropertyMatcher(PropertyConfig())._cache is first._cache
        assert PropertyMatcher()._type_cache is first._type_cache

    def test_other_scoring_inputs_replace_the_table(self):
        po1, po2 = registry.load_schema("PO1"), registry.load_schema("PO2")
        pairs = [(s, t) for s in po1 for t in po2]
        drop_property_tables()
        default = PropertyMatcher()
        warm = [default.compare(s, t) for s, t in pairs]
        generous = PropertyMatcher(PropertyConfig(relaxed_credit=0.9))
        assert generous._cache is not default._cache
        assert table_entries(generous) == 0
        generous.compare(*pairs[0])
        # One slot: the default config's next matcher starts afresh,
        # and it scores like the warm one.
        again = PropertyMatcher()
        assert again._cache is not default._cache
        assert [again.compare(s, t) for s, t in pairs] == warm


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
    @pytest.mark.parametrize("algorithm", ["properties", "qmatch"])
    def test_named_types_count_toward_the_cap(self, algorithm, monkeypatch):
        # Uploaded schemas with their own complex-type names grow the
        # property table, which is keyed on type names; the cap must see
        # that growth, or a long-lived worker grows without limit.
        drop_property_tables()
        execute_job(named_type_spec(algorithm, 0))
        one = table_entries(PropertyMatcher())
        assert one > 0
        monkeypatch.setattr(property_module, "MAX_PROPERTY_ENTRIES", 2 * one)
        specs = [named_type_spec(algorithm, index) for index in range(8)]
        cold = cold_envelopes(specs)
        drop_property_tables()
        tables = []
        for spec, expected in zip(specs, cold):
            matcher = PropertyMatcher()
            assert table_entries(matcher) <= 2 * one
            tables.append(matcher._cache)
            assert comparable(execute_job(spec)) == expected
        # Each job's new type names filled the table past the cap within
        # a few jobs, and the next matcher built replaced it.
        assert tables[0] is tables[1]
        assert len({id(table) for table in tables}) > 1


#: Jobs each of the concurrent-jobs test's 4 threads runs (a thread
#: starts at its own offset, so different jobs run at once).
JOBS_PER_THREAD = 12


class TestConcurrentJobs:
    def test_threads_on_one_cold_table_agree_with_serial(self):
        specs = [
            spec for spec in job_specs()[::7]
            if spec.algorithm in ("qmatch", "properties", "cupid")
        ]
        expected = [comparable(execute_job(spec)) for spec in specs]
        Thesaurus.default().drop_lexicons()
        drop_property_tables()
        threads_count = 4
        results = [None] * threads_count
        errors = []

        def work(slot):
            try:
                results[slot] = [
                    comparable(execute_job(
                        specs[(slot * 3 + step) % len(specs)]
                    ))
                    for step in range(JOBS_PER_THREAD)
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
                expected[(slot * 3 + step) % len(specs)]
                for step in range(JOBS_PER_THREAD)
            ]
            assert got == want, slot


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


class TestPoolWorkerState:
    def test_job_stream_equals_fresh_jobs(self):
        """One worker state fed a stream that switches configurations
        and repeats schemas (tree LRU hits) answers every job with the
        result, trace and stats of a cold ``execute_job``."""
        specs = job_specs()
        stream = specs[::5] + specs[1::11] + specs[::5]
        cold = cold_envelopes(stream)
        state = PoolWarmup()()
        mismatched = []
        for spec, expected in zip(stream, cold):
            if comparable(execute_job(spec, state)) != expected:
                mismatched.append((spec.algorithm, spec.source_name,
                                   spec.target_name))
        assert not mismatched, mismatched[:5]
        assert state["trees"]
