"""Frozen corpus retrieval outputs: the golden snapshots behind
test_corpus_golden.

The snapshots pin what stage-1 retrieval and search return over two
corpora, for both lexical scorers:

- ``builtins.json`` -- the 12 bundled paper schemas, every one of them
  used as the query: the full lexical score map, the LSH candidate set,
  each candidate's Jaccard estimate and the top-10 index ranking
  (``search(rerank=False, k=10)``);
- ``synthetic.json`` -- the 100-schema synthetic corpus of
  ``benchmarks/test_corpus_search.py`` (20 families of a generated base
  schema plus 4 mutated variants) searched with its 20 held-out
  queries: top-10 ids and scores;
- ``rerank.json`` -- one reranked ``search(k=5)`` result each for
  ``PO1`` and ``Book``, with a SHA-256 of every hit's rerank payload.

Floats are stored as ``repr`` strings (or as JSON numbers, which
round-trip exactly), so the comparison is bit for bit.  The index under
test is a fresh single-segment build over the corpus.  The fixtures were
recorded from the former in-memory monolithic index, and the segmented
index reproduced them byte for byte at record time.

Python 3.12 made the built-in ``sum()`` of floats compensated, which
moves document norms and QoMs in their last bit, so there is one fixture
set per summation regime: ``naive-sum`` (Python 3.10 and 3.11) and
``compensated-sum`` (3.12 and later).

Regenerate the running interpreter's set (only when an output change is
intended and explained)::

    PYTHONPATH=src python -m tests.corpus_golden
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

FIXTURE_DIR = (
    Path(__file__).parent / "fixtures" / "corpus_golden"
    / ("compensated-sum" if sys.version_info >= (3, 12) else "naive-sum")
)

SCORERS = ("cosine", "bm25")

#: Queries whose reranked ``search(k=5)`` result is frozen.
RERANK_QUERIES = ("PO1", "Book")

#: Shape of the synthetic corpus (``benchmarks/test_corpus_search.py``).
N_FAMILIES = 20
VARIANTS_PER_FAMILY = 4


def builtin_corpus(root):
    """Every bundled paper schema in one corpus."""
    from repro.corpus import SchemaCorpus
    from repro.datasets.registry import load_schema, schema_names

    corpus = SchemaCorpus(root)
    corpus.add_many([load_schema(name) for name in schema_names()])
    return corpus


def synthetic_corpus(root):
    """100 schemas in 20 families plus one held-out query per family.

    The same corpus as ``benchmarks/test_corpus_search.py`` builds; the
    benchmark runs from its own directory, where this package is not
    importable, so each keeps its copy of the recipe.
    """
    from repro.corpus import SchemaCorpus
    from repro.xsd.generator import GeneratorConfig, SchemaGenerator
    from repro.xsd.mutations import MutationConfig, SchemaMutator

    corpus = SchemaCorpus(root)
    queries = []
    for family in range(N_FAMILIES):
        base = SchemaGenerator(GeneratorConfig(
            n_nodes=14 + (family % 5) * 2,
            max_depth=3,
            seed=1000 + family,
            root_name=f"Family{family:02d}",
        )).generate()
        corpus.add(base, name=f"F{family:02d}-base")
        for variant in range(VARIANTS_PER_FAMILY):
            mutated, _ = SchemaMutator(MutationConfig(
                seed=family * 100 + variant,
                rename_probability=0.3,
                drop_probability=0.1,
                add_probability=0.1,
            )).mutate(base, name=f"F{family:02d}-v{variant}")
            corpus.add(mutated, name=f"F{family:02d}-v{variant}")
        held_out, _ = SchemaMutator(MutationConfig(
            seed=family * 100 + 99,
            rename_probability=0.25,
            drop_probability=0.1,
        )).mutate(base, name=f"F{family:02d}-query")
        queries.append(held_out)
    return corpus, queries


def build_index(corpus, root):
    """The index the snapshots are taken from: one fresh segment."""
    from repro.corpus import SegmentedCorpusIndex

    return SegmentedCorpusIndex.build(corpus, root=root)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hit_rows(hits) -> list:
    return [
        [hit.hash, hit.name, repr(hit.retrieval_score),
         repr(hit.lexical_score), repr(hit.structural_score)]
        for hit in hits
    ]


def builtins_snapshot(corpus, index) -> dict:
    """Per builtin query: lexical maps, LSH candidates, estimates and
    the top-10 index ranking under each scorer."""
    from repro.corpus import CorpusSearcher

    names = {entry.hash: entry.name for entry in corpus.entries()}
    searchers = {
        scorer: CorpusSearcher(corpus, index, scorer=scorer)
        for scorer in SCORERS
    }
    queries = {}
    for entry in corpus.entries():
        tree = corpus.load(entry.hash)
        tokens = index.query_tokens(tree)
        signature = index.query_signature(tree)
        case = {}
        for scorer in SCORERS:
            lexical, candidates = index.retrieve_scores(
                tokens, signature, scorer=scorer
            )
            case.setdefault("candidates", sorted(
                names[doc_id] for doc_id in candidates
            ))
            ordered = sorted(candidates, key=names.get)
            case.setdefault("estimates", {
                names[doc_id]: repr(estimate) for doc_id, estimate in zip(
                    ordered, index.estimates(signature, ordered)
                )
            })
            case[scorer] = {
                "lexical": {
                    names[doc_id]: repr(score)
                    for doc_id, score in sorted(
                        lexical.items(), key=lambda item: names[item[0]]
                    )
                },
                "search": _hit_rows(
                    searchers[scorer].search(tree, k=10, rerank=False).hits
                ),
            }
        queries[entry.name] = case
    return {"corpus_size": len(corpus), "queries": queries}


def synthetic_snapshot(corpus, index, queries) -> dict:
    """Top-10 index ranking of every held-out query, per scorer."""
    from repro.corpus import CorpusSearcher

    out = {}
    for scorer in SCORERS:
        searcher = CorpusSearcher(corpus, index, scorer=scorer)
        out[scorer] = {
            query.name: _hit_rows(
                searcher.search(query, k=10, rerank=False).hits
            )
            for query in queries
        }
    return {"corpus_size": len(corpus), "queries": out}


def rerank_snapshot(corpus, index) -> dict:
    """The reranked ``search(k=5)`` result JSON of each rerank query,
    plus a digest of every hit's full rerank payload."""
    from repro.corpus import CorpusSearcher
    from repro.datasets.registry import load_schema

    searcher = CorpusSearcher(corpus, index)
    out = {}
    for name in RERANK_QUERIES:
        result = searcher.search(load_schema(name), k=5)
        out[name] = {
            "result": json.loads(json.dumps(
                result.as_dict(include_stats=False)
            )),
            "payload_sha256": [_digest(hit.payload) for hit in result.hits],
        }
    return out


def snapshots(make_index=build_index) -> dict:
    """``{fixture name: payload}`` for every frozen case."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        builtins = builtin_corpus(scratch / "builtins")
        builtins_index = make_index(builtins, scratch / "builtins-index")
        synthetic, queries = synthetic_corpus(scratch / "synthetic")
        synthetic_index = make_index(synthetic, scratch / "synthetic-index")
        return {
            "builtins": builtins_snapshot(builtins, builtins_index),
            "synthetic": synthetic_snapshot(
                synthetic, synthetic_index, queries
            ),
            "rerank": rerank_snapshot(builtins, builtins_index),
        }


def fixture_path(name):
    return FIXTURE_DIR / f"{name}.json"


def load_fixture(name):
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def write_fixtures(payloads=None):
    payloads = payloads if payloads is not None else snapshots()
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in payloads.items():
        fixture_path(name).write_text(
            json.dumps(payload, indent=1) + "\n", encoding="utf-8"
        )
    return sorted(payloads)


if __name__ == "__main__":
    for written in write_fixtures():
        print(fixture_path(written))
