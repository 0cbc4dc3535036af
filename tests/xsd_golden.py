"""Frozen ``to_xsd`` outputs: the golden digests behind test_xsd_serializer.

Every case is a schema tree; its fixture entry is the SHA-256 and byte
length of ``to_xsd(tree)`` (indented, the default) as recorded when the
serializer still pretty-printed through a ``minidom`` round trip.  The
cases cover every builtin schema, the bundled XSD files, the two ingest
fixtures (SQL DDL and JSON Schema) and a seeded set of generated trees
decorated with the text the round trip treats specially: markup
characters, quotes, line breaks (``\\n``, ``\\r``, ``\\r\\n``, NEL,
LINE SEPARATOR), tabs, non-ASCII text and whitespace-only lines.

Regenerate (only when an output change is intended and explained)::

    PYTHONPATH=src python -m tests.xsd_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

FIXTURES_DIR = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES_DIR / "xsd_golden.json"

#: Seeds of the generated, decorated cases.
GENERATED_SEEDS = tuple(range(8))

#: Text the decorated cases draw documentation, defaults, enumeration
#: values and name suffixes from.
TRICKY_TEXT = (
    "Tom & Jerry", "a < b > c", 'say "hi"', "it's", "&amp; literal",
    "line one\nline two", "crlf\r\nend", "cr\ronly", "tab\there",
    "naïve café – 日本語 😀", "  padded  ", "\n  \n  indented\n\n",
    "trailing\n", " ", "\xa0", "nel\x85break", "sep\u2028line",
    "]]> and <!-- -->", "\t\t", "plain",
)


def _decorate(tree, seed):
    """Seeded properties carrying :data:`TRICKY_TEXT` on most nodes."""
    rng = random.Random(seed)
    for node in tree.root.iter_preorder():
        if rng.random() < 0.5:
            node.properties["documentation"] = rng.choice(TRICKY_TEXT)
        if rng.random() < 0.3:
            node.properties["default"] = rng.choice(TRICKY_TEXT)
        if node.parent is not None and rng.random() < 0.3:
            node.name = f"{node.name}{rng.choice(TRICKY_TEXT)}"
        if node.children:
            if rng.random() < 0.3:
                node.properties["compositor"] = rng.choice(("choice", "all"))
            if rng.random() < 0.2:
                node.properties["mixed"] = True
            continue
        if rng.random() < 0.2:
            node.properties["nillable"] = True
        roll = rng.random()
        if roll < 0.3 and not node.is_attribute:
            node.type_name = "string"
            node.properties["facets"] = {
                "enumeration": rng.sample(TRICKY_TEXT, 3),
                "maxLength": rng.randint(1, 99),
            }
        elif roll < 0.4:
            node.type_name = "CustomCode"
    _unique_sibling_names(tree.root)
    return tree


def _unique_sibling_names(node):
    seen = set()
    for child in node.children:
        while child.name in seen:
            child.name = f"{child.name}_"
        seen.add(child.name)
        _unique_sibling_names(child)


def cases():
    """``(case name, tree)`` for every frozen case, in fixture order."""
    from repro.datasets import registry
    from repro.ingest.jsonschema import parse_json_schema
    from repro.ingest.sql import parse_sql_ddl
    from repro.xsd.generator import GeneratorConfig, SchemaGenerator
    from repro.xsd.parser import parse_xsd_file

    for name in registry.schema_names():
        yield f"builtin:{name}", registry.load_schema(name)
    bundled = Path(registry.__file__).parent / "xsd"
    for path in sorted(bundled.glob("*.xsd")):
        yield f"file:{path.name}", parse_xsd_file(path)
    yield "sql:library.sql", parse_sql_ddl(
        (FIXTURES_DIR / "library.sql").read_text(encoding="utf-8"),
        name="library",
    )
    yield "json-schema:catalog.json", parse_json_schema(
        (FIXTURES_DIR / "catalog.json").read_text(encoding="utf-8"),
    )
    for seed in GENERATED_SEEDS:
        config = GeneratorConfig(n_nodes=12 + 6 * seed, max_depth=2 + seed % 3,
                                 seed=seed)
        tree = SchemaGenerator(config).generate()
        if seed % 2:
            tree.target_namespace = "urn:example:golden"
        yield f"generated:{seed}", _decorate(tree, seed)


def digest(text):
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def snapshot():
    from repro.xsd.serializer import to_xsd

    return {name: digest(to_xsd(tree)) for name, tree in cases()}


def load_fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def write_fixture():
    FIXTURE.write_text(json.dumps(snapshot(), indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    write_fixture()
