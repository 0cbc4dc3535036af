"""Unit tests for XSD serialization and the compact text format.

``to_xsd`` writes its indented form directly, byte-identical to the
``minidom`` round trip it replaced.  Two checks pin that.  The golden
digests of :mod:`tests.xsd_golden` were recorded from the round trip
itself.  The property tests keep the round trip here, as the oracle,
and compare it with ``to_xsd`` on generated trees whose names,
documentation, defaults and enumeration values mix markup characters,
quotes, every line-break character, tabs, non-ASCII text and
whitespace-only lines.  Text the round trip rejected must still raise.
"""

import sys
from xml.dom import minidom

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.xsd.builder import attribute, element, tree
from repro.xsd.model import UNBOUNDED, NodeKind, SchemaNode, SchemaTree
from repro.xsd.parser import parse_xsd
from repro.xsd.serializer import to_compact_text, to_xsd
from tests.xsd_golden import load_fixture, snapshot


def roundtrip(schema_tree):
    return parse_xsd(to_xsd(schema_tree), name=schema_tree.name)


class TestToXsd:
    def test_roundtrip_preserves_shape(self, po1_tree):
        again = roundtrip(po1_tree)
        assert again.size == po1_tree.size
        assert again.max_depth == po1_tree.max_depth
        assert [n.path for n in again] == [n.path for n in po1_tree]

    def test_roundtrip_preserves_types(self, po1_tree):
        again = roundtrip(po1_tree)
        for node, clone in zip(po1_tree, again):
            assert node.type_name == clone.type_name, node.path

    def test_roundtrip_preserves_occurs(self, article_tree):
        again = roundtrip(article_tree)
        author = again.find("Article/Authors/Author")
        assert author.max_occurs == UNBOUNDED
        assert again.find("Article/Abstract").min_occurs == 0

    def test_attributes_serialized(self):
        schema = tree(element("E", element("child", type_name="string"),
                              attribute("id", type_name="ID", required=True)))
        again = roundtrip(schema)
        attr = again.find("E/id")
        assert attr.is_attribute
        assert attr.min_occurs == 1

    def test_documentation_serialized(self):
        schema = tree(element("E", type_name="string",
                              documentation="the docs"))
        assert roundtrip(schema).root.properties["documentation"] == "the docs"

    def test_facets_serialized(self):
        schema = tree(element(
            "E", type_name="integer",
            facets={"minInclusive": "0", "enumeration": ["1", "2"]},
        ))
        again = roundtrip(schema)
        assert again.root.properties["facets"]["minInclusive"] == "0"
        assert again.root.properties["facets"]["enumeration"] == ["1", "2"]

    def test_custom_leaf_type_stays_parseable(self):
        schema = tree(element("E", type_name="MyCustomThing"))
        # Custom types are rendered as anonymous string restrictions so
        # the output stays self-contained.
        again = roundtrip(schema)
        assert again.root.type_name == "string"

    def test_target_namespace_emitted(self):
        schema = tree(element("E", type_name="string"),
                      target_namespace="urn:x")
        assert roundtrip(schema).target_namespace == "urn:x"

    def test_pretty_output_is_indented(self, po1_tree):
        text = to_xsd(po1_tree, pretty=True)
        assert "\n" in text
        assert "  <" in text

    def test_compact_output_single_line_elements(self, po1_tree):
        text = to_xsd(po1_tree, pretty=False)
        assert text.count("\n") == 0

    def test_choice_compositor_preserved(self):
        schema = tree(element("E", element("a", type_name="string"),
                              compositor="choice"))
        assert "choice" in to_xsd(schema)


class TestCompactText:
    def test_one_line_per_node(self, po1_tree):
        text = to_compact_text(po1_tree)
        assert len(text.splitlines()) == po1_tree.size

    def test_indentation_tracks_depth(self, po1_tree):
        lines = to_compact_text(po1_tree).splitlines()
        assert lines[0].startswith("PO")
        quantity_line = next(l for l in lines if "Quantity" in l)
        assert quantity_line.startswith("      ")  # level 3

    def test_types_shown(self, po1_tree):
        text = to_compact_text(po1_tree)
        assert "OrderNo : integer" in text

    def test_attribute_marker(self):
        schema = tree(element("E", attribute("id")))
        assert "@id" in to_compact_text(schema)

    def test_properties_hidden_by_default(self, article_tree):
        assert "min_occurs" not in to_compact_text(article_tree)

    def test_properties_shown_on_request(self, article_tree):
        text = to_compact_text(article_tree, show_properties=True)
        assert "min_occurs=0" in text
        assert "max_occurs=unbounded" in text


# ----------------------------------------------------------------------
# Byte identity with the minidom round trip
# ----------------------------------------------------------------------

def minidom_to_xsd(schema) -> str:
    """The former indented serialization: compact ElementTree text,
    re-parsed and pretty-printed by ``minidom``, whitespace-only lines
    dropped."""
    text = to_xsd(schema, pretty=False)
    pretty = minidom.parseString(text).toprettyxml(indent="  ")
    return "\n".join(line for line in pretty.splitlines() if line.strip())


def test_every_golden_case_is_byte_identical():
    assert snapshot() == load_fixture()


#: Characters the round trip treats specially, mixed into arbitrary text.
SPECIAL = list("&<>\"'\n\r\t \xa0\x85\u2028\u2029\xe9\u65e5") + [
    "\U0001f600", "]]>", "\r\n", "  \n  "]


def is_xml_char(char):
    """Whether XML 1.0's ``Char`` production admits ``char``."""
    code = ord(char)
    return (char in "\t\n\r" or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or code >= 0x10000)


texts = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.characters().filter(is_xml_char)),
    max_size=10,
).map("".join)

#: Characters XML 1.0 cannot carry.
NON_XML = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ud800",
           "\udfff", "\ufffe", "\uffff"]

hostile_texts = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.sampled_from(NON_XML),
              st.characters()),
    max_size=10,
).map("".join)


@st.composite
def decorated_trees(draw, text=texts):
    """Small trees whose every free-text field is drawn from ``text``."""
    root = SchemaNode("Root" + draw(text))
    if draw(st.booleans()):
        root.properties["documentation"] = draw(text)
    for index in range(draw(st.integers(1, 4))):
        is_attribute = draw(st.booleans())
        child = SchemaNode(
            f"c{index}" + draw(text),
            kind=NodeKind.ATTRIBUTE if is_attribute else NodeKind.ELEMENT,
            type_name=draw(st.sampled_from(("string", "integer", "Custom",
                                            None))),
            min_occurs=draw(st.sampled_from((0, 1, 2))),
        )
        if draw(st.booleans()):
            child.properties["default"] = draw(text)
        if draw(st.booleans()):
            child.properties["documentation"] = draw(text)
        if not is_attribute and child.type_name == "string" and draw(
                st.booleans()):
            child.properties["facets"] = {
                "enumeration": draw(st.lists(text, min_size=1, max_size=3)),
                "maxLength": draw(st.integers(1, 9)),
            }
        if not is_attribute and draw(st.booleans()):
            child.add_child(SchemaNode("leaf" + draw(text),
                                       type_name="string"))
        root.add_child(child)
    namespace = draw(st.one_of(st.none(), text))
    return SchemaTree(root, target_namespace=namespace or None)


PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Python 3.13's minidom escapes differently (tabs and line breaks in
#: attribute values, no ``&quot;`` in text), so the round trip is the
#: oracle only where the form it produced was recorded: 3.10 to 3.12.
#: ``to_xsd`` writes that form on every interpreter; the golden digests
#: check it everywhere.
oracle_interpreters = pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="minidom's escaping changed in Python 3.13",
)


@oracle_interpreters
@PROPERTY_SETTINGS
@given(decorated_trees())
def test_matches_the_minidom_round_trip(schema):
    assert to_xsd(schema) == minidom_to_xsd(schema)


@oracle_interpreters
@PROPERTY_SETTINGS
@given(decorated_trees(text=hostile_texts))
def test_rejects_what_the_round_trip_rejected(schema):
    try:
        expected = minidom_to_xsd(schema)
    except Exception:  # noqa: BLE001 -- ExpatError or UnicodeEncodeError
        with pytest.raises(ValueError):
            to_xsd(schema)
    else:
        assert to_xsd(schema) == expected


@pytest.mark.parametrize("char", NON_XML)
@pytest.mark.parametrize("field", ["name", "documentation", "default",
                                   "enumeration"])
def test_non_xml_character_raises(field, char):
    leaf = SchemaNode("leaf", type_name="string")
    root = SchemaNode("Root", children=[leaf])
    text = f"a{char}b"
    if field == "name":
        leaf.name = text
    elif field == "enumeration":
        leaf.properties["facets"] = {"enumeration": [text]}
    else:
        leaf.properties[field] = text
    schema = SchemaTree(root)
    with pytest.raises(Exception):
        minidom_to_xsd(schema)
    with pytest.raises(ValueError, match="not an XML character"):
        to_xsd(schema)


def test_non_string_value_raises_type_error():
    leaf = SchemaNode("leaf", type_name="string",
                      properties={"facets": {"enumeration": [5]}})
    schema = SchemaTree(SchemaNode("Root", children=[leaf]))
    with pytest.raises(TypeError):
        to_xsd(schema, pretty=False)
    with pytest.raises(TypeError, match="cannot serialize 5"):
        to_xsd(schema)


def test_malformed_tag_raises():
    leaf = SchemaNode("leaf", type_name="string",
                      properties={"facets": {"max length": 3}})
    schema = SchemaTree(SchemaNode("Root", children=[leaf]))
    with pytest.raises(Exception):
        minidom_to_xsd(schema)
    with pytest.raises(ValueError, match="cannot serialize tag"):
        to_xsd(schema)
