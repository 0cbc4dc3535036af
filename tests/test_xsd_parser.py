"""Unit tests for the XSD parser."""

import pytest

from repro.xsd.errors import SchemaParseError, SchemaValidationError
from repro.xsd.model import NodeKind, UNBOUNDED
from repro.xsd.parser import parse_xsd


def wrap(body, **schema_attrs):
    attrs = "".join(f' {key}="{value}"' for key, value in schema_attrs.items())
    return (
        f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"{attrs}>'
        f"{body}</xs:schema>"
    )


SIMPLE = wrap(
    '<xs:element name="Order">'
    "  <xs:complexType><xs:sequence>"
    '    <xs:element name="Id" type="xs:integer"/>'
    '    <xs:element name="Note" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>'
    "  </xs:sequence></xs:complexType>"
    "</xs:element>"
)


class TestBasics:
    def test_root_and_children(self):
        parsed = parse_xsd(SIMPLE)
        assert parsed.root.name == "Order"
        assert [c.name for c in parsed.root.children] == ["Id", "Note"]

    def test_builtin_types_stripped_of_prefix(self):
        parsed = parse_xsd(SIMPLE)
        assert parsed.find("Order/Id").type_name == "integer"

    def test_occurs_parsed(self):
        parsed = parse_xsd(SIMPLE)
        note = parsed.find("Order/Note")
        assert note.min_occurs == 0
        assert note.max_occurs == UNBOUNDED

    def test_order_property_assigned(self):
        parsed = parse_xsd(SIMPLE)
        assert parsed.find("Order/Id").order == 1
        assert parsed.find("Order/Note").order == 2

    def test_target_namespace_kept(self):
        parsed = parse_xsd(wrap('<xs:element name="E" type="xs:string"/>',
                                targetNamespace="urn:t"))
        assert parsed.target_namespace == "urn:t"

    def test_name_and_domain_forwarded(self):
        parsed = parse_xsd(SIMPLE, name="N", domain="D")
        assert parsed.name == "N"
        assert parsed.domain == "D"

    def test_compositor_recorded(self):
        parsed = parse_xsd(SIMPLE)
        assert parsed.root.properties["compositor"] == "sequence"

    def test_tree_validates(self):
        parse_xsd(SIMPLE).validate()


class TestRootSelection:
    TWO_ROOTS = wrap(
        '<xs:element name="A" type="xs:string"/>'
        '<xs:element name="B" type="xs:integer"/>'
    )

    def test_defaults_to_first_global(self):
        assert parse_xsd(self.TWO_ROOTS).root.name == "A"

    def test_explicit_root(self):
        assert parse_xsd(self.TWO_ROOTS, root_element="B").root.name == "B"

    def test_unknown_root_raises_with_available(self):
        with pytest.raises(SchemaParseError, match="available"):
            parse_xsd(self.TWO_ROOTS, root_element="C")


class TestAttributes:
    DOC = wrap(
        '<xs:element name="E"><xs:complexType>'
        "<xs:sequence/>"
        '<xs:attribute name="id" type="xs:ID" use="required"/>'
        '<xs:attribute name="lang" type="xs:language" default="en"/>'
        "</xs:complexType></xs:element>"
    )

    def test_attribute_kind_and_type(self):
        parsed = parse_xsd(self.DOC)
        attr = parsed.find("E/id")
        assert attr.kind is NodeKind.ATTRIBUTE
        assert attr.type_name == "ID"

    def test_required_maps_to_min_occurs(self):
        parsed = parse_xsd(self.DOC)
        assert parsed.find("E/id").min_occurs == 1
        assert parsed.find("E/lang").min_occurs == 0

    def test_default_kept(self):
        assert parse_xsd(self.DOC).find("E/lang").properties["default"] == "en"

    def test_untyped_attribute_defaults_to_string(self):
        doc = wrap('<xs:element name="E"><xs:complexType>'
                   '<xs:attribute name="x"/>'
                   "</xs:complexType></xs:element>")
        assert parse_xsd(doc).find("E/x").type_name == "string"

    def test_global_attribute_ref(self):
        doc = wrap(
            '<xs:attribute name="version" type="xs:decimal"/>'
            '<xs:element name="E"><xs:complexType>'
            '<xs:attribute ref="version" use="required"/>'
            "</xs:complexType></xs:element>"
        )
        attr = parse_xsd(doc, root_element="E").find("E/version")
        assert attr.type_name == "decimal"
        assert attr.min_occurs == 1

    def test_unresolved_attribute_ref(self):
        doc = wrap('<xs:element name="E"><xs:complexType>'
                   '<xs:attribute ref="missing"/>'
                   "</xs:complexType></xs:element>")
        with pytest.raises(SchemaParseError, match="unresolved attribute"):
            parse_xsd(doc)


class TestNamedTypes:
    DOC = wrap(
        '<xs:element name="PO" type="POType"/>'
        '<xs:complexType name="POType"><xs:sequence>'
        '  <xs:element name="Id" type="xs:integer"/>'
        "</xs:sequence></xs:complexType>"
    )

    def test_named_complex_type_expanded(self):
        parsed = parse_xsd(self.DOC)
        assert parsed.root.type_name == "POType"
        assert parsed.find("PO/Id").type_name == "integer"

    def test_named_simple_type_restriction(self):
        doc = wrap(
            '<xs:element name="E" type="Code"/>'
            '<xs:simpleType name="Code">'
            '  <xs:restriction base="xs:string">'
            '    <xs:maxLength value="3"/>'
            "  </xs:restriction>"
            "</xs:simpleType>"
        )
        parsed = parse_xsd(doc, root_element="E")
        assert parsed.root.type_name == "string"
        assert parsed.root.properties["facets"]["maxLength"] == "3"
        assert parsed.root.properties["type_alias"] == "Code"

    def test_unknown_type_treated_as_builtin_name(self):
        doc = wrap('<xs:element name="E" type="SomeExternalType"/>')
        assert parse_xsd(doc).root.type_name == "SomeExternalType"

    def test_recursive_type_cut_off(self):
        doc = wrap(
            '<xs:element name="Tree" type="NodeType"/>'
            '<xs:complexType name="NodeType"><xs:sequence>'
            '  <xs:element name="value" type="xs:string"/>'
            '  <xs:element name="child" type="NodeType" minOccurs="0"/>'
            "</xs:sequence></xs:complexType>"
        )
        parsed = parse_xsd(doc)
        # Expansion goes a bounded number of levels then marks recursion.
        recursive = [
            node for node in parsed if node.properties.get("recursive")
        ]
        assert recursive, "expected at least one recursion cut"
        parsed.validate()

    def test_element_ref(self):
        doc = wrap(
            '<xs:element name="Root"><xs:complexType><xs:sequence>'
            '  <xs:element ref="Shared" maxOccurs="unbounded"/>'
            "</xs:sequence></xs:complexType></xs:element>"
            '<xs:element name="Shared" type="xs:string"/>'
        )
        parsed = parse_xsd(doc, root_element="Root")
        shared = parsed.find("Root/Shared")
        assert shared.type_name == "string"
        assert shared.max_occurs == UNBOUNDED

    def test_unresolved_element_ref(self):
        doc = wrap(
            '<xs:element name="Root"><xs:complexType><xs:sequence>'
            '  <xs:element ref="Missing"/>'
            "</xs:sequence></xs:complexType></xs:element>"
        )
        with pytest.raises(SchemaParseError, match="unresolved element"):
            parse_xsd(doc, root_element="Root")


class TestCompositors:
    def test_choice_children_optional_and_flagged(self):
        doc = wrap(
            '<xs:element name="E"><xs:complexType><xs:choice>'
            '  <xs:element name="a" type="xs:string"/>'
            '  <xs:element name="b" type="xs:string"/>'
            "</xs:choice></xs:complexType></xs:element>"
        )
        parsed = parse_xsd(doc)
        assert parsed.find("E/a").min_occurs == 0
        assert parsed.find("E/a").properties["in_choice"] is True
        assert parsed.root.properties["compositor"] == "choice"

    def test_all_compositor(self):
        doc = wrap(
            '<xs:element name="E"><xs:complexType><xs:all>'
            '  <xs:element name="a" type="xs:string"/>'
            "</xs:all></xs:complexType></xs:element>"
        )
        assert parse_xsd(doc).root.properties["compositor"] == "all"

    def test_nested_sequence_occurs_multiply(self):
        doc = wrap(
            '<xs:element name="E"><xs:complexType>'
            '<xs:sequence maxOccurs="unbounded">'
            '  <xs:element name="a" type="xs:string" maxOccurs="2"/>'
            "</xs:sequence></xs:complexType></xs:element>"
        )
        assert parse_xsd(doc).find("E/a").max_occurs == UNBOUNDED

    def test_any_element_flag(self):
        doc = wrap(
            '<xs:element name="E"><xs:complexType><xs:sequence>'
            "  <xs:any/>"
            "</xs:sequence></xs:complexType></xs:element>"
        )
        assert parse_xsd(doc).root.properties["any_element"] is True


class TestGroups:
    def test_group_ref_expanded(self):
        doc = wrap(
            '<xs:group name="AddressGroup"><xs:sequence>'
            '  <xs:element name="city" type="xs:string"/>'
            '  <xs:element name="zip" type="xs:string"/>'
            "</xs:sequence></xs:group>"
            '<xs:element name="E"><xs:complexType><xs:sequence>'
            '  <xs:group ref="AddressGroup"/>'
            "</xs:sequence></xs:complexType></xs:element>"
        )
        parsed = parse_xsd(doc, root_element="E")
        assert parsed.find("E/city") is not None
        assert parsed.find("E/zip") is not None

    def test_attribute_group_ref_expanded(self):
        doc = wrap(
            '<xs:attributeGroup name="Common">'
            '  <xs:attribute name="id" type="xs:ID"/>'
            "</xs:attributeGroup>"
            '<xs:element name="E"><xs:complexType>'
            '  <xs:attributeGroup ref="Common"/>'
            "</xs:complexType></xs:element>"
        )
        assert parse_xsd(doc, root_element="E").find("E/id").is_attribute

    def test_unresolved_group_ref(self):
        doc = wrap(
            '<xs:element name="E"><xs:complexType><xs:sequence>'
            '  <xs:group ref="Nope"/>'
            "</xs:sequence></xs:complexType></xs:element>"
        )
        with pytest.raises(SchemaParseError, match="unresolved group"):
            parse_xsd(doc)


class TestDerivation:
    def test_complex_content_extension_merges_base(self):
        doc = wrap(
            '<xs:complexType name="Base"><xs:sequence>'
            '  <xs:element name="inherited" type="xs:string"/>'
            "</xs:sequence></xs:complexType>"
            '<xs:element name="E"><xs:complexType><xs:complexContent>'
            '<xs:extension base="Base"><xs:sequence>'
            '  <xs:element name="own" type="xs:integer"/>'
            "</xs:sequence></xs:extension>"
            "</xs:complexContent></xs:complexType></xs:element>"
        )
        parsed = parse_xsd(doc, root_element="E")
        assert [c.name for c in parsed.root.children] == ["inherited", "own"]
        assert parsed.root.properties["derivation"] == "extension"
        assert parsed.root.properties["base_type"] == "Base"

    def test_complex_content_restriction_redefines(self):
        doc = wrap(
            '<xs:complexType name="Base"><xs:sequence>'
            '  <xs:element name="dropped" type="xs:string"/>'
            "</xs:sequence></xs:complexType>"
            '<xs:element name="E"><xs:complexType><xs:complexContent>'
            '<xs:restriction base="Base"><xs:sequence>'
            '  <xs:element name="kept" type="xs:string"/>'
            "</xs:sequence></xs:restriction>"
            "</xs:complexContent></xs:complexType></xs:element>"
        )
        parsed = parse_xsd(doc, root_element="E")
        assert [c.name for c in parsed.root.children] == ["kept"]

    def test_simple_content_extension(self):
        doc = wrap(
            '<xs:element name="Price"><xs:complexType><xs:simpleContent>'
            '<xs:extension base="xs:decimal">'
            '  <xs:attribute name="currency" type="xs:string"/>'
            "</xs:extension>"
            "</xs:simpleContent></xs:complexType></xs:element>"
        )
        parsed = parse_xsd(doc)
        assert parsed.root.type_name == "decimal"
        assert parsed.find("Price/currency").is_attribute


class TestSimpleTypes:
    def test_inline_restriction_facets(self):
        doc = wrap(
            '<xs:element name="E"><xs:simpleType>'
            '<xs:restriction base="xs:integer">'
            '  <xs:minInclusive value="0"/>'
            '  <xs:maxInclusive value="10"/>'
            "</xs:restriction></xs:simpleType></xs:element>"
        )
        parsed = parse_xsd(doc)
        assert parsed.root.type_name == "integer"
        assert parsed.root.properties["facets"] == {
            "minInclusive": "0", "maxInclusive": "10",
        }

    def test_enumeration_collected(self):
        doc = wrap(
            '<xs:element name="E"><xs:simpleType>'
            '<xs:restriction base="xs:string">'
            '  <xs:enumeration value="a"/><xs:enumeration value="b"/>'
            "</xs:restriction></xs:simpleType></xs:element>"
        )
        facets = parse_xsd(doc).root.properties["facets"]
        assert facets["enumeration"] == ["a", "b"]

    def test_union(self):
        doc = wrap(
            '<xs:element name="E"><xs:simpleType>'
            '<xs:union memberTypes="xs:integer xs:string"/>'
            "</xs:simpleType></xs:element>"
        )
        parsed = parse_xsd(doc)
        assert parsed.root.type_name == "union"
        assert parsed.root.properties["member_types"] == ["integer", "string"]

    def test_list(self):
        doc = wrap(
            '<xs:element name="E"><xs:simpleType>'
            '<xs:list itemType="xs:integer"/>'
            "</xs:simpleType></xs:element>"
        )
        parsed = parse_xsd(doc)
        assert parsed.root.type_name == "list"
        assert parsed.root.properties["item_type"] == "integer"

    def test_empty_simple_type_rejected(self):
        doc = wrap('<xs:element name="E"><xs:simpleType/></xs:element>')
        with pytest.raises(SchemaParseError, match="restriction/union/list"):
            parse_xsd(doc)


class TestDocumentation:
    def test_documentation_attached(self):
        doc = wrap(
            '<xs:element name="E" type="xs:string">'
            "<xs:annotation><xs:documentation>Hello world</xs:documentation>"
            "</xs:annotation></xs:element>"
        )
        assert parse_xsd(doc).root.properties["documentation"] == "Hello world"

    def test_nillable_and_default(self):
        doc = wrap('<xs:element name="E" type="xs:string" nillable="true" '
                   'default="x"/>')
        parsed = parse_xsd(doc)
        assert parsed.root.properties["nillable"] is True
        assert parsed.root.properties["default"] == "x"


class TestErrors:
    def test_not_xml(self):
        with pytest.raises(SchemaParseError, match="not well-formed"):
            parse_xsd("this is not xml")

    def test_wrong_root_element(self):
        with pytest.raises(SchemaParseError, match="expected xs:schema"):
            parse_xsd("<root/>")

    def test_no_global_elements(self):
        with pytest.raises(SchemaParseError, match="no global elements"):
            parse_xsd(wrap('<xs:complexType name="T"><xs:sequence/></xs:complexType>'))

    def test_duplicate_global(self):
        doc = wrap('<xs:element name="A" type="xs:string"/>'
                   '<xs:element name="A" type="xs:integer"/>')
        with pytest.raises(SchemaParseError, match="duplicate"):
            parse_xsd(doc)

    def test_global_without_name(self):
        doc = wrap("<xs:element/>")
        with pytest.raises(SchemaParseError, match="missing a name"):
            parse_xsd(doc)

    def test_duplicate_sibling_names_rejected(self):
        # Two same-named choice branches would give two nodes one path;
        # matchers key scores by path, so the tree is refused.
        doc = wrap(
            '<xs:element name="R"><xs:complexType><xs:choice>'
            '<xs:element name="A" type="xs:string"/>'
            '<xs:element name="A" type="xs:int"/>'
            "</xs:choice></xs:complexType></xs:element>"
        )
        with pytest.raises(SchemaValidationError,
                           match="duplicate sibling name.*'R/A'"):
            parse_xsd(doc)

    def test_same_name_under_different_parents_allowed(self):
        doc = wrap(
            '<xs:element name="R"><xs:complexType><xs:sequence>'
            '<xs:element name="B"><xs:complexType><xs:sequence>'
            '<xs:element name="A" type="xs:string"/>'
            "</xs:sequence></xs:complexType></xs:element>"
            '<xs:element name="A" type="xs:int"/>'
            "</xs:sequence></xs:complexType></xs:element>"
        )
        assert {node.path for node in parse_xsd(doc)} == {"R", "R/B", "R/B/A",
                                                          "R/A"}


class TestPaperSchemas:
    def test_po1_matches_figure1(self, po1_tree):
        assert po1_tree.size == 10
        assert po1_tree.max_depth == 3
        assert po1_tree.find("PO/PurchaseInfo/Lines/Quantity").type_name == "integer"
        assert po1_tree.find("PO/OrderNo").order == 1

    def test_article_shape(self, article_tree):
        assert article_tree.size == 18
        assert article_tree.max_depth == 3
        author = article_tree.find("Article/Authors/Author")
        assert author.max_occurs == UNBOUNDED

    def test_book_shape(self, book_tree):
        assert book_tree.size == 6
        assert book_tree.max_depth == 2


class TestIncludes:
    MAIN = wrap(
        '<xs:include schemaLocation="types.xsd"/>'
        '<xs:element name="Order" type="OrderType"/>'
    )
    TYPES = wrap(
        '<xs:complexType name="OrderType"><xs:sequence>'
        '  <xs:element name="Id" type="xs:integer"/>'
        "</xs:sequence></xs:complexType>"
    )

    def test_include_resolved_via_resolver(self):
        parsed = parse_xsd(
            self.MAIN, resolver=lambda location: self.TYPES
        )
        assert parsed.find("Order/Id").type_name == "integer"

    def test_include_without_resolver_raises(self):
        with pytest.raises(SchemaParseError, match="no resolver"):
            parse_xsd(self.MAIN)

    def test_include_resolved_from_file_siblings(self, tmp_path):
        from repro.xsd.parser import parse_xsd_file

        (tmp_path / "types.xsd").write_text(self.TYPES, encoding="utf-8")
        main_path = tmp_path / "main.xsd"
        main_path.write_text(self.MAIN, encoding="utf-8")
        parsed = parse_xsd_file(main_path)
        assert parsed.find("Order/Id") is not None

    def test_missing_include_file_reported(self, tmp_path):
        main_path = tmp_path / "main.xsd"
        main_path.write_text(self.MAIN, encoding="utf-8")
        from repro.xsd.parser import parse_xsd_file

        with pytest.raises(SchemaParseError, match="cannot resolve"):
            parse_xsd_file(main_path)

    def test_mutual_includes_terminate(self):
        first = wrap(
            '<xs:include schemaLocation="second.xsd"/>'
            '<xs:element name="A" type="xs:string"/>'
        )
        second = wrap(
            '<xs:include schemaLocation="first.xsd"/>'
            '<xs:element name="B" type="xs:string"/>'
        )

        def resolver(location):
            return {"first.xsd": first, "second.xsd": second}[location]

        parsed = parse_xsd(first, resolver=resolver, root_element="A",
                           location="first.xsd")
        assert parsed.root.name == "A"

    def test_namespace_only_import_ignored(self):
        doc = wrap(
            '<xs:import namespace="urn:other"/>'
            '<xs:element name="E" type="xs:string"/>'
        )
        assert parse_xsd(doc).root.name == "E"

    def test_malformed_include_reported(self):
        with pytest.raises(SchemaParseError, match="not well-formed"):
            parse_xsd(self.MAIN, resolver=lambda location: "garbage <")


class TestSubstitutionGroups:
    DOC = wrap(
        '<xs:element name="Root"><xs:complexType><xs:sequence>'
        '  <xs:element ref="Vehicle" maxOccurs="unbounded"/>'
        "</xs:sequence></xs:complexType></xs:element>"
        '<xs:element name="Vehicle" type="xs:string" abstract="true"/>'
        '<xs:element name="Car" type="xs:string" substitutionGroup="Vehicle"/>'
        '<xs:element name="Truck" type="xs:string" substitutionGroup="Vehicle"/>'
        '<xs:element name="Pickup" type="xs:string" substitutionGroup="Truck"/>'
    )

    def test_members_surface_as_optional_siblings(self):
        parsed = parse_xsd(self.DOC, root_element="Root")
        names = [c.name for c in parsed.root.children]
        assert names[0] == "Vehicle"
        assert set(names) == {"Vehicle", "Car", "Truck", "Pickup"}
        car = parsed.find("Root/Car")
        assert car.min_occurs == 0
        assert car.properties["in_substitution"] == "Vehicle"

    def test_transitive_members_included(self):
        parsed = parse_xsd(self.DOC, root_element="Root")
        assert parsed.find("Root/Pickup") is not None

    def test_abstract_flag_kept(self):
        parsed = parse_xsd(self.DOC, root_element="Root")
        assert parsed.find("Root/Vehicle").properties.get("abstract") is True

    def test_members_inherit_compositor_max(self):
        parsed = parse_xsd(self.DOC, root_element="Root")
        assert parsed.find("Root/Car").max_occurs == UNBOUNDED

    def test_no_substitution_no_extra_children(self, po1_tree):
        assert [c.name for c in po1_tree.root.children] == [
            "OrderNo", "PurchaseInfo", "PurchaseDate",
        ]
