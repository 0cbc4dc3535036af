"""Serialization of schema trees back to XSD and to a compact text form.

``to_xsd`` produces a self-contained (Russian-doll style, all anonymous
types) XML Schema document that :func:`repro.xsd.parser.parse_xsd` parses
back into an equivalent tree -- round-tripping is covered by property
tests.  ``to_compact_text`` produces the indented one-line-per-node view
used in CLI output, examples and test assertions::

    PO {type=POType}
      OrderNo : integer
      PurchaseInfo
        BillingAddr : string
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from repro.xsd.model import SchemaNode, SchemaTree, UNBOUNDED, occurs_to_str

_XS = "xs"
_XSD_URI = "http://www.w3.org/2001/XMLSchema"

#: XSD built-in simple types; anything else is treated as a custom type
#: and therefore *not* emitted as a leaf ``type`` attribute.
BUILTIN_SIMPLE_TYPES = frozenset({
    "string", "normalizedString", "token", "boolean", "decimal", "float",
    "double", "integer", "nonPositiveInteger", "negativeInteger", "long",
    "int", "short", "byte", "nonNegativeInteger", "unsignedLong",
    "unsignedInt", "unsignedShort", "unsignedByte", "positiveInteger",
    "date", "time", "dateTime", "duration", "gYear", "gYearMonth",
    "gMonth", "gMonthDay", "gDay", "anyURI", "QName", "NOTATION",
    "hexBinary", "base64Binary", "ID", "IDREF", "IDREFS", "ENTITY",
    "ENTITIES", "NMTOKEN", "NMTOKENS", "Name", "NCName", "language",
    "anySimpleType", "anyType",
})


def _qualify(local_name):
    return f"{_XS}:{local_name}"


def to_xsd(tree: SchemaTree, pretty=True) -> str:
    """Render a schema tree as an XML Schema document string.

    ``pretty`` (the default) gives the canonical form the service and
    the result store hash: an XML declaration, then one element per
    line, indented two spaces per level, with no whitespace-only lines.
    Raises ``TypeError`` for a non-string name or value and
    ``ValueError`` for text holding a character XML cannot carry.
    """
    ET.register_namespace(_XS, _XSD_URI)
    schema = ET.Element(_qualify("schema"), {f"xmlns:{_XS}": _XSD_URI})
    if tree.target_namespace:
        schema.set("targetNamespace", tree.target_namespace)
        schema.set("elementFormDefault", "qualified")
    schema.append(_element_to_xsd(tree.root, is_root=True))
    if not pretty:
        return ET.tostring(schema, encoding="unicode")
    out = ['<?xml version="1.0" ?>\n']
    _write_pretty(schema, "", out)
    text = "".join(out)
    invalid = _NON_XML_CHAR.search(text)
    if invalid is not None:
        raise ValueError(
            f"cannot serialize {invalid.group()!r}: not an XML character"
        )
    # A name or text value may itself break lines; like the document's
    # own line breaks, those become "\n", and lines left holding only
    # whitespace are dropped.
    return "\n".join(line for line in text.splitlines() if line.strip())


#: Characters outside XML 1.0's ``Char`` production.
_NON_XML_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)

#: A qualified tag this module may write: ``xs:`` plus an NCName.  The
#: compositor and facet tags come from node properties, so are checked.
_TAG = re.compile(r"xs:[^\W\d][\w.\-]*\Z")
_FIXED_TAGS = frozenset(_qualify(name) for name in (
    "schema", "element", "attribute", "annotation", "documentation",
    "complexType", "simpleType", "restriction", "enumeration", "sequence",
))


def _escape(value) -> str:
    """Text or attribute value with ``& < " >`` escaped."""
    if not isinstance(value, str):
        raise TypeError(
            f"cannot serialize {value!r} (type {type(value).__name__})"
        )
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if '"' in value:
        value = value.replace('"', "&quot;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def _write_pretty(element: ET.Element, indent: str, out: list):
    """Append ``element`` to ``out``, one line per element.

    Elements built here carry either child elements or text, never
    both, so text always stays inline with its tags.
    """
    tag = element.tag
    if tag not in _FIXED_TAGS and not _TAG.match(tag):
        raise ValueError(f"cannot serialize tag {tag!r}")
    attrs = "".join(
        f' {name}="{_escape(value)}"' for name, value in element.items()
    )
    if len(element):
        out.append(f"{indent}<{tag}{attrs}>\n")
        inner = indent + "  "
        for child in element:
            _write_pretty(child, inner, out)
        out.append(f"{indent}</{tag}>\n")
    elif element.text:
        out.append(f"{indent}<{tag}{attrs}>{_escape(element.text)}</{tag}>\n")
    else:
        out.append(f"{indent}<{tag}{attrs}/>\n")


def _element_to_xsd(node: SchemaNode, is_root=False) -> ET.Element:
    declaration = ET.Element(_qualify("element"), {"name": node.name})
    if not is_root:
        if node.min_occurs != 1:
            declaration.set("minOccurs", occurs_to_str(node.min_occurs))
        if node.max_occurs != 1:
            declaration.set("maxOccurs", occurs_to_str(node.max_occurs))
    if node.properties.get("nillable"):
        declaration.set("nillable", "true")
    if node.properties.get("default") is not None:
        declaration.set("default", str(node.properties["default"]))
    _append_documentation(declaration, node)

    elements = [child for child in node.children if not child.is_attribute]
    attributes = [child for child in node.children if child.is_attribute]

    if not node.children:
        if node.type_name and node.type_name in BUILTIN_SIMPLE_TYPES:
            declaration.set("type", _qualify(node.type_name))
            _append_facets(declaration, node)
        elif node.type_name:
            # Custom simple type rendered as an anonymous restriction of
            # string so the document stays self-contained.
            simple = ET.SubElement(declaration, _qualify("simpleType"))
            ET.SubElement(
                simple, _qualify("restriction"), {"base": _qualify("string")}
            )
        return declaration

    complex_type = ET.SubElement(declaration, _qualify("complexType"))
    if node.properties.get("mixed"):
        complex_type.set("mixed", "true")
    if elements:
        compositor_name = node.properties.get("compositor", "sequence")
        compositor = ET.SubElement(complex_type, _qualify(compositor_name))
        for child in elements:
            compositor.append(_element_to_xsd(child))
    for child in attributes:
        complex_type.append(_attribute_to_xsd(child))
    return declaration


def _attribute_to_xsd(node: SchemaNode) -> ET.Element:
    attrs = {"name": node.name}
    type_name = node.type_name or "string"
    if type_name in BUILTIN_SIMPLE_TYPES:
        attrs["type"] = _qualify(type_name)
    if node.properties.get("use") == "required":
        attrs["use"] = "required"
    if node.properties.get("default") is not None:
        attrs["default"] = str(node.properties["default"])
    declaration = ET.Element(_qualify("attribute"), attrs)
    if type_name not in BUILTIN_SIMPLE_TYPES:
        simple = ET.SubElement(declaration, _qualify("simpleType"))
        ET.SubElement(
            simple, _qualify("restriction"), {"base": _qualify("string")}
        )
    return declaration


def _append_documentation(declaration, node):
    documentation = node.properties.get("documentation")
    if not documentation:
        return
    annotation = ET.SubElement(declaration, _qualify("annotation"))
    doc = ET.SubElement(annotation, _qualify("documentation"))
    doc.text = documentation


def _append_facets(declaration, node):
    facets = node.properties.get("facets")
    if not facets:
        return
    type_attr = declaration.attrib.pop("type")
    simple = ET.SubElement(declaration, _qualify("simpleType"))
    restriction = ET.SubElement(
        simple, _qualify("restriction"), {"base": type_attr}
    )
    for facet_name, value in facets.items():
        if facet_name == "enumeration":
            for entry in value:
                ET.SubElement(
                    restriction, _qualify("enumeration"), {"value": entry}
                )
        else:
            ET.SubElement(restriction, _qualify(facet_name), {"value": str(value)})


def to_compact_text(tree: SchemaTree, show_properties=False) -> str:
    """Render a tree as indented text, one node per line.

    With ``show_properties=True`` each line carries the non-default
    property entries in ``{key=value}`` form; otherwise only the type is
    shown (``Name : type``).
    """
    lines = []
    _compact_lines(tree.root, 0, lines, show_properties)
    return "\n".join(lines)


def _compact_lines(node, indent, lines, show_properties):
    marker = "@" if node.is_attribute else ""
    text = f"{'  ' * indent}{marker}{node.name}"
    if node.type_name:
        text += f" : {node.type_name}"
    if show_properties:
        extras = _interesting_properties(node)
        if extras:
            rendered = ", ".join(f"{key}={value}" for key, value in extras)
            text += f" {{{rendered}}}"
    lines.append(text)
    for child in node.children:
        _compact_lines(child, indent + 1, lines, show_properties)


def _interesting_properties(node):
    skip = {"type", "order"}
    defaults = {"min_occurs": 1 if not node.is_attribute else None,
                "max_occurs": 1}
    extras = []
    for key in sorted(node.properties):
        if key in skip:
            continue
        value = node.properties[key]
        if value is None or value == defaults.get(key):
            continue
        if key == "max_occurs" and value == UNBOUNDED:
            value = "unbounded"
        extras.append((key, value))
    return extras
