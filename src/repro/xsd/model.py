"""Schema tree model.

This is the data model every matcher in the library operates on.  It
mirrors the information axes the QMatch paper identifies for XML-Schema
elements (Section 2.1):

- the **label** axis -- :attr:`SchemaNode.name`;
- the **properties** axis -- :attr:`SchemaNode.properties`, a mapping that
  always contains ``type``, ``order``, ``min_occurs`` and ``max_occurs``
  and may carry further XSD facets (``use``, ``default``, ``fixed``,
  ``nillable``, ...);
- the **children** axis -- :attr:`SchemaNode.children`, the ordered list
  of sub-elements and attributes;
- the **level** axis -- :attr:`SchemaNode.level`, the nesting depth of the
  node in its tree (root is level 0).

Trees are ordinary mutable Python object graphs; :class:`SchemaTree` adds
tree-wide conveniences (size, depth, lookup by path) and the validation
pass used by the parser and the generators.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterator, Optional

from repro.xsd.errors import SchemaValidationError

#: ``max_occurs`` value representing XSD ``unbounded``.
UNBOUNDED = -1

#: Property keys that every node is guaranteed to carry.
CORE_PROPERTIES = ("type", "order", "min_occurs", "max_occurs")


class NodeKind(enum.Enum):
    """Whether a node came from an XSD element or an attribute."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"

    def __str__(self):
        return self.value


class SchemaNode:
    """One node of a schema tree: an element or attribute declaration.

    Parameters
    ----------
    name:
        The label of the node (the XSD ``name``).
    kind:
        :class:`NodeKind.ELEMENT` or :class:`NodeKind.ATTRIBUTE`.
    type_name:
        The (simple or complex) type name, e.g. ``"string"`` or
        ``"PurchaseOrderType"``.  ``None`` means an anonymous/unspecified
        type; matchers treat it as the most general type.
    min_occurs / max_occurs:
        Occurrence constraints; ``max_occurs`` may be :data:`UNBOUNDED`.
    properties:
        Extra property entries merged on top of the core properties.
    children:
        Initial children, appended via :meth:`add_child` so parent links
        and sibling order stay consistent.
    """

    __slots__ = ("name", "kind", "properties", "children", "parent", "_level")

    def __init__(
        self,
        name,
        kind=NodeKind.ELEMENT,
        type_name=None,
        min_occurs=1,
        max_occurs=1,
        properties=None,
        children=(),
    ):
        if not name or not isinstance(name, str):
            raise SchemaValidationError(f"node name must be a non-empty string, got {name!r}")
        self.name = name
        self.kind = kind
        self.properties = {
            "type": type_name,
            "order": None,  # 1-based position among siblings; set by add_child
            "min_occurs": min_occurs,
            "max_occurs": max_occurs,
        }
        if properties:
            self.properties.update(properties)
        self.children: list[SchemaNode] = []
        self.parent: Optional[SchemaNode] = None
        self._level: Optional[int] = None
        for child in children:
            self.add_child(child)

    # ------------------------------------------------------------------
    # Core properties
    # ------------------------------------------------------------------

    @property
    def type_name(self):
        """The node's declared type name (``properties['type']``)."""
        return self.properties.get("type")

    @type_name.setter
    def type_name(self, value):
        self.properties["type"] = value

    @property
    def order(self):
        """1-based position among siblings (``None`` for a root)."""
        return self.properties.get("order")

    @property
    def min_occurs(self):
        return self.properties.get("min_occurs", 1)

    @min_occurs.setter
    def min_occurs(self, value):
        self.properties["min_occurs"] = value

    @property
    def max_occurs(self):
        return self.properties.get("max_occurs", 1)

    @max_occurs.setter
    def max_occurs(self, value):
        self.properties["max_occurs"] = value

    @property
    def is_leaf(self):
        """True when the node has no children (a basic declaration)."""
        return not self.children

    @property
    def is_attribute(self):
        return self.kind is NodeKind.ATTRIBUTE

    @property
    def level(self):
        """Nesting depth: 0 for a root, parent's level + 1 otherwise.

        Cached; the cache is invalidated whenever the node is re-parented.
        """
        if self._level is None:
            self._level = 0 if self.parent is None else self.parent.level + 1
        return self._level

    @property
    def path(self):
        """Slash-separated label path from the root, e.g. ``PO/Lines/Item``."""
        parts = []
        node = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_child(self, child, position=None):
        """Append (or insert) ``child`` and fix its parent/order/level.

        Raises :class:`SchemaValidationError` if the child is an ancestor
        of this node (which would create a cycle) or if this node is an
        attribute (attributes are always leaves in XSD).
        """
        if self.is_attribute:
            raise SchemaValidationError(
                f"attribute node {self.name!r} cannot have children"
            )
        ancestor = self
        while ancestor is not None:
            if ancestor is child:
                raise SchemaValidationError(
                    f"adding {child.name!r} under {self.name!r} would create a cycle"
                )
            ancestor = ancestor.parent
        if child.parent is not None:
            child.parent.remove_child(child)
        if position is None:
            self.children.append(child)
        else:
            self.children.insert(position, child)
        child.parent = self
        child._invalidate_level()
        self._renumber_children()
        return child

    def remove_child(self, child):
        """Detach ``child``; re-numbers the remaining siblings."""
        self.children.remove(child)
        child.parent = None
        child._invalidate_level()
        self._renumber_children()
        return child

    def _renumber_children(self):
        for index, child in enumerate(self.children, start=1):
            child.properties["order"] = index

    def _invalidate_level(self):
        self._level = None
        for descendant in self.iter_preorder():
            descendant._level = None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def iter_preorder(self) -> Iterator["SchemaNode"]:
        """Yield this node then its descendants, depth-first, in order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_postorder(self) -> Iterator["SchemaNode"]:
        """Yield descendants before ancestors (children before parents)."""
        for child in self.children:
            yield from child.iter_postorder()
        yield self

    def iter_leaves(self) -> Iterator["SchemaNode"]:
        """Yield the leaves of the subtree rooted at this node."""
        for node in self.iter_preorder():
            if node.is_leaf:
                yield node

    def find(self, path) -> Optional["SchemaNode"]:
        """Look up a descendant by a label path relative to this node.

        ``node.find("Lines/Item")`` returns the first child named
        ``Lines`` and then its first child named ``Item``; ``None`` when
        any step is missing.
        """
        node = self
        for step in path.split("/"):
            for child in node.children:
                if child.name == step:
                    node = child
                    break
            else:
                return None
        return node

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    @property
    def size(self):
        """Number of nodes in the subtree rooted here (self included)."""
        return sum(1 for _ in self.iter_preorder())

    @property
    def height(self):
        """Number of edges on the longest downward path from this node."""
        if self.is_leaf:
            return 0
        return 1 + max(child.height for child in self.children)

    # ------------------------------------------------------------------
    # Copying & comparison
    # ------------------------------------------------------------------

    def copy(self) -> "SchemaNode":
        """Deep copy of the subtree rooted at this node (parent not kept)."""
        clone = SchemaNode(
            self.name,
            kind=self.kind,
            properties=dict(self.properties),
        )
        clone.properties["order"] = None
        for child in self.children:
            clone.add_child(child.copy())
        return clone

    def structurally_equal(self, other) -> bool:
        """True when both subtrees agree on every axis, recursively."""
        if (
            self.name != other.name
            or self.kind is not other.kind
            or self.properties != other.properties
            or len(self.children) != len(other.children)
        ):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self.children, other.children)
        )

    def __repr__(self):
        type_part = f":{self.type_name}" if self.type_name else ""
        return (
            f"<SchemaNode {self.kind} {self.name}{type_part}"
            f" children={len(self.children)} level={self.level}>"
        )


class SchemaTree:
    """A whole schema: a root node plus metadata.

    Parameters
    ----------
    root:
        The root :class:`SchemaNode`.
    name:
        Human-readable schema name (defaults to the root's label).
    domain:
        Optional domain tag (``"purchase-order"``, ``"protein"``, ...)
        used by the evaluation harness for grouping.
    target_namespace:
        The XSD ``targetNamespace``, if any.
    """

    def __init__(self, root, name=None, domain=None, target_namespace=None):
        if root.parent is not None:
            raise SchemaValidationError(
                f"tree root {root.name!r} must not have a parent"
            )
        self.root = root
        self.name = name or root.name
        self.domain = domain
        self.target_namespace = target_namespace

    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[SchemaNode]:
        return self.root.iter_preorder()

    def __len__(self):
        return self.size

    @property
    def size(self):
        """Total number of nodes (elements + attributes)."""
        return self.root.size

    @property
    def max_depth(self):
        """Maximum nesting level of any node (root = 0)."""
        return self.root.height

    @property
    def leaves(self) -> list[SchemaNode]:
        return list(self.root.iter_leaves())

    def nodes(self, predicate: Optional[Callable[[SchemaNode], bool]] = None):
        """All nodes in preorder, optionally filtered by ``predicate``."""
        if predicate is None:
            return list(self.root.iter_preorder())
        return [node for node in self.root.iter_preorder() if predicate(node)]

    def find(self, path) -> Optional[SchemaNode]:
        """Look up a node by absolute label path (``PO/Lines/Item``).

        The first path step must equal the root's label.
        """
        first, _, rest = path.partition("/")
        if first != self.root.name:
            return None
        if not rest:
            return self.root
        return self.root.find(rest)

    def copy(self) -> "SchemaTree":
        return SchemaTree(
            self.root.copy(),
            name=self.name,
            domain=self.domain,
            target_namespace=self.target_namespace,
        )

    def validate(self):
        """Check tree-wide invariants; raises :class:`SchemaValidationError`.

        Verified invariants:

        - parent/child links are mutually consistent;
        - sibling ``order`` properties are 1..n in document order;
        - occurrence ranges satisfy ``min <= max`` (unless unbounded);
        - attribute nodes are leaves;
        - sibling names are unique, so every node has a distinct label
          path (matchers key their results by path).
        """
        seen = set()
        for node in self.root.iter_preorder():
            if id(node) in seen:
                raise SchemaValidationError(
                    f"node {node.name!r} appears twice in the tree"
                )
            seen.add(id(node))
            names = set()
            for index, child in enumerate(node.children, start=1):
                if child.name in names:
                    raise SchemaValidationError(
                        f"duplicate sibling name: two children of "
                        f"{node.path!r} have the path {child.path!r}"
                    )
                names.add(child.name)
                if child.parent is not node:
                    raise SchemaValidationError(
                        f"child {child.name!r} of {node.name!r} has a stale parent link"
                    )
                if child.properties.get("order") != index:
                    raise SchemaValidationError(
                        f"child {child.name!r} of {node.name!r} has order "
                        f"{child.properties.get('order')!r}, expected {index}"
                    )
            minimum, maximum = node.min_occurs, node.max_occurs
            if maximum != UNBOUNDED and minimum > maximum:
                raise SchemaValidationError(
                    f"node {node.name!r} has min_occurs {minimum} > max_occurs {maximum}"
                )
            if node.is_attribute and node.children:
                raise SchemaValidationError(
                    f"attribute {node.name!r} has children"
                )
        return self

    # ------------------------------------------------------------------

    def pairs_with(self, other: "SchemaTree") -> Iterator[tuple[SchemaNode, SchemaNode]]:
        """Cartesian product of this tree's nodes with ``other``'s nodes.

        Convenience for matchers that build full score matrices.
        """
        return itertools.product(self.root.iter_preorder(), other.root.iter_preorder())

    def __repr__(self):
        return (
            f"<SchemaTree {self.name!r} size={self.size} "
            f"max_depth={self.max_depth} domain={self.domain!r}>"
        )


_XML_NAME_BAD = None  # compiled lazily to keep the import graph light


def xml_name(label: str) -> str:
    """A well-formed XML name for a schema label.

    Schema labels follow the paper's figures and may contain characters
    XML names forbid (``Item#``); anything serializing labels into
    actual XML tags (instances, translation) routes through this.
    Invalid characters become ``_`` and a leading digit is prefixed.
    """
    global _XML_NAME_BAD
    if _XML_NAME_BAD is None:
        import re

        _XML_NAME_BAD = re.compile(r"[^A-Za-z0-9_.\-]")
    cleaned = _XML_NAME_BAD.sub("_", label)
    if not cleaned or cleaned[0].isdigit() or cleaned[0] in ".-":
        cleaned = "_" + cleaned
    return cleaned


def occurs_to_str(value) -> str:
    """Render a ``min_occurs``/``max_occurs`` value for XSD output."""
    return "unbounded" if value == UNBOUNDED else str(value)


def occurs_from_str(text) -> int:
    """Parse an XSD occurrence attribute value."""
    return UNBOUNDED if text == "unbounded" else int(text)
