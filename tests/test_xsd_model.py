"""Unit tests for the schema tree model."""

import pytest

from repro.xsd.builder import attribute, element, tree
from repro.xsd.errors import SchemaValidationError
from repro.xsd.model import (
    NodeKind,
    SchemaNode,
    SchemaTree,
    UNBOUNDED,
    occurs_from_str,
    occurs_to_str,
)


class TestSchemaNode:
    def test_core_properties_always_present(self):
        node = SchemaNode("X")
        assert set(node.properties) >= {"type", "order", "min_occurs", "max_occurs"}

    def test_defaults(self):
        node = SchemaNode("X")
        assert node.type_name is None
        assert node.min_occurs == 1
        assert node.max_occurs == 1
        assert node.kind is NodeKind.ELEMENT
        assert node.is_leaf
        assert not node.is_attribute

    def test_name_must_be_nonempty_string(self):
        with pytest.raises(SchemaValidationError):
            SchemaNode("")
        with pytest.raises(SchemaValidationError):
            SchemaNode(None)

    def test_type_name_setter(self):
        node = SchemaNode("X")
        node.type_name = "integer"
        assert node.properties["type"] == "integer"

    def test_add_child_sets_parent_and_order(self):
        parent = SchemaNode("P")
        first = parent.add_child(SchemaNode("a"))
        second = parent.add_child(SchemaNode("b"))
        assert first.parent is parent
        assert first.order == 1
        assert second.order == 2

    def test_add_child_at_position_renumbers(self):
        parent = SchemaNode("P")
        parent.add_child(SchemaNode("a"))
        parent.add_child(SchemaNode("c"))
        parent.add_child(SchemaNode("b"), position=1)
        assert [c.name for c in parent.children] == ["a", "b", "c"]
        assert [c.order for c in parent.children] == [1, 2, 3]

    def test_add_child_moves_from_previous_parent(self):
        first_parent = SchemaNode("P1")
        second_parent = SchemaNode("P2")
        child = first_parent.add_child(SchemaNode("c"))
        second_parent.add_child(child)
        assert child.parent is second_parent
        assert first_parent.children == []

    def test_add_child_rejects_cycle(self):
        parent = SchemaNode("P")
        child = parent.add_child(SchemaNode("c"))
        with pytest.raises(SchemaValidationError, match="cycle"):
            child.add_child(parent)

    def test_add_child_rejects_self(self):
        node = SchemaNode("P")
        with pytest.raises(SchemaValidationError, match="cycle"):
            node.add_child(node)

    def test_attribute_cannot_have_children(self):
        attr = SchemaNode("a", kind=NodeKind.ATTRIBUTE)
        with pytest.raises(SchemaValidationError, match="cannot have children"):
            attr.add_child(SchemaNode("c"))

    def test_remove_child_renumbers(self):
        parent = SchemaNode("P")
        first = parent.add_child(SchemaNode("a"))
        second = parent.add_child(SchemaNode("b"))
        parent.remove_child(first)
        assert first.parent is None
        assert second.order == 1

    def test_level_root_is_zero(self):
        assert SchemaNode("X").level == 0

    def test_level_nested(self, nested_tree):
        assert nested_tree.find("R/group/inner/deep").level == 3

    def test_level_invalidated_on_reparent(self):
        root = SchemaNode("R")
        mid = root.add_child(SchemaNode("mid"))
        leaf = mid.add_child(SchemaNode("leaf"))
        assert leaf.level == 2
        root.add_child(leaf)  # move up
        assert leaf.level == 1

    def test_level_invalidated_for_descendants(self):
        root = SchemaNode("R")
        mid = SchemaNode("mid")
        leaf = mid.add_child(SchemaNode("leaf"))
        assert leaf.level == 1
        root.add_child(mid)
        assert leaf.level == 2

    def test_path(self, nested_tree):
        assert nested_tree.find("R/group/inner/deep").path == "R/group/inner/deep"

    def test_preorder_order(self, nested_tree):
        names = [n.name for n in nested_tree.root.iter_preorder()]
        assert names == ["R", "a", "group", "x", "inner", "deep"]

    def test_postorder_children_first(self, nested_tree):
        names = [n.name for n in nested_tree.root.iter_postorder()]
        assert names == ["a", "x", "deep", "inner", "group", "R"]
        assert names[-1] == "R"

    def test_iter_leaves(self, nested_tree):
        assert [n.name for n in nested_tree.root.iter_leaves()] == ["a", "x", "deep"]

    def test_find_missing_returns_none(self, nested_tree):
        assert nested_tree.root.find("nope") is None
        assert nested_tree.root.find("group/nope") is None

    def test_size_and_height(self, nested_tree):
        assert nested_tree.root.size == 6
        assert nested_tree.root.height == 3
        assert nested_tree.find("R/a").height == 0

    def test_copy_is_deep_and_detached(self, nested_tree):
        clone = nested_tree.root.copy()
        assert clone.parent is None
        assert clone.structurally_equal(nested_tree.root)
        clone.children[0].name = "changed"
        assert nested_tree.root.children[0].name == "a"

    def test_structurally_equal_detects_property_diff(self):
        left = element("X", type_name="string")
        right = element("X", type_name="integer")
        assert not left.structurally_equal(right)

    def test_structurally_equal_detects_child_count(self):
        left = element("X", element("a"))
        right = element("X")
        assert not left.structurally_equal(right)

    def test_repr_mentions_name_and_kind(self):
        text = repr(SchemaNode("Order", type_name="integer"))
        assert "Order" in text
        assert "element" in text


class TestSchemaTree:
    def test_rejects_parented_root(self):
        parent = SchemaNode("P")
        child = parent.add_child(SchemaNode("c"))
        with pytest.raises(SchemaValidationError):
            SchemaTree(child)

    def test_len_and_size(self, nested_tree):
        assert len(nested_tree) == nested_tree.size == 6

    def test_max_depth(self, nested_tree):
        assert nested_tree.max_depth == 3

    def test_iteration_is_preorder(self, nested_tree):
        assert [n.name for n in nested_tree] == ["R", "a", "group", "x", "inner", "deep"]

    def test_find_requires_root_prefix(self, nested_tree):
        assert nested_tree.find("R") is nested_tree.root
        assert nested_tree.find("group/x") is None
        assert nested_tree.find("R/group/x").name == "x"

    def test_nodes_with_predicate(self, nested_tree):
        leaves = nested_tree.nodes(lambda n: n.is_leaf)
        assert [n.name for n in leaves] == ["a", "x", "deep"]

    def test_copy_preserves_metadata(self, nested_tree):
        nested_tree.domain = "test-domain"
        clone = nested_tree.copy()
        assert clone.domain == "test-domain"
        assert clone.size == nested_tree.size
        assert clone.root is not nested_tree.root

    def test_validate_passes_for_good_tree(self, nested_tree):
        assert nested_tree.validate() is nested_tree

    def test_validate_rejects_bad_order(self):
        root = SchemaNode("R")
        root.add_child(SchemaNode("a"))
        root.children[0].properties["order"] = 7
        with pytest.raises(SchemaValidationError, match="order"):
            SchemaTree(root).validate()

    def test_validate_rejects_stale_parent(self):
        root = SchemaNode("R")
        child = root.add_child(SchemaNode("a"))
        child.parent = None
        with pytest.raises(SchemaValidationError, match="stale parent"):
            SchemaTree(root).validate()

    def test_validate_rejects_min_over_max(self):
        root = SchemaNode("R")
        root.add_child(SchemaNode("a", min_occurs=3, max_occurs=1))
        with pytest.raises(SchemaValidationError, match="min_occurs"):
            SchemaTree(root).validate()

    def test_validate_rejects_duplicate_sibling_names(self):
        root = SchemaNode("Order")
        lines = root.add_child(SchemaNode("Lines"))
        lines.add_child(SchemaNode("Item"))
        lines.add_child(SchemaNode("Item"))
        with pytest.raises(SchemaValidationError,
                           match="'Order/Lines'.*'Order/Lines/Item'"):
            SchemaTree(root).validate()

    def test_validate_accepts_unbounded(self):
        root = SchemaNode("R")
        root.add_child(SchemaNode("a", min_occurs=5, max_occurs=UNBOUNDED))
        SchemaTree(root).validate()

    def test_pairs_with_is_full_product(self, tiny_tree, nested_tree):
        pairs = list(tiny_tree.pairs_with(nested_tree))
        assert len(pairs) == tiny_tree.size * nested_tree.size

    def test_repr(self, nested_tree):
        assert "size=6" in repr(nested_tree)


class TestOccursHelpers:
    def test_roundtrip_numeric(self):
        assert occurs_from_str(occurs_to_str(5)) == 5

    def test_roundtrip_unbounded(self):
        assert occurs_to_str(UNBOUNDED) == "unbounded"
        assert occurs_from_str("unbounded") == UNBOUNDED

    def test_attribute_builder_required(self):
        attr = attribute("id", required=True)
        assert attr.min_occurs == 1
        assert attr.properties["use"] == "required"

    def test_attribute_builder_optional(self):
        attr = attribute("id")
        assert attr.min_occurs == 0
        assert attr.properties["use"] == "optional"
