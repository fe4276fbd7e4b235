"""Unit tests for the tree data model."""

from __future__ import annotations

import pytest

from repro.trees.node import Node, ParseTree, build_tree


@pytest.fixture()
def sample() -> Node:
    return build_tree(("S", [("NP", [("DT", []), ("NN", [])]), ("VP", [("VBZ", [])])]))


class TestNodeBasics:
    def test_build_tree_from_spec(self, sample: Node) -> None:
        assert sample.label == "S"
        assert [child.label for child in sample.children] == ["NP", "VP"]

    def test_build_tree_accepts_string_leaves(self) -> None:
        tree = build_tree(("NP", ["DT", "NN"]))
        assert [child.label for child in tree.children] == ["DT", "NN"]
        assert all(child.is_leaf for child in tree.children)

    def test_size(self, sample: Node) -> None:
        assert sample.size() == 6

    def test_leaf_properties(self, sample: Node) -> None:
        leaves = list(sample.leaves())
        assert [leaf.label for leaf in leaves] == ["DT", "NN", "VBZ"]
        assert all(leaf.is_leaf for leaf in leaves)
        assert all(leaf.degree == 0 for leaf in leaves)

    def test_parent_links_set_on_construction(self, sample: Node) -> None:
        np = sample.children[0]
        assert np.parent is sample
        assert np.children[0].parent is np
        assert sample.parent is None

    def test_add_child_sets_parent(self) -> None:
        root = Node("A")
        child = root.add_child(Node("B"))
        assert child.parent is root
        assert root.children == [child]

    def test_depth(self, sample: Node) -> None:
        assert sample.depth() == 0
        assert sample.children[0].depth() == 1
        assert sample.children[0].children[1].depth() == 2


class TestTraversals:
    def test_preorder_sequence(self, sample: Node) -> None:
        assert [node.label for node in sample.preorder()] == [
            "S", "NP", "DT", "NN", "VP", "VBZ",
        ]

    def test_postorder_sequence(self, sample: Node) -> None:
        assert [node.label for node in sample.postorder()] == [
            "DT", "NN", "NP", "VBZ", "VP", "S",
        ]

    def test_descendants_excludes_self(self, sample: Node) -> None:
        labels = [node.label for node in sample.descendants()]
        assert "S" not in labels
        assert len(labels) == sample.size() - 1

    def test_ancestors_nearest_first(self, sample: Node) -> None:
        dt = sample.children[0].children[0]
        assert [node.label for node in dt.ancestors()] == ["NP", "S"]

    def test_find_label(self, sample: Node) -> None:
        assert len(list(sample.find_label("NN"))) == 1
        assert len(list(sample.find_label("XX"))) == 0


class TestEqualityAndCopy:
    def test_copy_is_deep(self, sample: Node) -> None:
        clone = sample.copy()
        assert clone is not sample
        assert clone.structurally_equal(sample)
        clone.children[0].label = "XP"
        assert sample.children[0].label == "NP"

    def test_ordered_equality_respects_order(self) -> None:
        a = build_tree(("A", ["B", "C"]))
        b = build_tree(("A", ["C", "B"]))
        assert not a.structurally_equal(b, ordered=True)

    def test_unordered_equality_ignores_order(self) -> None:
        a = build_tree(("A", ["B", "C"]))
        b = build_tree(("A", ["C", "B"]))
        assert a.structurally_equal(b, ordered=False)

    def test_unordered_equality_is_multiset_sensitive(self) -> None:
        a = build_tree(("A", ["B", "B", "C"]))
        b = build_tree(("A", ["B", "C", "C"]))
        assert not a.structurally_equal(b, ordered=False)

    def test_compact_string(self) -> None:
        tree = build_tree(("A", [("B", []), ("C", [("D", [])])]))
        assert tree.to_compact_string() == "A(B)(C(D))"


class TestParseTree:
    def test_parse_tree_wraps_root(self, sample: Node) -> None:
        tree = ParseTree(sample, tid=42)
        assert tree.tid == 42
        assert tree.size() == 6
        assert len(tree) == 6
        assert tree.tokens() == ["DT", "NN", "VBZ"]

    def test_copy_preserves_tid(self, sample: Node) -> None:
        tree = ParseTree(sample, tid=9)
        assert tree.copy().tid == 9
