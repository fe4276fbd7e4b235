"""The interval numbering every index is built from (Section 3 of the paper):
:func:`repro.core.enumeration.number`'s ``(pre, post, level)`` codes answer
containment by arithmetic."""

from __future__ import annotations

from repro.core.enumeration import number
from repro.trees.node import ParseTree, build_tree
from repro.trees.penn import parse_penn


def _codes_by_label(tree: ParseTree) -> dict:
    labels, codes, _ = number(tree)
    return dict(zip(labels, codes))


def _ancestor(upper: tuple, lower: tuple) -> bool:
    return upper[0] < lower[0] and upper[1] > lower[1]


class TestNumber:
    def test_pre_numbers_follow_preorder(self) -> None:
        tree = ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)
        labels, codes, _ = number(tree)
        assert labels == [node.label for node in tree.preorder()]
        assert [pre for pre, _, _ in codes] == list(range(1, tree.size() + 1))

    def test_post_numbers_are_a_permutation(self) -> None:
        tree = ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)
        posts = sorted(post for _, post, _ in number(tree)[1])
        assert posts == list(range(1, tree.size() + 1))

    def test_levels(self) -> None:
        tree = ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)
        by_label = _codes_by_label(tree)
        assert by_label["S"][2] == 0
        assert by_label["NP"][2] == 1
        assert by_label["DT"][2] == 2

    def test_ancestor_relation(self) -> None:
        tree = ParseTree(parse_penn("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))"), tid=0)
        by_label = _codes_by_label(tree)
        assert _ancestor(by_label["S"], by_label["DT"])
        assert _ancestor(by_label["NP"], by_label["NN"])
        assert not _ancestor(by_label["NP"], by_label["VBZ"])
        assert not _ancestor(by_label["DT"], by_label["S"])

    def test_parent_relation(self) -> None:
        tree = ParseTree(parse_penn("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))"), tid=0)
        by_label = _codes_by_label(tree)

        def is_parent(upper: str, lower: str) -> bool:
            a, d = by_label[upper], by_label[lower]
            return _ancestor(a, d) and a[2] + 1 == d[2]

        assert is_parent("NP", "DT")
        assert not is_parent("S", "DT")
        assert is_parent("S", "NP")

    def test_containment_matches_descendant_sets(self) -> None:
        tree = ParseTree(parse_penn("(S (NP (DT the) (NN dog)) (VP (VBZ barks) (NP (NNS cats))))"), tid=0)
        nodes = list(tree.preorder())
        codes = number(tree)[1]
        for node, upper in zip(nodes, codes):
            descendants = {id(d) for d in node.descendants()}
            for other, lower in zip(nodes, codes):
                assert _ancestor(upper, lower) == (id(other) in descendants)
