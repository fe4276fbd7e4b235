"""Unit tests for the interval numbering scheme."""

from __future__ import annotations

from repro.trees.node import ParseTree, build_tree
from repro.trees.numbering import number_tree
from repro.trees.penn import parse_penn


def _codes_by_label(tree: ParseTree) -> dict:
    codes = number_tree(tree)
    return {node.label: codes[id(node)] for node in tree.preorder()}


class TestNumberTree:
    def test_pre_numbers_follow_preorder(self) -> None:
        tree = ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)
        codes = number_tree(tree)
        pres = [codes[id(node)].pre for node in tree.preorder()]
        assert pres == sorted(pres)
        assert pres[0] == 1
        assert len(set(pres)) == tree.size()

    def test_post_numbers_are_a_permutation(self) -> None:
        tree = ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)
        codes = number_tree(tree)
        posts = sorted(code.post for code in codes.values())
        assert posts == list(range(1, tree.size() + 1))

    def test_levels(self) -> None:
        tree = ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)
        by_label = _codes_by_label(tree)
        assert by_label["S"].level == 0
        assert by_label["NP"].level == 1
        assert by_label["DT"].level == 2

    def test_ancestor_relation(self) -> None:
        tree = ParseTree(parse_penn("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))"), tid=0)
        by_label = _codes_by_label(tree)

        def is_ancestor(upper: str, lower: str) -> bool:
            a, d = by_label[upper], by_label[lower]
            return a.pre < d.pre and a.post > d.post

        assert is_ancestor("S", "DT")
        assert is_ancestor("NP", "NN")
        assert not is_ancestor("NP", "VBZ")
        assert not is_ancestor("DT", "S")

    def test_parent_relation(self) -> None:
        tree = ParseTree(parse_penn("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))"), tid=0)
        by_label = _codes_by_label(tree)

        def is_parent(upper: str, lower: str) -> bool:
            a, d = by_label[upper], by_label[lower]
            return a.pre < d.pre and a.post > d.post and a.level + 1 == d.level

        assert is_parent("NP", "DT")
        assert not is_parent("S", "DT")
        assert is_parent("S", "NP")

    def test_containment_matches_descendant_sets(self) -> None:
        tree = ParseTree(parse_penn("(S (NP (DT the) (NN dog)) (VP (VBZ barks) (NP (NNS cats))))"), tid=0)
        codes = number_tree(tree)
        for node in tree.preorder():
            descendants = {id(d) for d in node.descendants()}
            for other in tree.preorder():
                expected = id(other) in descendants
                upper, lower = codes[id(node)], codes[id(other)]
                assert (upper.pre < lower.pre and upper.post > lower.post) == expected

