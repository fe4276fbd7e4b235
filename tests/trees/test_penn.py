"""Unit tests for Penn-bracket parsing and serialisation."""

from __future__ import annotations

import re

import pytest

from repro.trees.node import Node, ParseTree
from repro.trees.penn import PennSyntaxError, parse_penn, parse_penn_corpus, to_penn


class TestParsePenn:
    def test_simple_tree(self) -> None:
        tree = parse_penn("(NP (DT the) (NN dog))")
        assert tree.label == "NP"
        assert [child.label for child in tree.children] == ["DT", "NN"]
        assert tree.tokens() == ["the", "dog"]

    def test_nested_tree(self) -> None:
        tree = parse_penn("(S (NP (NN agouti)) (VP (VBZ is) (NP (DT a) (NN rodent))))")
        assert tree.size() == 12
        assert tree.tokens() == ["agouti", "is", "a", "rodent"]

    def test_whitespace_tolerance(self) -> None:
        tree = parse_penn("  ( NP   ( DT the )\n ( NN dog ) ) ")
        assert tree.tokens() == ["the", "dog"]

    def test_anonymous_root_wrapper(self) -> None:
        tree = parse_penn("( (S (NP (NN cats)) (VP (VBP purr))))")
        assert tree.label == "ROOT"
        assert tree.children[0].label == "S"

    def test_round_trip(self) -> None:
        text = "(S (NP (DT the) (NN dog)) (VP (VBZ barks)))"
        assert to_penn(parse_penn(text)) == text

    def test_a_tree_of_one_node_round_trips(self) -> None:
        assert to_penn(Node("X")) == to_penn(Node("X"), pretty=True) == "(X)"
        assert to_penn(parse_penn("(X)")) == "(X)"
        leaf = parse_penn("(NP dog)").children[0]
        assert to_penn(leaf) == "dog"  # a token inside a tree stays bare
        # The bare form an earlier to_penn wrote for such a tree is still read.
        old = parse_penn(" X ")
        assert (old.label, old.children) == ("X", [])

    def test_pretty_round_trip(self) -> None:
        text = "(S (NP (DT the) (NN dog)) (VP (VBZ barks) (PP (IN at) (NP (NN cats)))))"
        pretty = to_penn(parse_penn(text), pretty=True)
        assert parse_penn(pretty).structurally_equal(parse_penn(text))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(",
            ")",
            "(NP",
            "(NP (DT the)))",
            "()",
            "stray (NP (DT the))extra" + ")",
        ],
    )
    def test_malformed_input_raises(self, bad: str) -> None:
        with pytest.raises(PennSyntaxError):
            parse_penn(bad)

    def test_error_reports_position(self) -> None:
        with pytest.raises(PennSyntaxError) as excinfo:
            parse_penn("(NP (DT the)")
        assert excinfo.value.position >= 0


class TestLabelsWithoutAPennForm:
    """The one-line form is what data files and the write-ahead log store:
    it round-trips every tree whose labels are Penn tokens and refuses the
    others by label."""

    def test_every_generated_tree_round_trips(self, small_corpus) -> None:
        for tree in list(small_corpus) + [ParseTree(Node("X"))]:
            assert parse_penn(to_penn(tree.root)).structurally_equal(tree.root)

    @pytest.mark.parametrize("label", ["", "the dog", "a)", "(b", "tab\there", "no\u00a0break"])
    def test_refuses_a_label_without_a_penn_form(self, label: str) -> None:
        for root in (Node("S", [Node("NP", [Node(label)])]), Node(label, [Node("NP")]), Node(label)):
            with pytest.raises(ValueError, match=re.escape(repr(label))):
                to_penn(root)


class TestParseCorpus:
    def test_sequential_tids(self) -> None:
        lines = ["(NP (NN a))", "", "# comment", "(NP (NN b))"]
        trees = list(parse_penn_corpus(lines))
        assert [tree.tid for tree in trees] == [0, 1]
        assert trees[1].tokens() == ["b"]

    def test_start_tid(self) -> None:
        trees = list(parse_penn_corpus(["(NP (NN a))"], start_tid=100))
        assert trees[0].tid == 100
