"""Unit tests for Penn-bracket parsing and serialisation."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.enumeration import number
from repro.trees.node import Node, ParseTree, build_tree
from repro.trees.penn import PennSyntaxError, parse_penn, scan_penn, to_penn


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

    #: ``(text, message, position)`` as the character-by-character tokenizer
    #: that ``scan_penn`` replaced reported them.
    MALFORMED = [
        ("", "empty input", 0),
        ("   ", "empty input", 0),
        ("\n\t", "empty input", 0),
        ("(", "unexpected end of input after '('", 0),
        (")", "unbalanced ')'", 0),
        ("(NP", "unbalanced '(': missing closing bracket", 3),
        ("(NP (DT the)))", "unbalanced ')'", 13),
        ("()", "empty constituent '()'", 1),
        ("( )", "empty constituent '()'", 2),
        ("stray (NP (DT the))extra)", "unexpected token 'stray' outside brackets", 0),
        ("(A) (B)", "multiple root constituents", 4),
        ("(A)(B)", "multiple root constituents", 3),
        ("(A) B", "unexpected token 'B' outside brackets", 4),
        ("A B", "unexpected token 'A' outside brackets", 0),
        ("( (", "unexpected end of input after '('", 2),
        ("((A)", "unbalanced '(': missing closing bracket", 4),
        ("(A ())", "empty constituent '()'", 4),
        ("(()", "empty constituent '()'", 2),
        ("(A B", "unbalanced '(': missing closing bracket", 4),
        ("\n(A\n (B c))\n)", "unbalanced ')'", 12),
        (")(A)", "unbalanced ')'", 0),
        ("(A (B c)) )", "unbalanced ')'", 10),
        ("(A\t(B", "unbalanced '(': missing closing bracket", 5),
        ("(A (B c) ( ))", "empty constituent '()'", 11),
        ("  ( ( ", "unexpected end of input after '('", 4),
        ("x)", "unexpected token 'x' outside brackets", 0),
        ("(A))(", "unbalanced ')'", 3),
        ("(A (B c)))(D)", "unbalanced ')'", 9),
    ]

    @pytest.mark.parametrize("text, message, position", MALFORMED)
    def test_malformed_input_is_named_where_it_breaks(self, text: str, message: str, position: int) -> None:
        for read in (scan_penn, parse_penn):
            with pytest.raises(PennSyntaxError) as excinfo:
                read(text)
            assert (str(excinfo.value), excinfo.value.position) == (f"{message} (at position {position})", position)


#: Labels are Penn tokens: no whitespace, no bracket.
_labels = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"), blacklist_characters="()"),
    min_size=1, max_size=4,
).filter(lambda label: not any(char.isspace() for char in label))
_trees = st.recursive(
    _labels.map(lambda label: (label, [])),
    lambda children: st.tuples(_labels, st.lists(children, min_size=1, max_size=4)),
    max_leaves=15,
)
#: Any run of whitespace a reader must skip, newlines included.
_space = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\u00a0\u2028\u3000"), max_size=3)


@st.composite
def _written(draw, root: Node) -> str:
    """*root* in bracketed form with whitespace drawn around every token; a
    leaf is written bare or bracketed, at random."""
    if not root.children and root.parent is not None and draw(st.booleans()):
        return root.label
    parts = ["(", draw(_space), root.label]
    for child in root.children:
        parts += [draw(_space) + " ", draw(_written(child))]
    return "".join(parts + [draw(_space), ")"])


class TestScanPenn:
    """``scan_penn`` reads what ``parse_penn`` + ``to_penn`` + ``number``
    read, in one pass: the same record and the same numbering."""

    @staticmethod
    def _check(text: str, tree: Node) -> None:
        record, numbering = scan_penn(text)
        assert record == to_penn(tree) == to_penn(parse_penn(text))
        assert numbering == number(tree) == number(parse_penn(text))

    @given(_trees, st.data())
    def test_scan_reads_what_the_parse_render_and_number_read(self, shape, data) -> None:
        tree = build_tree(shape)
        text = data.draw(_space) + data.draw(_written(tree)) + data.draw(_space)
        self._check(text, tree)
        # The anonymous wrapper some parsers write is a ROOT above the tree.
        self._check(f"({data.draw(_space)}{text})", Node("ROOT", [build_tree(shape)]))

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("X", Node("X")),  # a bare label: a tree of one node, as written before brackets
            ("\n  X\t", Node("X")),
            ("(X)", Node("X")),
            ("( X )", Node("X")),
            ("( (X))", Node("ROOT", [Node("X")])),
            ("((A (B c)))", Node("ROOT", [build_tree(("A", [("B", ["c"])]))])),
            ("(A (B) (C d) e)", build_tree(("A", ["B", ("C", ["d"]), "e"]))),
        ],
    )
    def test_scan_of_small_and_wrapped_trees(self, text: str, tree: Node) -> None:
        self._check(text, tree)


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
