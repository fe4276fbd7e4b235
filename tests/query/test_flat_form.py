"""The flat form against the node form it replaced.

A query is four pre-order arrays (label, parent, axis, canonical text by
node id) that the parser fills in one pass; ``QueryTree(root)`` fills the
same arrays from nodes built by hand, and the nodes a caller walks are built
from the arrays.  For query trees over a small alphabet -- same-label
siblings, twins, both axes -- written in the bracketed form, the path form
and with whitespace between the tokens, this property holds the two forms
to each other, and every compiled key to
:func:`repro.core.keys.canonical_key` of its node set over the nodes built
from the arrays: the oracle is the data side's canonicaliser, not the
compiler.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, strategies as st

from repro.core.keys import canonical_key
from repro.query.decompose import compile_query
from repro.query.model import QueryNode, QueryTree
from repro.query.parser import parse_query

_WHITESPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


@st.composite
def hand_built(draw) -> QueryNode:
    """A query tree of 1-8 nodes over ``{A, B, C}``, each node below an
    earlier one, on either axis."""
    nodes = [QueryNode(draw(st.sampled_from("ABC")))]
    for at in range(1, draw(st.integers(min_value=1, max_value=8))):
        parent = nodes[draw(st.integers(min_value=0, max_value=at - 1))]
        axis = draw(st.sampled_from(["/", "/", "//"]))
        nodes.append(parent.add_child(QueryNode(draw(st.sampled_from("ABC"))), axis))
    return nodes[0]


def _path_form(node: QueryNode) -> str:
    """*node* with its last child written as a path step: ``A(B)/C``."""
    if not node.children:
        return node.label
    heads = [f"({'//' if axis == '//' else ''}{_path_form(child)})" for child, axis in zip(node.children, node.child_axes)]
    return node.label + "".join(heads[:-1]) + node.child_axes[-1] + _path_form(node.children[-1])


def _tokens(node: QueryNode) -> List[str]:
    """The bracketed form of *node* as tokens: labels, brackets and axes."""
    out = [node.label]
    for child, axis in zip(node.children, node.child_axes):
        out += ["(", "//"] if axis == "//" else ["("]
        out += _tokens(child) + [")"]
    return out


def _arrays(query: QueryTree) -> tuple:
    return query.label_of, query.parent_of, query.axis_of, query.text_of


@given(root=hand_built(), data=st.data())
def test_the_parser_and_the_nodes_give_one_flat_form(root: QueryNode, data) -> None:
    by_hand = QueryTree(root)
    tokens = _tokens(root)
    gaps = [data.draw(_WHITESPACE) for _ in range(len(tokens) + 1)]
    spaced = "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
    for text in (root.to_string(), _path_form(root), spaced):
        parsed = parse_query(text)
        assert _arrays(parsed) == _arrays(by_hand), text
        # The nodes built from the arrays read back as the arrays do.
        assert parsed.root.to_string() == parsed.to_string() == by_hand.to_string() == root.to_string()
        assert [node.node_id for node in parsed.nodes()] == list(range(parsed.size()))

    query = parse_query(spaced)
    edges = [(upper.node_id, lower.node_id, axis == "/") for upper, lower, axis in query.edges()]
    for strategy in ("min-rc", "optimal"):
        for mss in range(1, 6):
            for pad in (True, False):
                cover = compile_query(query, mss, strategy, pad)
                assert list(cover.edges) == edges
                for subtree in cover.subtrees:

                    def held(node: QueryNode) -> List[QueryNode]:
                        return [
                            child for child, axis in zip(node.children, node.child_axes)
                            if axis == "/" and child.node_id in subtree.node_ids
                        ]

                    key, ordered = canonical_key(query.node(subtree.root_id), children_of=held)
                    assert subtree.key_bytes() == key, (strategy, mss, pad)
                    assert {node.node_id for node in ordered} == subtree.node_ids, (strategy, mss, pad)
