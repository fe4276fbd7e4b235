"""Unit tests for the reference query-matching semantics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.trees.matching import count_matches, find_matches, match_corpus
from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn


@dataclass
class Q:
    """A minimal query node satisfying the QueryLike protocol."""

    label: str
    children: List["Q"] = field(default_factory=list)
    child_axes: List[str] = field(default_factory=list)

    def child(self, node: "Q", axis: str = "/") -> "Q":
        self.children.append(node)
        self.child_axes.append(axis)
        return self


def _sentence() -> ParseTree:
    text = (
        "(ROOT (S (NP (DT The) (NNS agouti)) "
        "(VP (VBZ is) (NP (DT a) (JJ short-tailed) (JJ plant-eating) (NN rodent)))))"
    )
    return ParseTree(parse_penn(text), tid=1)


class TestChildAxis:
    def test_single_node_query(self) -> None:
        tree = _sentence()
        assert count_matches(Q("NP"), tree) == 2
        assert count_matches(Q("VP"), tree) == 1
        assert count_matches(Q("XP"), tree) == 0

    def test_parent_child_query(self) -> None:
        tree = _sentence()
        query = Q("NP").child(Q("DT"))
        assert count_matches(query, tree) == 2

    def test_query_with_lexical_leaf(self) -> None:
        tree = _sentence()
        query = Q("NP").child(Q("DT").child(Q("a")))
        assert count_matches(query, tree) == 1

    def test_multi_child_query(self) -> None:
        tree = _sentence()
        query = Q("VP").child(Q("VBZ")).child(Q("NP"))
        assert count_matches(query, tree) == 1

    def test_unordered_children(self) -> None:
        tree = _sentence()
        query = Q("VP").child(Q("NP")).child(Q("VBZ"))
        assert count_matches(query, tree) == 1

    def test_paper_figure1_query(self) -> None:
        # The query of Figure 1(a) without the lexical leaves it drops.
        tree = _sentence()
        query = Q("S").child(
            Q("NP").child(Q("NNS").child(Q("agouti")))
        ).child(
            Q("VP").child(Q("VBZ").child(Q("is"))).child(Q("NP").child(Q("DT").child(Q("a"))).child(Q("NN")))
        )
        assert count_matches(query, tree) == 1


class TestDescendantAxis:
    def test_descendant_query(self) -> None:
        tree = _sentence()
        query = Q("S").child(Q("NN"), axis="//")
        assert count_matches(query, tree) == 1

    def test_descendant_not_matched_by_self(self) -> None:
        tree = _sentence()
        query = Q("NN").child(Q("NN"), axis="//")
        assert count_matches(query, tree) == 0

    def test_mixed_axes(self) -> None:
        tree = _sentence()
        query = Q("VP").child(Q("VBZ")).child(Q("rodent"), axis="//")
        assert count_matches(query, tree) == 1


class TestInjectivity:
    def test_duplicate_children_require_distinct_nodes(self) -> None:
        tree = ParseTree(parse_penn("(NP (NN a) (NN b))"), tid=0)
        two = Q("NP").child(Q("NN")).child(Q("NN"))
        three = Q("NP").child(Q("NN")).child(Q("NN")).child(Q("NN"))
        assert count_matches(two, tree) == 1
        assert count_matches(three, tree) == 0


class TestCorpusMatching:
    def test_find_matches_returns_nodes(self) -> None:
        tree = _sentence()
        nodes = find_matches(Q("NP").child(Q("DT")), tree)
        assert len(nodes) == 2
        assert all(node.label == "NP" for node in nodes)

    def test_match_corpus(self) -> None:
        trees = [_sentence(), ParseTree(parse_penn("(NP (DT the) (NN cat))"), tid=2)]
        results = match_corpus(Q("NP").child(Q("DT")), trees)
        assert results == {1: 2, 2: 1}
