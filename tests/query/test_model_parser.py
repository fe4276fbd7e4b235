"""Unit tests for the query model and the query parser."""

from __future__ import annotations

import pytest

from repro.query.model import QueryNode, has_duplicate_siblings, query_from_tree
from repro.query.parser import QuerySyntaxError, parse_query
from repro.trees.node import build_tree


class TestQueryModel:
    def test_add_child_and_axes(self) -> None:
        root = QueryNode("S")
        np = root.add_child(QueryNode("NP"))
        vp = root.add_child(QueryNode("VP"), axis="//")
        assert root.child_axes == ["/", "//"]
        assert np.parent is root and np.parent_axis == "/"
        assert vp.parent is root and vp.parent_axis == "//"

    def test_invalid_axis_rejected(self) -> None:
        with pytest.raises(ValueError):
            QueryNode("S").add_child(QueryNode("NP"), axis="///")

    def test_query_tree_assigns_preorder_ids(self) -> None:
        query = parse_query("S(NP(DT)(NN))(VP)")
        labels_by_id = [query.node(i).label for i in range(query.size())]
        assert labels_by_id == ["S", "NP", "DT", "NN", "VP"]

    def test_edges(self) -> None:
        query = parse_query("S(NP)(//VP(VBZ))")
        edges = [(p.label, c.label, axis) for p, c, axis in query.edges()]
        assert ("S", "NP", "/") in edges
        assert ("S", "VP", "//") in edges
        assert ("VP", "VBZ", "/") in edges

    def test_copy_is_independent(self) -> None:
        query = parse_query("S(NP)(VP)")
        clone = query.copy()
        clone.root.label = "X"
        assert query.root.label == "S"
        assert clone.size() == query.size()

    def test_query_from_node(self) -> None:
        data = build_tree(("NP", [("DT", ["the"]), ("NN", ["dog"])]))
        query = query_from_tree(data)
        assert query.size() == 5
        assert all(axis == "/" for _, _, axis in query.edges())

    def test_has_duplicate_siblings(self) -> None:
        assert has_duplicate_siblings(parse_query("NP(NN)(NN)"))
        assert not has_duplicate_siblings(parse_query("NP(NN)(NNS)"))
        assert has_duplicate_siblings(parse_query("S(NP(DT)(NN))(NP(NN)(DT))"))
        assert not has_duplicate_siblings(parse_query("S(NP(DT))(NP(NN))"))


class TestParser:
    def test_bracket_form(self) -> None:
        query = parse_query("S(NP(NNS(agouti)))(VP)")
        assert query.labels() == ["S", "NP", "NNS", "agouti", "VP"]
        assert all(axis == "/" for _, _, axis in query.edges())

    def test_descendant_axis_in_brackets(self) -> None:
        query = parse_query("S(//NN)")
        (_, child, axis), = query.edges()
        assert child.label == "NN"
        assert axis == "//"

    def test_linear_path_form(self) -> None:
        query = parse_query("S/NP//NN")
        assert query.labels() == ["S", "NP", "NN"]
        assert [axis for _, _, axis in query.edges()] == ["/", "//"]

    def test_mixed_form(self) -> None:
        query = parse_query("VP(VBZ/is)(NP//NN)")
        assert query.labels() == ["VP", "VBZ", "is", "NP", "NN"]
        axes = {(p.label, c.label): axis for p, c, axis in query.edges()}
        assert axes[("VBZ", "is")] == "/"
        assert axes[("NP", "NN")] == "//"

    def test_whitespace_tolerated(self) -> None:
        query = parse_query("  S ( NP ( DT ) ) ( VP ) ")
        assert query.labels() == ["S", "NP", "DT", "VP"]

    def test_round_trip_via_to_string(self) -> None:
        text = "S(NP(DT)(NN))(//VP(VBZ))"
        query = parse_query(text)
        assert parse_query(query.to_string()).to_string() == query.to_string()

    @pytest.mark.parametrize("bad", ["", "(", "S(", "S(NP", "S(NP))", "S()", "/NP", "S(NP)x)"])
    def test_malformed_queries_rejected(self, bad: str) -> None:
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)
