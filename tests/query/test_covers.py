"""Unit tests for cover data structures and predicates."""

from __future__ import annotations

import pytest

from repro.query.covers import (
    Cover,
    CoverSubtree,
    has_deep_branching_anomaly,
    is_node_cover,
    is_root_split_cover,
    is_valid_cover,
)
from repro.query.parser import parse_query


class TestCoverSubtree:
    def test_key_of_simple_subtree(self) -> None:
        query = parse_query("NP(NN)(DT)")
        subtree = CoverSubtree(query.root, frozenset(range(query.size())))
        key, positions = subtree.key()
        assert key == b"NP(DT)(NN)"
        # Canonical order: NP, DT, NN -> positions follow the sorted children.
        assert positions[query.root.node_id] == 0
        assert positions[query.node(2).node_id] == 1  # DT
        assert positions[query.node(1).node_id] == 2  # NN

    def test_size(self) -> None:
        query = parse_query("S(NP(DT))(VP)")
        subtree = CoverSubtree(query.root, frozenset({0, 1}))
        assert subtree.size == 2

    def test_disconnected_subtree_rejected(self) -> None:
        query = parse_query("S(NP(DT))(VP)")
        # S and DT without NP in between is not connected.
        subtree = CoverSubtree(query.root, frozenset({0, 2}))
        with pytest.raises(ValueError):
            subtree.validate()

    def test_descendant_edge_not_part_of_key(self) -> None:
        query = parse_query("S(//NN)")
        subtree = CoverSubtree(query.root, frozenset(range(query.size())))
        with pytest.raises(ValueError):
            subtree.validate()

    def test_query_nodes_listing(self) -> None:
        query = parse_query("NP(DT)(NN)")
        subtree = CoverSubtree(query.root, frozenset(range(query.size())))
        assert {node.label for node in subtree.query_nodes()} == {"NP", "DT", "NN"}


class TestCoverPredicates:
    def test_node_cover_detection(self) -> None:
        query = parse_query("S(NP)(VP)")
        full = Cover(query, [CoverSubtree(query.root, frozenset(range(query.size())))])
        partial = Cover(query, [CoverSubtree(query.root, frozenset({0, 1}))])
        assert is_node_cover(full)
        assert not is_node_cover(partial)

    def test_valid_cover_respects_mss(self) -> None:
        query = parse_query("S(NP)(VP)")
        cover = Cover(query, [CoverSubtree(query.root, frozenset(range(query.size())))])
        assert is_valid_cover(cover, mss=3)
        assert not is_valid_cover(cover, mss=2)

    def test_root_split_cover_same_root(self) -> None:
        query = parse_query("S(NP)(VP)")
        cover = Cover(
            query,
            [
                CoverSubtree(query.root, frozenset({0, 1})),
                CoverSubtree(query.root, frozenset({0, 2})),
            ],
        )
        assert is_root_split_cover(cover)

    def test_root_split_cover_parent_child_roots(self) -> None:
        query = parse_query("S(NP(DT)(NN))")
        cover = Cover(
            query,
            [
                CoverSubtree(query.root, frozenset({0, 1})),
                CoverSubtree(query.node(1), frozenset({1, 2, 3})),
            ],
        )
        assert is_root_split_cover(cover)

    def test_non_root_split_cover(self) -> None:
        query = parse_query("S(NP(DT(the)))")
        # Roots S and DT are neither equal nor in a parent-child relation.
        cover = Cover(
            query,
            [
                CoverSubtree(query.root, frozenset({0, 1})),
                CoverSubtree(query.node(2), frozenset({2, 3})),
            ],
        )
        assert not is_root_split_cover(cover)

    def test_single_subtree_cover_is_root_split(self) -> None:
        query = parse_query("S(NP)(VP)")
        cover = Cover(query, [CoverSubtree(query.root, frozenset(range(query.size())))])
        assert is_root_split_cover(cover)

    def test_join_count(self) -> None:
        query = parse_query("S(NP)(VP)")
        cover = Cover(
            query,
            [
                CoverSubtree(query.root, frozenset({0, 1})),
                CoverSubtree(query.root, frozenset({0, 2})),
            ],
        )
        assert cover.join_count == 1
        assert Cover(query, []).join_count == 0


class TestDeepBranchingAnomaly:
    def test_figure5_anomaly(self) -> None:
        # Query A(B(C(D)(E)(F))), mss = 4, cover {A(B(C(D))), B(C(E)(F))}.
        query = parse_query("A(B(C(D)(E)(F)))")
        a, b, c, d, e, f = query.nodes()
        cover = Cover(
            query,
            [
                CoverSubtree(a, frozenset({0, 1, 2, 3})),
                CoverSubtree(b, frozenset({1, 2, 4, 5})),
            ],
        )
        assert has_deep_branching_anomaly(cover)

    def test_fixed_cover_has_no_anomaly(self) -> None:
        query = parse_query("A(B(C(D)(E)(F)))")
        a, b, c, d, e, f = query.nodes()
        cover = Cover(
            query,
            [
                CoverSubtree(a, frozenset({0, 1, 2, 3})),
                CoverSubtree(b, frozenset({1, 2, 4, 5})),
                CoverSubtree(c, frozenset({2, 3, 4, 5})),
            ],
        )
        # The extra C(D)(E)(F) subtree does not remove the anomalous pair itself.
        assert has_deep_branching_anomaly(cover)
        safe = Cover(
            query,
            [
                CoverSubtree(a, frozenset({0, 1})),
                CoverSubtree(b, frozenset({1, 2})),
                CoverSubtree(c, frozenset({2, 3, 4, 5})),
            ],
        )
        assert not has_deep_branching_anomaly(safe)

    def test_shared_root_is_not_anomalous(self) -> None:
        query = parse_query("NP(DT)(NN)(JJ)")
        np, dt, nn, jj = query.nodes()
        cover = Cover(query, [CoverSubtree(np, frozenset({0, 1})), CoverSubtree(np, frozenset({0, 2, 3}))])
        assert not has_deep_branching_anomaly(cover)
