"""Unit and property tests for the decomposition algorithms."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.query.covers import (
    has_deep_branching_anomaly,
    is_root_split_cover,
    is_valid_cover,
)
from repro.query.decompose import (
    decompose,
    min_rc,
    optimal_cover,
)
from repro.query.model import QueryNode, QueryTree
from repro.query.parser import parse_query

#: The query of Figure 1(a): S(NP(NNS(agouti)))(VP(VBZ(is))(NP(DT(a))(NN))).
FIGURE1_QUERY = "S(NP(NNS(agouti)))(VP(VBZ(is))(NP(DT(a))(NN)))"


class TestOptimalCover:
    @pytest.mark.parametrize("mss", [1, 2, 3, 4, 5])
    def test_valid_for_all_mss(self, mss: int) -> None:
        query = parse_query(FIGURE1_QUERY)
        cover = optimal_cover(query, mss)
        assert is_valid_cover(cover, mss)

    def test_whole_query_fits_one_subtree(self) -> None:
        query = parse_query("NP(DT)(NN)")
        cover = optimal_cover(query, mss=3)
        assert len(cover) == 1
        assert cover.subtrees[0].key_bytes() == b"NP(DT)(NN)"

    def test_single_node_query(self) -> None:
        cover = optimal_cover(parse_query("NP"), mss=3)
        assert len(cover) == 1
        assert cover.subtrees[0].key_bytes() == b"NP"

    def test_mss_one_gives_one_subtree_per_node(self) -> None:
        query = parse_query(FIGURE1_QUERY)
        cover = optimal_cover(query, mss=1, pad=False)
        assert len(cover) == query.size()
        assert all(subtree.size == 1 for subtree in cover)

    def test_join_count_close_to_lower_bound(self) -> None:
        query = parse_query(FIGURE1_QUERY)  # 10 nodes
        for mss in (2, 3, 4, 5):
            cover = optimal_cover(query, mss, pad=False)
            lower_bound = math.ceil(query.size() / mss)
            assert lower_bound <= len(cover) <= lower_bound + 2

    def test_paper_example2_number_of_subtrees(self) -> None:
        """Example 2 finds a cover of 5 subtrees for the Figure 1 query at mss=3."""
        query = parse_query(FIGURE1_QUERY)
        cover = optimal_cover(query, mss=3)
        assert len(cover) <= 5

    def test_chain_query(self) -> None:
        query = parse_query("A(B(C(D(E(F)))))")
        cover = optimal_cover(query, mss=3, pad=False)
        assert is_valid_cover(cover, 3)
        assert len(cover) == 2

    def test_invalid_mss_rejected(self) -> None:
        with pytest.raises(ValueError):
            optimal_cover(parse_query("NP"), mss=0)


class TestMinRC:
    @pytest.mark.parametrize("mss", [1, 2, 3, 4, 5])
    def test_valid_root_split_for_all_mss(self, mss: int) -> None:
        query = parse_query(FIGURE1_QUERY)
        cover = min_rc(query, mss)
        assert is_valid_cover(cover, mss)
        assert is_root_split_cover(cover)
        assert not has_deep_branching_anomaly(cover)

    def test_paper_example3_cover_size(self) -> None:
        """Example 3: minRC also needs 5 subtrees for the Figure 1 query at mss=3."""
        query = parse_query(FIGURE1_QUERY)
        cover = min_rc(query, mss=3)
        assert 5 <= len(cover) <= 6

    def test_min_rc_never_smaller_than_optimal(self) -> None:
        query = parse_query(FIGURE1_QUERY)
        for mss in (2, 3, 4, 5):
            assert len(min_rc(query, mss)) >= len(optimal_cover(query, mss))

    def test_every_subtree_root_parent_is_a_root(self) -> None:
        """The structural property root-split joins rely on."""
        for text in [FIGURE1_QUERY, "A(B(C(D)(E)(F)))", "S(NP(DT)(NN))(VP(VBZ)(NP(NN)))"]:
            query = parse_query(text)
            for mss in (2, 3, 4):
                cover = min_rc(query, mss)
                root_ids = {subtree.root.node_id for subtree in cover}
                for subtree in cover:
                    parent = subtree.root.parent
                    assert parent is None or parent.node_id in root_ids

    def test_descendant_axis_parents_become_roots(self) -> None:
        query = parse_query("S(NP(NN(//JJ)))")
        cover = min_rc(query, mss=4)
        root_ids = {subtree.root.node_id for subtree in cover}
        nn = next(node for node in query.nodes() if node.label == "NN")
        jj = next(node for node in query.nodes() if node.label == "JJ")
        assert nn.node_id in root_ids
        assert jj.node_id in root_ids

    def test_figure5_query_avoids_anomaly(self) -> None:
        query = parse_query("A(B(C(D)(E)(F)))")
        cover = min_rc(query, mss=4)
        assert is_valid_cover(cover, 4)
        assert not has_deep_branching_anomaly(cover)
        assert is_root_split_cover(cover)


class TestDecomposeDispatch:
    def test_strategies(self) -> None:
        query = parse_query(FIGURE1_QUERY)
        assert len(decompose(query, 3, "optimal")) == len(optimal_cover(query, 3))
        assert len(decompose(query, 3, "min-rc")) == len(min_rc(query, 3))

    def test_unknown_strategy_rejected(self) -> None:
        with pytest.raises(ValueError):
            decompose(parse_query("NP"), 3, "magic")


# ----------------------------------------------------------------------
# Property tests over random queries.
# ----------------------------------------------------------------------
_LABELS = ["S", "NP", "VP", "PP", "DT", "NN", "VBZ", "JJ", "IN"]


@st.composite
def random_queries(draw, max_depth: int = 3) -> QueryTree:
    def build(depth: int) -> QueryNode:
        node = QueryNode(draw(st.sampled_from(_LABELS)))
        if depth >= max_depth:
            return node
        for _ in range(draw(st.integers(min_value=0, max_value=3 - depth))):
            axis = draw(st.sampled_from(["/", "/", "/", "//"]))
            node.add_child(build(depth + 1), axis)
        return node

    return QueryTree(build(0))


@settings(max_examples=60, deadline=None)
@given(query=random_queries(), mss=st.integers(min_value=1, max_value=5))
def test_optimal_cover_always_valid(query: QueryTree, mss: int) -> None:
    assert is_valid_cover(optimal_cover(query, mss), mss)


@settings(max_examples=60, deadline=None)
@given(query=random_queries(), mss=st.integers(min_value=1, max_value=5))
def test_min_rc_always_valid_root_split_and_anomaly_free(query: QueryTree, mss: int) -> None:
    cover = min_rc(query, mss)
    assert is_valid_cover(cover, mss)
    assert is_root_split_cover(cover)
    assert not has_deep_branching_anomaly(cover)


@settings(max_examples=60, deadline=None)
@given(query=random_queries(), mss=st.integers(min_value=2, max_value=5))
def test_optimal_cover_not_larger_than_min_rc(query: QueryTree, mss: int) -> None:
    assert len(optimal_cover(query, mss)) <= len(min_rc(query, mss))
