"""Unit tests for the structural join primitives."""

from __future__ import annotations

from collections.abc import Sequence

from hypothesis import given, strategies as st

from repro.coding import RootSplitCoding
from repro.exec.joins import (
    GALLOP_SKEW,
    count_distinct_roots,
    intersect_sorted_tid_lists,
    run_plan,
)
from repro.exec.plan import Relation, build_plan
from repro.query.parser import parse_query


class CountingList(Sequence):
    """A list that counts how often it is read, element by element."""

    def __init__(self, values: list[int]):
        self.values = values
        self.probes = 0

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        self.probes += 1
        return self.values[index]


class TestIntersection:
    def test_basic(self) -> None:
        assert intersect_sorted_tid_lists([[1, 3, 5, 7], [3, 5, 9], [2, 3, 5]]) == [3, 5]

    def test_empty_inputs(self) -> None:
        assert intersect_sorted_tid_lists([]) == []
        assert intersect_sorted_tid_lists([[1, 2], []]) == []

    def test_single_list(self) -> None:
        assert intersect_sorted_tid_lists([[1, 2, 3]]) == [1, 2, 3]

    def test_disjoint(self) -> None:
        assert intersect_sorted_tid_lists([[1, 2], [3, 4]]) == []

    def test_repeated_tids_come_out_once(self) -> None:
        # Posting tid columns repeat a tid once per posting in that tree.
        assert intersect_sorted_tid_lists([[1, 1, 2, 4, 4], [1, 1, 1, 4]]) == [1, 4]

    @given(st.lists(st.sets(st.integers(min_value=0, max_value=50)), min_size=1, max_size=4))
    def test_matches_set_intersection(self, groups: list[set[int]]) -> None:
        lists = [sorted(group) for group in groups]
        expected = sorted(set.intersection(*groups)) if groups else []
        assert intersect_sorted_tid_lists(lists) == expected

    @given(
        st.sets(st.integers(min_value=0, max_value=5_000), max_size=6),
        st.lists(st.integers(min_value=0, max_value=5_000), min_size=100, max_size=300),
    )
    def test_galloping_matches_set_intersection(self, few: set[int], many: list[int]) -> None:
        many.sort()
        assert len(many) > GALLOP_SKEW * len(few)
        assert intersect_sorted_tid_lists([sorted(few), many]) == sorted(few & set(many))

    def test_skewed_lengths_gallop_instead_of_scanning(self) -> None:
        # 10 tids against 100 000: one bisection (~17 probes) per short-list
        # tid, each resuming where the last ended -- not a 100 000-step scan.
        long = CountingList(list(range(0, 200_000, 2)))
        short = [7, 2_000, 2_001, 40_000, 40_002, 99_998, 100_000, 150_001, 199_998, 300_000]
        assert intersect_sorted_tid_lists([short, long]) == [
            2_000, 40_000, 40_002, 99_998, 100_000, 199_998
        ]
        assert long.probes <= len(short) * 20


def _relation(node_id: int, postings: list[tuple[int, int, int, int]]) -> Relation:
    """A single-slot relation binding query node *node_id*."""
    columns = RootSplitCoding().columns([value for posting in postings for value in posting])
    return Relation(columns, {node_id: 0})


def _run(text: str, *relations: Relation) -> dict[int, int]:
    return run_plan(build_plan(parse_query(text), list(relations)))


class TestKernel:
    """``run_plan`` over hand-built relations: S is node 0, NP node 1, VP node 2."""

    def test_joins_on_shared_tid_only(self) -> None:
        parents = _relation(0, [(1, 1, 5, 0), (2, 1, 7, 0)])
        children = _relation(1, [(2, 2, 3, 1), (3, 2, 2, 1)])
        assert _run("S(NP)", parents, children) == {2: 1}

    def test_different_trees_never_join(self) -> None:
        parents = _relation(0, [(1, 1, 10, 0)])
        children = _relation(1, [(2, 2, 4, 1)])
        assert _run("S(//NP)", parents, children) == {}

    def test_every_ancestor_of_a_descendant_matches(self) -> None:
        # Nested S nodes at pre 1 and 2 both contain the NP at pre 3; only
        # the outer one contains the NP at pre 6.
        ancestors = _relation(0, [(1, 1, 10, 0), (1, 2, 4, 1)])
        assert _run("S(//NP)", ancestors, _relation(1, [(1, 3, 2, 2)])) == {1: 2}
        assert _run("S(//NP)", ancestors, _relation(1, [(1, 6, 6, 1)])) == {1: 1}

    def test_child_predicate_filters_pairs(self) -> None:
        # Two S candidates in tree 1; only the one at pre=1 is NP's parent.
        parents = _relation(0, [(1, 1, 10, 0), (1, 5, 4, 2)])
        children = _relation(1, [(1, 2, 3, 1)])
        assert _run("S(NP)", parents, children) == {1: 1}

    def test_child_axis_rejects_deeper_descendants(self) -> None:
        parents = _relation(0, [(1, 1, 10, 0)])
        grandchildren = _relation(1, [(1, 3, 2, 2)])
        assert _run("S(NP)", parents, grandchildren) == {}
        assert _run("S(//NP)", parents, grandchildren) == {1: 1}

    def test_descendant_axis_needs_containment_not_order(self) -> None:
        # pre order alone is not containment: the second S ends before NP starts.
        parents = _relation(0, [(1, 1, 10, 0), (1, 2, 1, 1)])
        below = _relation(1, [(1, 4, 3, 2)])
        assert _run("S(//NP)", parents, below) == {1: 1}

    def test_equality_on_a_shared_node_is_a_filter(self) -> None:
        # Two relations bind the same query node: rows pair up by pre, they
        # are not multiplied.
        left = _relation(0, [(1, 1, 9, 0), (1, 4, 3, 1), (2, 1, 5, 0)])
        right = _relation(0, [(1, 4, 3, 1), (1, 6, 5, 1), (2, 2, 1, 1)])
        assert _run("S", left, right) == {1: 1}

    def test_matches_are_distinct_root_bindings(self) -> None:
        # One S with two NP children is one match, not two.
        parents = _relation(0, [(1, 1, 10, 0)])
        children = _relation(1, [(1, 2, 3, 1), (1, 5, 6, 1)])
        assert _run("S(NP)", parents, children) == {1: 1}

    def test_three_way_join_in_any_input_order(self) -> None:
        s = _relation(0, [(1, 1, 10, 0), (2, 1, 10, 0)])
        np = _relation(1, [(1, 2, 3, 1), (2, 2, 3, 1)])
        vp = _relation(2, [(1, 5, 8, 1), (2, 6, 4, 2)])  # tree 2: VP is too deep
        assert _run("S(NP)(VP)", s, np, vp) == {1: 1}
        assert _run("S(NP)(VP)", vp, np, s) == {1: 1}

    def test_single_relation_counts_distinct_roots_per_tree(self) -> None:
        only = _relation(0, [(1, 1, 9, 0), (1, 1, 9, 0), (1, 4, 3, 1), (3, 2, 1, 0)])
        assert _run("S", only) == {1: 2, 3: 1}

    def test_an_empty_relation_means_no_matches(self) -> None:
        assert _run("S(NP)", _relation(0, [(1, 1, 5, 0)]), _relation(1, [])) == {}

    def test_count_distinct_roots_keeps_tid_order(self) -> None:
        pairs = [(1, 4), (1, 4), (1, 7), (5, 2)]
        assert list(count_distinct_roots(pairs).items()) == [(1, 2), (5, 1)]
