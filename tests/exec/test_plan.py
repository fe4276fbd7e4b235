"""Unit tests for join planning: relations, join order and compiled predicates."""

from __future__ import annotations

from itertools import permutations

from repro.coding import PostingColumns, RootSplitCoding, SubtreeIntervalCoding
from repro.exec.plan import build_plan, cover_relations, plan_skeleton
from repro.query.decompose import min_rc, optimal_cover
from repro.query.parser import parse_query
from tests.coding.recordkit import body_columns, encode_records


def _root_split(*rows: tuple[int, int, int, int]) -> PostingColumns:
    """A root-split list of ``(tid, pre, post, level)`` rows."""
    return body_columns(RootSplitCoding(), [value for row in rows for value in row])


def _node_of_offset(plan) -> dict[int, int]:
    """Binding offset of a pre value -> the query node bound there."""
    owner: dict[int, int] = {}
    width = 0
    for step in plan.steps:
        relation = plan.relations[step.relation]
        for node, slot in sorted(relation.nodes.items(), key=lambda item: item[1]):
            owner[width] = node
            width += 3
    return owner


def _checked_edges(plan) -> set[tuple[int, int, bool]]:
    """Every ``(upper node, lower node, child?)`` some step checks."""
    owner = _node_of_offset(plan)
    return {
        (owner[upper], owner[lower], child)
        for step in plan.steps
        for upper, lower, child in step.checks
    }


class TestBuildPlan:
    def _root_split_plan(self, text: str, mss: int = 2):
        query = parse_query(text)
        cover = min_rc(query, mss)
        postings = [_root_split((1, i + 1, 10 - i, i)) for i, _ in enumerate(cover.subtrees)]
        return query, cover, build_plan(query, cover_relations(cover, postings))

    def test_relations_match_cover(self) -> None:
        _, cover, plan = self._root_split_plan("S(NP(DT))(VP)")
        assert len(plan.relations) == len(cover.subtrees)
        assert plan.join_count == len(cover.subtrees) - 1
        assert sorted(step.relation for step in plan.steps) == list(range(len(cover.subtrees)))

    def test_root_split_relations_bind_only_roots(self) -> None:
        _, cover, plan = self._root_split_plan("S(NP(DT)(NN))(VP(VBZ))", mss=2)
        for relation, subtree in zip(plan.relations, cover.subtrees):
            assert relation.nodes == {subtree.root.node_id: 0}

    def test_subtree_interval_relations_bind_all_nodes(self) -> None:
        query = parse_query("NP(DT)(NN)")
        cover = optimal_cover(query, 3)
        # One row: tid 1, three nodes of (pre, post, level, order).
        postings = [body_columns(SubtreeIntervalCoding(), [1, 3, 1, 5, 0, 1, 2, 1, 1, 2, 3, 4, 1, 3])]
        plan = build_plan(query, cover_relations(cover, postings))
        assert set(plan.relations[0].nodes) == {0, 1, 2}
        assert len(plan.steps[0].columns) == 9  # pre, post, level of three slots

    def test_relations_take_decoded_columns_as_they_are(self) -> None:
        query = parse_query("S(NP(DT)(NN))(VP(VBZ))")
        cover = min_rc(query, 2)
        coding = RootSplitCoding()
        decoded = [
            coding.decode_postings(encode_records(coding, [(1, i + 1, 10 - i, i)]))
            for i, _ in enumerate(cover.subtrees)
        ]
        relations = cover_relations(cover, decoded)
        assert all(relation.columns is columns for relation, columns in zip(relations, decoded))
        # ``[]``, a key the index lacks, is the empty list.
        absent = cover_relations(cover, [[] for _ in cover.subtrees])
        assert all(len(relation.columns) == 0 for relation in absent)

    def test_every_query_edge_between_relations_is_checked_once(self) -> None:
        query, cover, plan = self._root_split_plan("S(NP(DT)(NN))(VP(VBZ))", mss=2)
        bound = set()
        for relation in plan.relations:
            bound |= set(relation.nodes)
        expected = {
            (parent.node_id, child.node_id, True)
            for parent, child, _ in query.edges()
            if parent.node_id in bound and child.node_id in bound
        }
        assert _checked_edges(plan) == expected
        assert sum(len(step.checks) for step in plan.steps) == len(expected)

    def test_descendant_axis_compiles_to_a_containment_check(self) -> None:
        query = parse_query("S(NP(//NN))")
        cover = min_rc(query, 3)
        postings = [_root_split((1, i + 1, 9 - i, i)) for i, _ in enumerate(cover.subtrees)]
        plan = build_plan(query, cover_relations(cover, postings))
        assert any(not child for _, _, child in _checked_edges(plan))

    def test_shared_query_node_compiles_to_an_equality_lookup(self) -> None:
        # At mss 2, "NP(DT)(NN)" is covered by NP(DT) and NP(NN): two
        # subtrees rooted at the same query node.
        query = parse_query("NP(DT)(NN)")
        cover = min_rc(query, 2)
        assert len({subtree.root.node_id for subtree in cover.subtrees}) < len(cover.subtrees)
        postings = [_root_split((1, 1, 9, 0)) for _ in cover.subtrees]
        plan = build_plan(query, cover_relations(cover, postings))
        keyed = [step for step in plan.steps if step.equal]
        assert keyed and all(not step.checks for step in keyed)
        # The pre of the first relation's root against the second's.
        assert keyed[0].equal == ((0, 3),)

    def test_join_order_starts_with_smallest_relation(self) -> None:
        query = parse_query("S(NP)(VP)")
        cover = min_rc(query, 1, pad=False)
        postings = []
        for index, _ in enumerate(cover.subtrees):
            count = 5 - index  # later subtrees get shorter posting lists
            postings.append(_root_split(*((tid, tid + index, 20, index) for tid in range(count))))
        plan = build_plan(query, cover_relations(cover, postings))
        first = plan.order[0]
        assert plan.relations[first].cardinality == min(r.cardinality for r in plan.relations)
        assert [step.relation for step in plan.steps] == plan.order

    def test_order_keeps_connectivity(self) -> None:
        query, cover, plan = self._root_split_plan("S(NP(DT)(NN))(VP(VBZ)(NP))", mss=2)
        edges = {(parent.node_id, child.node_id) for parent, child, _ in query.edges()}
        seen = set(plan.relations[plan.order[0]].nodes)
        for index in plan.order[1:]:
            nodes = set(plan.relations[index].nodes)
            connected = bool(seen & nodes) or any(
                (upper in seen and lower in nodes) or (lower in seen and upper in nodes)
                for upper, lower in edges
            )
            assert connected
            seen |= nodes

    def test_an_empty_relation_compiles_nothing(self) -> None:
        query = parse_query("S(NP)(VP)")
        cover = min_rc(query, 1, pad=False)
        postings = [_root_split((1, 1, 9, 0)), [], []]
        plan = build_plan(query, cover_relations(cover, postings))
        assert plan.steps == [] and len(plan.order) == 3

    def test_a_given_order_is_kept(self) -> None:
        query, cover, plan = self._root_split_plan("S(NP(DT)(NN))(VP(VBZ)(NP))", mss=2)
        order = plan.order[::-1]
        given = build_plan(query, plan.relations, cover.edges, cover.twin_pairs, order)
        assert given.order == order == [step.relation for step in given.steps]


class TestSkeletonTable:
    def test_one_cover_and_order_is_one_skeleton(self) -> None:
        query = parse_query("S(NP(DT))(VP(VBZ))")
        cover = min_rc(query, 2)
        postings = [_root_split((1, i + 1, 10 - i, i)) for i, _ in enumerate(cover.subtrees)]
        first = build_plan(query, cover_relations(cover, postings), cover.edges, cover.twin_pairs)
        hits = plan_skeleton.cache_info().hits
        moved = [_root_split((2, i + 3, 12 - i, i)) for i, _ in enumerate(cover.subtrees)]
        second = build_plan(query, cover_relations(cover, moved), cover.edges, cover.twin_pairs)
        assert plan_skeleton.cache_info().hits == hits + 1
        assert second.shape == first.shape and second.steps != first.steps  # same offsets, new columns

    def test_the_table_holds_integers_only(self) -> None:
        def leaves(item):
            return [item] if not isinstance(item, tuple) else [leaf for part in item for leaf in leaves(part)]

        skeleton = plan_skeleton((((0, 0),), ((1, 0),)), ((0, 1, True),), (), 0, (1, 0))
        assert all(isinstance(leaf, int) for leaf in leaves(skeleton))

    def test_the_table_is_bounded(self) -> None:
        # A six-node path, one single-slot relation a node: 720 orders.
        bindings = tuple(((node, 0),) for node in range(6))
        edges = tuple((node, node + 1, True) for node in range(5))
        bound = plan_skeleton.cache_info().maxsize
        assert bound == 512
        orders = list(permutations(range(6)))
        assert len(orders) > bound
        for order in orders:
            plan_skeleton(bindings, edges, (), 0, order)
            assert plan_skeleton.cache_info().currsize <= bound
