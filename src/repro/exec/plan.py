"""Join planning: relations, join order and slot-compiled predicates.

Given a query and one *relation* per join input -- a key's posting columns
plus the query nodes those columns bind -- the planner produces what the
kernel (:func:`repro.exec.joins.run_plan`) executes:

* a left-deep join order that starts from the smallest relation and always
  joins a relation connected to what has been joined so far (Section 5.1:
  plans are left-deep trees over the cover's posting-list streams);
* one :class:`JoinStep` per relation in that order.  A binding is a flat
  tuple of ``pre, post, level`` values, three per bound slot, laid out in
  join order; every structural predicate -- equality on a query node bound
  by two relations, parent-child / ancestor-descendant for a query edge
  whose endpoints are bound by different relations -- is compiled once, here,
  to offsets into that tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.coding.postings import PostingColumns
from repro.query.covers import Cover, Edge
from repro.query.model import QueryTree
from repro.trees.matching import AXIS_CHILD


@dataclass
class Relation:
    """One join input: a key's postings and the query nodes they bind.

    ``nodes`` maps a query node id to the slot (node position within a
    posting) bound to it: the root slot only under root-split coding, every
    slot of the key under subtree-interval coding.
    """

    columns: PostingColumns
    nodes: Dict[int, int]

    @property
    def cardinality(self) -> int:
        """Number of rows (postings) in the relation."""
        return len(self.columns)


class JoinStep(NamedTuple):
    """Joining one relation onto the bindings built so far.

    A *candidate* is one row of ``columns``; appended to a binding it forms
    the tuple the checks index.  ``equal_row`` / ``equal_candidate`` extract
    the pre values that must agree (``None`` when no query node is shared);
    each check ``(upper, lower, child)`` requires the node at offset *upper*
    to contain the node at offset *lower*, as its parent when *child*.
    """

    relation: int
    columns: Tuple[Sequence[int], ...]
    equal_row: Optional[Callable[[tuple], object]]
    equal_candidate: Optional[Callable[[tuple], object]]
    checks: Tuple[Tuple[int, int, bool], ...]


@dataclass
class JoinPlan:
    """A planned query: relations, join order and the compiled steps.

    ``steps`` is empty when some relation has no rows -- the query cannot
    match and nothing is compiled.  ``root_offset`` locates the query
    root's pre value in a finished binding.
    """

    relations: List[Relation]
    order: List[int]
    steps: List[JoinStep] = field(default_factory=list)
    root_offset: int = 0

    @property
    def join_count(self) -> int:
        """Number of pairwise joins a left-deep execution performs."""
        return max(0, len(self.relations) - 1)


def cover_relations(cover: Cover, postings: Sequence[Sequence[object]]) -> List[Relation]:
    """The relations of a cover: one per cover subtree, over its postings."""
    relations: List[Relation] = []
    for subtree, plist in zip(cover.subtrees, postings):
        columns = PostingColumns.from_postings(plist)
        relations.append(Relation(columns, subtree.binding(len(columns.slots))))
    return relations


def _choose_order(relations: Sequence[Relation], edges: Sequence[Tuple[int, int, bool]]) -> List[int]:
    """Greedy left-deep order: smallest relation first, stay connected, smallest next."""
    remaining = set(range(len(relations)))
    order: List[int] = []
    bound: set = set()

    def connected(index: int) -> bool:
        nodes = relations[index].nodes
        return any(node in bound for node in nodes) or any(
            (upper in bound and lower in nodes) or (lower in bound and upper in nodes)
            for upper, lower, _ in edges
        )

    while remaining:
        candidates = [index for index in remaining if connected(index)] or remaining
        chosen = min(candidates, key=lambda index: (relations[index].cardinality, index))
        order.append(chosen)
        remaining.remove(chosen)
        bound.update(relations[chosen].nodes)
    return order


def build_plan(
    query: QueryTree, relations: Sequence[Relation], edges: Optional[Sequence[Edge]] = None
) -> JoinPlan:
    """Order *relations* and compile the query's predicates between them.

    *edges* are the query's edges as a :class:`~repro.query.covers.Cover`
    carries them; they are derived from *query* when not given.
    """
    relations = list(relations)
    if edges is None:
        edges = [
            (parent.node_id, child.node_id, axis == AXIS_CHILD)
            for parent, child, axis in query.edges()
        ]
    plan = JoinPlan(relations, _choose_order(relations, edges))
    if not all(relation.cardinality for relation in relations):
        return plan

    offsets: Dict[int, int] = {}  # query node -> offset of its pre in a binding
    width = 0
    for index in plan.order:
        relation = relations[index]
        slots = sorted(relation.nodes.items(), key=itemgetter(1))
        local = {node: width + 3 * at for at, (node, _) in enumerate(slots)}
        shared = [node for node in local if node in offsets]
        fresh = [node for node in local if node not in offsets]
        # An edge needs checking here when this relation binds one endpoint
        # for the first time and the other was bound outside it; an edge
        # inside one relation is enforced by that relation's key.
        checks = [
            (offsets[upper], local[lower], child)
            for upper, lower, child in edges
            if lower in fresh and upper in offsets and upper not in local
        ] + [
            (local[upper], offsets[lower], child)
            for upper, lower, child in edges
            if upper in fresh and lower in offsets and lower not in local
        ]
        plan.steps.append(JoinStep(
            relation=index,
            columns=tuple(
                column for _, slot in slots for column in relation.columns.slots[slot]
            ),
            equal_row=itemgetter(*(offsets[node] for node in shared)) if shared else None,
            equal_candidate=(
                itemgetter(*(local[node] - width for node in shared)) if shared else None
            ),
            checks=tuple(checks),
        ))
        for node in fresh:
            offsets[node] = local[node]
        width += 3 * len(slots)
    plan.root_offset = offsets[query.root.node_id]
    return plan
