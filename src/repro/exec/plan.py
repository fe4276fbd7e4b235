"""Join planning: relations, join order and predicates as binding offsets.

Given a query and one *relation* per join input -- a key's posting columns
plus the query nodes those columns bind -- the planner produces what
:func:`repro.exec.joins.run_plan` executes:

* a left-deep join order that starts from the smallest relation and always
  joins a relation connected to what has been joined so far (Section 5.1:
  plans are left-deep trees over the cover's posting-list streams);
* one :class:`JoinStep` per relation in that order.  A binding is a flat
  sequence of ``pre, post, level`` values, three per bound slot, laid out in
  join order; every structural predicate -- equality on a query node bound
  by two relations, parent-child / ancestor-descendant for a query edge
  whose endpoints are bound by different relations, inequality of same-label
  siblings bound by different relations -- is reduced once, here, to offsets
  into that sequence.  The offsets alone are the plan's *shape*, from which
  :mod:`repro.exec.codegen` generates the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.coding.postings import PostingColumns
from repro.exec.codegen import Shape, compile_kernel
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

    A row of ``columns`` extends a binding by this relation's slots; every
    predicate is offsets into the extended binding.  Each ``equal`` pair
    ``(bound, candidate)`` names two pre values that must agree (a query node
    two relations bind); each check ``(upper, lower, child)`` requires the
    node at offset *upper* to contain the node at offset *lower*, as its
    parent when *child*; each ``distinct`` pair names two pre values that
    must differ (same-label siblings, which map to distinct data nodes).
    """

    relation: int
    columns: Tuple[Sequence[int], ...]
    equal: Tuple[Tuple[int, int], ...]
    checks: Tuple[Tuple[int, int, bool], ...]
    distinct: Tuple[Tuple[int, int], ...]


@dataclass
class JoinPlan:
    """A planned query: relations, join order and the steps.

    ``steps`` is empty when some relation has no rows -- the query cannot
    match and nothing is planned.  ``shape`` is the steps less their data
    (column count and predicates of each) and the offset of the query root's
    pre in a finished binding: all the kernel is generated from.
    """

    relations: List[Relation]
    order: List[int]
    steps: List[JoinStep] = field(default_factory=list)
    shape: Shape = ((), 0)

    @property
    def join_count(self) -> int:
        """Number of pairwise joins a left-deep execution performs."""
        return max(0, len(self.relations) - 1)

    @property
    def kernel_source(self) -> str:
        """Source of the generated function that executes this plan (one with steps)."""
        return compile_kernel(self.shape).source


def cover_relations(cover: Cover, postings: Sequence[PostingColumns]) -> List[Relation]:
    """The relations of a cover: one per cover subtree, over its postings."""
    relations: List[Relation] = []
    for subtree, plist in zip(cover.subtrees, postings):
        columns = PostingColumns.from_postings(plist)
        relations.append(Relation(columns, subtree.binding(len(columns.slots))))
    return relations


def _choose_order(relations: Sequence[Relation], edges: Sequence[Edge]) -> List[int]:
    """Greedy left-deep order: smallest relation first, stay connected, smallest next."""
    # What connects a relation to the bound nodes: a node it binds itself or
    # the other end of an edge at one.
    reach = [set(relation.nodes) for relation in relations]
    for upper, lower, _ in edges:
        for relation, near in zip(relations, reach):
            if upper in relation.nodes:
                near.add(lower)
            if lower in relation.nodes:
                near.add(upper)
    remaining = set(range(len(relations)))
    order: List[int] = []
    bound: set = set()
    while remaining:
        candidates = [index for index in remaining if not bound.isdisjoint(reach[index])] or remaining
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
    # Children of one query node map to distinct data nodes; labels keep
    # apart all but same-label siblings, and a key the ones it holds itself.
    twins = [
        pair
        for node in query.nodes() if len(node.children) > 1
        for first, second in combinations(node.children, 2) if first.label == second.label
        for pair in ((first.node_id, second.node_id), (second.node_id, first.node_id))
    ]

    offsets: Dict[int, int] = {}  # query node -> offset of its pre in a binding
    width = 0
    for index in plan.order:
        relation = relations[index]
        slots = sorted(relation.nodes.items(), key=itemgetter(1))
        local = {node: width + 3 * at for at, (node, _) in enumerate(slots)}
        fresh = local.keys() - offsets.keys()
        outside = {node: at for node, at in offsets.items() if node not in local}
        # An edge needs checking here when this relation binds one endpoint
        # for the first time and the other was bound outside it; an edge
        # inside one relation is enforced by that relation's key.
        checks = [
            (outside[upper], local[lower], child)
            for upper, lower, child in edges if lower in fresh and upper in outside
        ] + [
            (local[upper], outside[lower], child)
            for upper, lower, child in edges if upper in fresh and lower in outside
        ]
        plan.steps.append(JoinStep(
            relation=index,
            columns=tuple(column for _, slot in slots for column in relation.columns.slots[slot]),
            equal=tuple((offsets[node], at) for node, at in local.items() if node in offsets),
            checks=tuple(checks),
            distinct=tuple(
                (outside[old], local[new]) for old, new in twins if new in fresh and old in outside
            ),
        ))
        for node in fresh:
            offsets[node] = local[node]
        width += 3 * len(slots)
    shape = tuple((len(step.columns), step.equal, step.checks, step.distinct) for step in plan.steps)
    plan.shape = (shape, offsets[query.root.node_id])
    return plan
