"""Join planning: relations, join order and predicates as binding offsets.

Given a query and one *relation* per join input -- a key's posting columns
plus the query nodes those columns bind -- the planner produces what
:func:`repro.exec.joins.run_plan` executes:

* a left-deep join order that starts from the smallest relation and always
  joins a relation connected to what has been joined so far (Section 5.1:
  plans are left-deep trees over the cover's posting-list streams).  A
  prepared query brings the order its first join chose, by the same rule;
* one :class:`JoinStep` per relation in that order.  A binding is a flat
  sequence of ``pre, post, level`` values, three per bound slot, laid out in
  join order; every structural predicate -- equality on a query node bound
  by two relations, parent-child / ancestor-descendant for a query edge
  whose endpoints are bound by different relations, inequality of same-label
  siblings bound by different relations -- is reduced to offsets into that
  sequence.  Offsets, slots read and the *shape* (from which
  :mod:`repro.exec.codegen` generates the kernel) are the plan's skeleton, a
  function of the cover and the order cached like the kernels; a query only
  binds its columns to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.coding.postings import PostingColumns
from repro.exec.codegen import Shape, compile_kernel
from repro.query.covers import Cover, Edge, query_links
from repro.query.model import QueryTree


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
    columns = [PostingColumns.from_postings(plist) for plist in postings]
    return [Relation(own, subtree.binding(len(own.slots))) for subtree, own in zip(cover.subtrees, columns)]


def choose_order(sizes: Sequence[int], nodes: Sequence[Collection[int]], edges: Sequence[Edge]) -> tuple:
    """Greedy left-deep order over relations of *sizes* that bind *nodes*:
    smallest first, then the smallest connected to what is bound."""
    near: Dict[int, List[int]] = {}  # query node -> its neighbours over an edge
    for upper, lower, _ in edges:
        near.setdefault(upper, []).append(lower)
        near.setdefault(lower, []).append(upper)
    rank = sorted(range(len(nodes)), key=sizes.__getitem__)
    order: List[int] = []
    reach: set = set()  # the bound nodes and their neighbours
    while rank:
        chosen = next((index for index in rank if not reach.isdisjoint(nodes[index])), rank[0])
        rank.remove(chosen)
        order.append(chosen)
        for node in nodes[chosen]:
            reach.add(node)
            reach.update(near.get(node, ()))
    return tuple(order)


@lru_cache(maxsize=512)  # compile_kernel's bound; a skeleton is a few tuples of ints
def plan_skeleton(bindings: tuple, edges: tuple, twins: tuple, root: int, order: tuple) -> tuple:
    """The steps of a plan less their columns, and its :data:`~repro.exec.codegen.Shape`.

    *bindings* are the relations' ``(query node, slot)`` pairs and *twins*
    the ordered pairs of same-label siblings, which must map to distinct
    data nodes.  A step is ``(relation, slots, equal, checks, distinct)``:
    the slots whose columns it reads, in binding order, and its predicates
    as offsets.  Keyed by integers, the table holds no posting.
    """
    offsets: Dict[int, int] = {}  # query node -> offset of its pre in a binding
    steps, width = [], 0
    for index in order:
        slots = sorted(bindings[index], key=itemgetter(1))
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
        equal = tuple((offsets[node], at) for node, at in local.items() if node in offsets)
        distinct = tuple((outside[old], local[new]) for old, new in twins if new in fresh and old in outside)
        steps.append((index, tuple(slot for _, slot in slots), equal, tuple(checks), distinct))
        for node in fresh:
            offsets[node] = local[node]
        width += 3 * len(slots)
    shape = tuple((3 * len(slots), *predicates) for _, slots, *predicates in steps)
    return tuple(steps), (shape, offsets[root])


def build_plan(
    query: QueryTree, relations: Sequence[Relation], edges: Optional[Sequence[Edge]] = None,
    twins: Optional[Sequence[Tuple[int, int]]] = None, order: Optional[Sequence[int]] = None,
) -> JoinPlan:
    """Plan the join of *relations* in *order*, by default :func:`choose_order`'s
    over their lengths: the cached :func:`plan_skeleton` and the columns it picks.

    *edges* and *twins* are the query's as a :class:`~repro.query.covers.Cover`
    carries them; both are derived from *query* when either is not given.
    """
    relations = list(relations)
    if edges is None or twins is None:
        edges, twins = query_links(query)
    sizes = [relation.cardinality for relation in relations]
    order = choose_order(sizes, [relation.nodes for relation in relations], edges) if order is None else order
    plan = JoinPlan(relations, list(order))
    if not all(sizes):
        return plan
    bindings = tuple(tuple(relation.nodes.items()) for relation in relations)
    steps, plan.shape = plan_skeleton(bindings, tuple(edges), tuple(twins), 0, tuple(order))  # the root is node 0
    plan.steps = [
        JoinStep(at, tuple(column for slot in slots for column in relations[at].columns.slots[slot]), *rest)
        for at, slots, *rest in steps
    ]
    return plan
