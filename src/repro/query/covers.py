"""Covers of tree queries (Definitions 5--10 of the paper).

A *cover* of a query is a set of subtrees of the query such that every query
node appears in at least one subtree.  Cover subtrees contain only
parent-child (``/``) edges -- index keys cannot express the ``//`` axis -- and
their size is bounded by the index's ``mss`` parameter (a *valid* cover).
The executor then joins the posting lists of the cover subtrees; which joins
are possible depends on the coding scheme, which is why root-split coding
needs the more constrained *root-split covers* of Definition 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.keys import canonical_key
from repro.query.model import QueryNode, QueryTree
from repro.trees.matching import AXIS_CHILD

#: A query edge as ``(parent node id, child node id, is a "/" edge)``.
Edge = Tuple[int, int, bool]


def query_links(query: QueryTree) -> Tuple[Tuple[Edge, ...], Tuple[Tuple[int, int], ...]]:
    """The query's edges ``(parent, child, is "/")`` by child id, and both
    orders of every two same-label siblings (distinct data nodes), parents in pre-order."""
    label_of, parent_of, axis_of = query.label_of, query.parent_of, query.axis_of
    count = len(parent_of)
    edges = tuple(zip(parent_of[1:], range(1, count), [axis == AXIS_CHILD for axis in axis_of[1:]]))
    if len(set(zip(parent_of, label_of))) == count:
        return edges, ()
    groups: Dict[Tuple[int, str], List[int]] = {}
    for node in range(1, count):
        groups.setdefault((parent_of[node], label_of[node]), []).append(node)
    same = sorted((parent_of[ids[0]], *pair) for ids in groups.values() for pair in combinations(ids, 2))
    return edges, tuple(pair for _, one, two in same for pair in ((one, two), (two, one)))


class CoverSubtree:
    """One element of a cover: a connected, ``/``-only subtree of *query*.

    The compiler (:func:`repro.query.decompose.compile_query`) passes the
    canonical *key* it composed while packing; its subtrees are connected by
    construction and are never re-checked.  A subtree built by hand from a
    node set is canonicalised -- and checked -- on first use.
    """

    __slots__ = ("query", "root_id", "node_ids", "_key", "_positions")

    def __init__(self, query: QueryTree, root_id: int, node_ids: FrozenSet[int], key: Optional[bytes] = None):
        self.query = query
        self.root_id = root_id
        self.node_ids = node_ids
        self._key = key
        self._positions: Optional[Dict[int, int]] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverSubtree):
            return NotImplemented
        return self.query is other.query and self.root_id == other.root_id and self.node_ids == other.node_ids

    def __hash__(self) -> int:
        return hash((id(self.query), self.root_id, self.node_ids))

    # ------------------------------------------------------------------
    @property
    def root(self) -> QueryNode:
        """The root's query node."""
        return self.query.node(self.root_id)

    @property
    def size(self) -> int:
        """Number of query nodes in this cover subtree."""
        return len(self.node_ids)

    def _canonical(self) -> Tuple[bytes, List[QueryNode]]:
        """Canonical key and canonical pre-order of the part of this subtree
        reachable from the root through ``/`` edges."""

        def children(node: QueryNode) -> List[QueryNode]:
            return [
                child
                for child, axis in zip(node.children, node.child_axes)
                if axis == AXIS_CHILD and child.node_id in self.node_ids
            ]

        return canonical_key(self.root, children_of=children)

    def validate(self) -> None:
        """Check connectivity and axis purity; raises ``ValueError`` if broken."""
        self.key()

    def key(self) -> Tuple[bytes, Dict[int, int]]:
        """Canonical index key of this subtree and the node-id -> position map.

        The position map tells the executor which slot of a subtree-interval
        posting corresponds to which query node.
        """
        if self._positions is None:
            key, ordered = self._canonical()
            if len(ordered) != len(self.node_ids) or self.root_id not in self.node_ids:
                reachable = {node.node_id for node in ordered}
                raise ValueError(
                    f"cover subtree rooted at {self.root.label!r} is not connected via '/' edges; "
                    f"unreachable node ids: {sorted(set(self.node_ids) - reachable)}"
                )
            if self._key is None:
                self._key = key
            self._positions = {node.node_id: at for at, node in enumerate(ordered)}
        return self._key, self._positions

    def key_bytes(self) -> bytes:
        """Canonical index key of this subtree."""
        return self._key if self._key is not None else self.key()[0]

    def binding(self, slots: int) -> Dict[int, int]:
        """Query node id -> posting slot, for postings that store *slots* nodes:
        the root alone (canonical position 0) or every node of the key."""
        return self.key()[1] if slots > 1 else {self.root_id: 0}

    def query_nodes(self) -> List[QueryNode]:
        """The query nodes of this subtree (root first, canonical pre-order)."""
        return self._canonical()[1]

    def __str__(self) -> str:
        return self.key_bytes().decode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CoverSubtree({self}, node_ids={sorted(self.node_ids)})"


@dataclass(slots=True)
class Cover:
    """A cover of a query: the query, its cover subtrees and what a join
    planner needs of the query -- its edges as node-id triples and the
    ordered pairs of its same-label siblings, both read off the query's
    arrays when first asked for (:func:`query_links`):
    a cover of one key is never planned.  A compiled cover leaves every
    same-label sibling pair no key holds to the join.
    """

    query: QueryTree
    subtrees: List[CoverSubtree] = field(default_factory=list)
    _links: Optional[tuple] = field(default=None, init=False, compare=False)

    @property
    def edges(self) -> Sequence[Edge]:
        """Every query edge ``(parent, child, is "/")``, by child id."""
        self._links = self._links or query_links(self.query)
        return self._links[0]

    @property
    def twin_pairs(self) -> Sequence[Tuple[int, int]]:
        """The ordered pairs of same-label siblings, parents in pre-order."""
        self._links = self._links or query_links(self.query)
        return self._links[1]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.subtrees)

    def __iter__(self):
        return iter(self.subtrees)

    @property
    def join_count(self) -> int:
        """Number of joins of a left-deep plan over this cover (|C| - 1)."""
        return max(0, len(self.subtrees) - 1)

    def covered_node_ids(self) -> Set[int]:
        """Union of the node ids covered by the subtrees."""
        return set().union(*(subtree.node_ids for subtree in self.subtrees))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        rendered = ", ".join(str(subtree) for subtree in self.subtrees)
        return f"Cover([{rendered}])"


# ----------------------------------------------------------------------
# Cover predicates (Definitions 5--10)
# ----------------------------------------------------------------------
def is_node_cover(cover: Cover) -> bool:
    """Definition 5: every query node appears in at least one subtree."""
    return cover.covered_node_ids() == set(range(cover.query.size()))


def is_valid_cover(cover: Cover, mss: int) -> bool:
    """Definition 7: a node cover whose subtrees all have size at most ``mss``.

    Additionally checks the structural well-formedness required by the index:
    each subtree is connected through ``/`` edges.
    """
    if not is_node_cover(cover):
        return False
    for subtree in cover.subtrees:
        if subtree.size > mss:
            return False
        try:
            subtree.validate()
        except ValueError:
            return False
    return True


def is_root_split_cover(cover: Cover) -> bool:
    """Definition 8: every subtree's root is related to another subtree's root.

    Either the cover is a single subtree, or for every subtree ``ci`` there is
    a ``cj`` whose root is the same node, the parent of ``ci``'s root, or a
    child of ``ci``'s root.
    """
    if len(cover.subtrees) <= 1:
        return True
    parent_of = cover.query.parent_of
    root_ids = [subtree.root_id for subtree in cover.subtrees]
    roots = set(root_ids)
    # The same node roots another subtree, or its parent or a child does.
    return all(
        root_ids.count(root) > 1 or parent_of[root] in roots or any(parent_of[other] == root for other in roots)
        for root in root_ids
    )


def has_deep_branching_anomaly(cover: Cover) -> bool:
    """Definition 10: two subtrees share a non-root node that branches apart.

    The anomaly makes root-only joins ambiguous (Figure 5); root-split covers
    produced by ``minRC`` must avoid it.
    """
    parent_of = cover.query.parent_of
    subtrees = cover.subtrees
    for i, si in enumerate(subtrees):
        for sj in subtrees[i + 1:]:
            apart = si.node_ids ^ sj.node_ids
            for node in si.node_ids & sj.node_ids:
                if node in (si.root_id, sj.root_id):
                    continue
                below = {child for child in apart if parent_of[child] == node}
                if below & si.node_ids and below & sj.node_ids:
                    return True
    return False
