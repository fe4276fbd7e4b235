"""The tree-query data model (Definition 2 of the paper).

A query is an unordered, labelled tree whose edges carry a navigational axis:
``/`` for parent-child or ``//`` for ancestor-descendant.  Query nodes follow
the same ``label`` / ``children`` shape as data nodes (so canonicalisation
and the reference matcher work on them unchanged) and additionally expose a
parallel ``child_axes`` list.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.trees.matching import AXIS_CHILD, AXIS_DESCENDANT
from repro.trees.node import Node, ParseTree

VALID_AXES = (AXIS_CHILD, AXIS_DESCENDANT)


class QueryNode:
    """A node of a tree query."""

    __slots__ = ("label", "children", "child_axes", "parent", "parent_axis", "node_id")

    def __init__(self, label: str):
        self.label = label
        self.children: List[QueryNode] = []
        self.child_axes: List[str] = []
        self.parent: Optional[QueryNode] = None
        self.parent_axis: Optional[str] = None
        #: Pre-order identifier assigned by :class:`QueryTree`; -1 until assigned.
        self.node_id: int = -1

    # ------------------------------------------------------------------
    def add_child(self, child: "QueryNode", axis: str = AXIS_CHILD) -> "QueryNode":
        """Attach *child* below this node with the given axis and return it."""
        if axis not in VALID_AXES:
            raise ValueError(f"invalid axis {axis!r}; expected '/' or '//'")
        child.parent = self
        child.parent_axis = axis
        self.children.append(child)
        self.child_axes.append(axis)
        return child

    # ------------------------------------------------------------------
    def preorder(self) -> Iterator["QueryNode"]:
        """Yield the nodes of this query subtree in pre-order."""
        yield self
        for child in self.children:
            yield from child.preorder()

    def size(self) -> int:
        """Number of nodes in this query subtree."""
        return 1 + sum(child.size() for child in self.children)

    def descendants(self) -> Iterator["QueryNode"]:
        """Yield proper descendants in pre-order."""
        for child in self.children:
            yield from child.preorder()

    def copy(self) -> "QueryNode":
        """Deep copy of this query subtree (node ids are not copied)."""
        clone = QueryNode(self.label)
        for child, axis in zip(self.children, self.child_axes):
            clone.add_child(child.copy(), axis)
        return clone

    def to_string(self) -> str:
        """Serialise in the textual query syntax (see :mod:`repro.query.parser`)."""
        parts = [self.label]
        for child, axis in zip(self.children, self.child_axes):
            marker = "" if axis == AXIS_CHILD else "//"
            parts.append(f"({marker}{child.to_string()})")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"QueryNode({self.to_string()!r})"


class QueryTree:
    """A query with stable node identifiers and convenience accessors."""

    def __init__(self, root: QueryNode, preorder: Optional[List[QueryNode]] = None):
        """Number the nodes below *root*.

        *preorder* is for builders that already hold the nodes of *root* in
        pre-order (the parser creates them in that order) and spares the
        walk; it must be exactly ``list(root.preorder())``.
        """
        self.root = root
        self._nodes: List[QueryNode] = list(root.preorder()) if preorder is None else preorder
        for index, node in enumerate(self._nodes):
            node.node_id = index

    # ------------------------------------------------------------------
    def nodes(self) -> List[QueryNode]:
        """All query nodes in pre-order (index == ``node_id``)."""
        return list(self._nodes)

    def node(self, node_id: int) -> QueryNode:
        """The node with the given identifier."""
        return self._nodes[node_id]

    def size(self) -> int:
        """Number of nodes in the query."""
        return len(self._nodes)

    def edges(self) -> List[Tuple[QueryNode, QueryNode, str]]:
        """All ``(parent, child, axis)`` edges of the query."""
        out: List[Tuple[QueryNode, QueryNode, str]] = []
        for node in self._nodes:
            for child, axis in zip(node.children, node.child_axes):
                out.append((node, child, axis))
        return out

    def labels(self) -> List[str]:
        """Labels of the query nodes in pre-order."""
        return [node.label for node in self._nodes]

    def to_string(self) -> str:
        """Serialise the query in the textual syntax."""
        return self.root.to_string()

    def copy(self) -> "QueryTree":
        """Deep copy with freshly assigned node ids."""
        return QueryTree(self.root.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"QueryTree({self.to_string()!r})"


# ----------------------------------------------------------------------
# Conversions from data trees
# ----------------------------------------------------------------------
def query_from_node(node: Node, axis: str = AXIS_CHILD) -> QueryNode:
    """Convert a data subtree into a query subtree with all-``/`` edges.

    Used by the FB query-set generator, which turns extracted data subtrees
    into queries, and by tests.
    """
    query = QueryNode(node.label)
    for child in node.children:
        query.add_child(query_from_node(child), axis)
    return query


def query_from_tree(tree: ParseTree | Node) -> QueryTree:
    """Convert a full data tree (or subtree) into a :class:`QueryTree`."""
    root = tree.root if isinstance(tree, ParseTree) else tree
    return QueryTree(query_from_node(root))


def has_duplicate_siblings(query: QueryTree | QueryNode) -> bool:
    """``True`` when some node has two children with identical unordered structure.

    Queries with canonically-equal sibling subtrees are ambiguous corner cases
    for decomposition-based evaluation (see DESIGN.md); the workload
    generators skip them so that every executor and the reference matcher
    agree on the result counts.
    """
    from repro.core.keys import canonical_key

    root = query.root if isinstance(query, QueryTree) else query
    for node in root.preorder():
        seen: Dict[bytes, int] = {}
        for child in node.children:
            key, _ = canonical_key(child)
            if key in seen:
                return True
            seen[key] = 1
    return False
