"""The tree-query data model (Definition 2 of the paper).

A query is an unordered, labelled tree whose edges carry a navigational axis:
``/`` for parent-child or ``//`` for ancestor-descendant.  A :class:`QueryTree`
is four arrays by pre-order node id (label, parent, axis, canonical text), all
the compiler reads.  Its :class:`QueryNode` objects (data nodes' ``label`` /
``children`` shape plus ``child_axes``) are built only for a caller that walks
them: the filtering phase's matcher, the baselines, a hand-built key.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trees.matching import AXIS_CHILD, AXIS_DESCENDANT
from repro.trees.node import Node

VALID_AXES = (AXIS_CHILD, AXIS_DESCENDANT)


def canonical_text(label: str, texts: Sequence[str]) -> str:
    """Canonical text of a node over its children's *texts*: the rule
    :func:`repro.core.enumeration.extract_subtrees` keys data subtrees by."""
    if len(texts) < 2:
        return label + "(" + texts[0] + ")" if texts else label
    return label + "(" + ")(".join(sorted(texts)) + ")"


def canonical_texts(label_of: List[str], parent_of: List[int], axis_of: List[Optional[str]]) -> List[str]:
    """Each node's canonical text over its rigid component (it and what hangs
    below it through ``/`` edges), in one reverse pre-order sweep."""
    text_of = list(label_of)
    if len(text_of) == 1:  # a one-node query's text is its label
        return text_of
    below: Dict[int, List[str]] = {}  # the texts of a node's "/"-children
    for node in range(len(label_of) - 1, -1, -1):
        if node in below:
            text_of[node] = canonical_text(label_of[node], below.pop(node))
        if axis_of[node] == AXIS_CHILD:
            below.setdefault(parent_of[node], []).append(text_of[node])
    return text_of


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
    """A query as arrays indexed by pre-order node id (the root is 0):
    ``label_of``, ``parent_of`` (-1 for the root), ``axis_of`` (of the edge
    from the parent; ``None`` for the root) and ``text_of``, the canonical
    text of the node's rigid component (it and what hangs below it through
    ``/`` edges).  ``QueryTree(root)`` numbers the nodes below *root* in one
    pre-order walk and fills the same arrays.
    """

    __slots__ = ("label_of", "parent_of", "axis_of", "text_of", "_nodes")

    def __init__(self, root: QueryNode):
        self._nodes: Optional[List[QueryNode]] = list(root.preorder())
        for node_id, node in enumerate(self._nodes):
            node.node_id = node_id
        self.label_of = [node.label for node in self._nodes]
        self.parent_of = [-1] + [node.parent.node_id for node in self._nodes[1:]]
        self.axis_of = [None] + [node.parent_axis for node in self._nodes[1:]]
        self.text_of = canonical_texts(self.label_of, self.parent_of, self.axis_of)

    @classmethod
    def of_arrays(cls, label_of: List[str], parent_of: List[int], axis_of: List[Optional[str]]) -> "QueryTree":
        """The query the arrays describe, its canonical texts composed over them."""
        query = cls.__new__(cls)
        query.label_of, query.parent_of, query.axis_of = label_of, parent_of, axis_of
        query.text_of = canonical_texts(label_of, parent_of, axis_of)
        query._nodes = None
        return query

    # ------------------------------------------------------------------
    def _walkable(self) -> List[QueryNode]:
        """The query's nodes in pre-order, built on first use."""
        if self._nodes is None:
            nodes = [QueryNode(label) for label in self.label_of]
            for child in range(1, len(nodes)):
                nodes[self.parent_of[child]].add_child(nodes[child], self.axis_of[child])
            for node_id, node in enumerate(nodes):
                node.node_id = node_id
            self._nodes = nodes
        return self._nodes

    @property
    def root(self) -> QueryNode:
        """The root node."""
        return self._walkable()[0]

    def nodes(self) -> List[QueryNode]:
        """All query nodes in pre-order (index == ``node_id``)."""
        return list(self._walkable())

    def node(self, node_id: int) -> QueryNode:
        """The node with the given identifier."""
        return self._walkable()[node_id]

    def size(self) -> int:
        """Number of nodes in the query."""
        return len(self.label_of)

    def edges(self) -> List[Tuple[QueryNode, QueryNode, str]]:
        """All ``(parent, child, axis)`` edges of the query, children in pre-order."""
        nodes = self._walkable()
        return [(nodes[self.parent_of[child]], nodes[child], self.axis_of[child]) for child in range(1, len(nodes))]

    def labels(self) -> List[str]:
        """Labels of the query nodes in pre-order."""
        return list(self.label_of)

    def to_string(self) -> str:
        """Serialise the query in the textual syntax (:meth:`QueryNode.to_string`'s)."""
        depth, parts = [0], [self.label_of[0]]
        for node in range(1, len(self.label_of)):
            depth.append(depth[self.parent_of[node]] + 1)
            # Close the brackets of the nodes left, then open this one's.
            parts += [")" * (depth[node - 1] - depth[node] + 1), "(" if self.axis_of[node] == AXIS_CHILD else "(//"]
            parts.append(self.label_of[node])
        return "".join(parts) + ")" * depth[-1]

    def copy(self) -> "QueryTree":
        """Deep copy with freshly assigned node ids."""
        return QueryTree.of_arrays(list(self.label_of), list(self.parent_of), list(self.axis_of))

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


def has_duplicate_siblings(query: QueryTree | QueryNode) -> bool:
    """``True`` when some node has two children with identical unordered structure.

    Every engine answers such *twin* queries exactly
    (``docs/query-language.md``, *Repeated siblings*).  The workload
    generators still skip them so that the committed tables keep their exact
    cells until they are all refreshed at one commit (ROADMAP item 5(c)).
    """
    tree = query if isinstance(query, QueryTree) else QueryTree(query.copy())  # leaves its ids alone
    # Structure alone: every edge read as "/", so a text is the whole subtree's.
    texts = canonical_texts(tree.label_of, tree.parent_of, [AXIS_CHILD] * tree.size())
    return len(set(zip(tree.parent_of, texts))) < tree.size()
