"""In-memory representation of syntactically annotated trees.

A syntactically annotated tree (Definition 1 in the paper) is a rooted,
labelled, ordered tree.  Although query matching treats children as
*unordered*, the data trees themselves carry the surface order of the
sentence, which is preserved for reconstruction and display.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence


class Node:
    """A single node of a parse tree.

    Parameters
    ----------
    label:
        The node label -- a Penn Treebank constituent tag (``NP``, ``VP``),
        a part-of-speech tag (``NN``, ``VBZ``) or a lexical token for leaf
        nodes (``agouti``).
    children:
        The ordered children of the node.  Leaves have no children.
    """

    __slots__ = ("label", "children", "parent")

    def __init__(self, label: str, children: Optional[Sequence["Node"]] = None):
        self.label = label
        self.children: List[Node] = list(children) if children else []
        self.parent: Optional[Node] = None
        for child in self.children:
            child.parent = self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_child(self, child: "Node") -> "Node":
        """Append *child* to this node's children and return the child."""
        child.parent = self
        self.children.append(child)
        return child

    def copy(self) -> "Node":
        """Return a deep copy of the subtree rooted at this node."""
        return Node(self.label, [child.copy() for child in self.children])

    # ------------------------------------------------------------------
    # Basic structure queries
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """``True`` when the node has no children."""
        return not self.children

    @property
    def degree(self) -> int:
        """Branching factor (number of children) of this node."""
        return len(self.children)

    def size(self) -> int:
        """Number of nodes in the subtree rooted at this node."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Depth of this node from the root (the root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator["Node"]:
        """Yield the nodes of this subtree in pre-order (depth-first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["Node"]:
        """Yield the nodes of this subtree in post-order."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def leaves(self) -> Iterator["Node"]:
        """Yield the leaf nodes of this subtree, left to right."""
        for node in self.preorder():
            if node.is_leaf:
                yield node

    def descendants(self) -> Iterator["Node"]:
        """Yield all proper descendants of this node in pre-order."""
        for child in self.children:
            yield from child.preorder()

    def ancestors(self) -> Iterator["Node"]:
        """Yield the proper ancestors of this node, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # ------------------------------------------------------------------
    # Label utilities
    # ------------------------------------------------------------------
    def labels(self) -> Iterator[str]:
        """Yield the labels of all nodes in this subtree in pre-order."""
        for node in self.preorder():
            yield node.label

    def tokens(self) -> List[str]:
        """Return the surface tokens (leaf labels) of this subtree."""
        return [leaf.label for leaf in self.leaves()]

    def find(self, predicate: Callable[["Node"], bool]) -> Iterator["Node"]:
        """Yield nodes of this subtree satisfying *predicate*, in pre-order."""
        for node in self.preorder():
            if predicate(node):
                yield node

    def find_label(self, label: str) -> Iterator["Node"]:
        """Yield nodes of this subtree whose label equals *label*."""
        return self.find(lambda node: node.label == label)

    # ------------------------------------------------------------------
    # Comparison and representation
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "Node", ordered: bool = True) -> bool:
        """Return ``True`` when two subtrees have identical structure.

        With ``ordered=False`` children are compared as multisets, which is
        the equality notion used for index keys (the paper treats subtrees
        as unordered when they are indexed).
        """
        if self.label != other.label or len(self.children) != len(other.children):
            return False
        if ordered:
            return all(
                a.structurally_equal(b, ordered=True)
                for a, b in zip(self.children, other.children)
            )
        remaining = list(other.children)
        for child in self.children:
            for index, candidate in enumerate(remaining):
                if child.structurally_equal(candidate, ordered=False):
                    del remaining[index]
                    break
            else:
                return False
        return True

    def to_compact_string(self) -> str:
        """Render this subtree in the paper's compact notation, e.g. ``A(B)(C(D))``."""
        if not self.children:
            return self.label
        rendered = "".join(
            "(" + child.to_compact_string() + ")" for child in self.children
        )
        return self.label + rendered

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Node({self.to_compact_string()!r})"


class ParseTree:
    """A syntactically annotated tree with a corpus-level identity.

    Wraps a root :class:`Node` together with the tree identifier (``tid``)
    used throughout the index and posting-list machinery.
    """

    __slots__ = ("tid", "root")

    def __init__(self, root: Node, tid: int = -1):
        self.root = root
        self.tid = tid

    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of nodes in the tree."""
        return self.root.size()

    def preorder(self) -> Iterator[Node]:
        """Yield nodes in pre-order."""
        return self.root.preorder()

    def leaves(self) -> Iterator[Node]:
        """Yield leaves left to right."""
        return self.root.leaves()

    def tokens(self) -> List[str]:
        """Return the sentence tokens of the tree."""
        return self.root.tokens()

    def labels(self) -> Iterable[str]:
        """Yield labels in pre-order."""
        return self.root.labels()

    def copy(self) -> "ParseTree":
        """Return a deep copy of the tree (same ``tid``)."""
        return ParseTree(self.root.copy(), tid=self.tid)

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ParseTree(tid={self.tid}, root={self.root.to_compact_string()!r})"


def build_tree(spec: object) -> Node:
    """Build a :class:`Node` tree from a nested ``(label, [children])`` spec.

    This is a convenience constructor used pervasively in tests::

        build_tree(("A", [("B", []), ("C", [("D", [])])]))

    Strings are accepted as a shorthand for leaves.
    """
    if isinstance(spec, str):
        return Node(spec)
    if isinstance(spec, Node):
        return spec
    label, children = spec  # type: ignore[misc]
    return Node(str(label), [build_tree(child) for child in children])
