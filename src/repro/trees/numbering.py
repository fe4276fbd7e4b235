"""Interval numbering of tree nodes.

Section 3 of the paper describes the classic *(node) interval coding* used to
answer containment queries over trees: each node is assigned a pair of
``pre``/``post`` numbers (the pre- and post-visit ranks of a DFS traversal)
together with its ``level``.  Ancestor/descendant and parent/child
relationships reduce to arithmetic comparisons over these numbers:

* ``u`` is an ancestor of ``v``   iff  ``u.pre < v.pre`` and ``u.post > v.post``
* ``u`` is the parent of ``v``    iff  the above and ``u.level == v.level - 1``

The subtree-interval and root-split codings of Section 4.4 reuse the node
numbers computed here; the ``order`` value (pre-order rank *within an indexed
subtree*) is computed separately at key-extraction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.trees.node import Node, ParseTree


@dataclass(frozen=True)
class IntervalCode:
    """The structural numbers assigned to a single tree node."""

    pre: int
    post: int
    level: int


def number_tree(tree: ParseTree | Node) -> Dict[int, IntervalCode]:
    """Assign interval codes to every node of *tree*.

    Returns a mapping keyed by ``id(node)`` (object identity) so callers can
    annotate arbitrary traversals without mutating the nodes themselves.
    Pre and post ranks start at 1, matching the usual presentation.
    """
    root = tree.root if isinstance(tree, ParseTree) else tree
    codes: Dict[int, IntervalCode] = {}
    pre_counter = 0
    post_counter = 0

    # Iterative DFS carrying the level; emit post numbers on unwind.
    stack: List[Tuple[Node, int, bool]] = [(root, 0, False)]
    pre_of: Dict[int, int] = {}
    level_of: Dict[int, int] = {}
    while stack:
        node, level, visited = stack.pop()
        if visited:
            post_counter += 1
            codes[id(node)] = IntervalCode(pre_of[id(node)], post_counter, level_of[id(node)])
            continue
        pre_counter += 1
        pre_of[id(node)] = pre_counter
        level_of[id(node)] = level
        stack.append((node, level, True))
        for child in reversed(node.children):
            stack.append((child, level + 1, False))
    return codes
