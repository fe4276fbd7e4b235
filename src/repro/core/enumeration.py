"""Enumerating the subtrees that become index keys (Section 4.2, Figure 4).

For every node of a data tree, the builder extracts every *connected* subtree
rooted at that node whose size is between 1 and ``mss`` (the maximum subtree
size parameter of the index).  Each extracted subtree contributes one
occurrence -- the tree id plus the interval codes of its nodes in canonical
order -- to the posting list of its canonical key.

One flat kernel, :func:`extract_subtrees`, does all of it bottom-up: a
subtree rooted at a node is the node plus, for some of its children, one of
the subtrees already extracted at that child, so its canonical text and its
nodes in canonical order are *composed* from the children's finished entries
(label + the stable-sorted child texts, the recursion of
:func:`repro.core.keys.canonical_key`) rather than re-derived by walking the
subtree again.  The per-node lists stay small because parse trees branch
little (Figure 3 of the paper; reproduced by the Figure 3 benchmark here).
Index builds, the live delta and the statistics all read the kernel's
output; the iterators below are views of it.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.coding.base import Code, Occurrence
from repro.trees.node import Node, ParseTree
from repro.trees.numbering import IntervalCode

#: One extracted subtree: ``(canonical text, node codes in canonical order, size)``.
Extracted = Tuple[str, Tuple[Code, ...], int]

_TEXT = itemgetter(0)


def extract_subtrees(tree: ParseTree | Node, mss: int) -> Tuple[List[Node], List[List[Extracted]]]:
    """Number *tree* and extract every rooted subtree of at most *mss* nodes.

    Returns the data nodes in pre-order and, parallel to them, the subtrees
    rooted at each node (``pre`` of a code is its node's position plus one).
    Sibling subtrees with equal texts keep their data-tree order, the
    tie-break of :func:`repro.core.keys.canonical_key`'s stable sort.
    """
    if mss < 1:
        raise ValueError("mss must be at least 1")
    root = tree.root if isinstance(tree, ParseTree) else tree
    nodes: List[Node] = []
    levels: List[int] = []
    posts: List[int] = []
    children: List[List[int]] = []
    # One iterative DFS; ``at`` is the parent's position on the way down and
    # the node's own on the way back up, where post numbers are handed out.
    post = 0
    stack: List[Tuple[Node, int, int, bool]] = [(root, 0, -1, False)]
    while stack:
        node, level, at, unwinding = stack.pop()
        if unwinding:
            post += 1
            posts[at] = post
            continue
        position = len(nodes)
        nodes.append(node)
        levels.append(level)
        posts.append(0)
        children.append([])
        if at >= 0:
            children[at].append(position)
        stack.append((node, level, position, True))
        for child in reversed(node.children):
            stack.append((child, level + 1, position, False))

    room = mss - 1
    extracted: List[List[Extracted]] = [[] for _ in nodes]
    # Reverse pre-order visits every child before its parent.
    for position in range(len(nodes) - 1, -1, -1):
        label = nodes[position].label
        own = ((position + 1, posts[position], levels[position]),)
        found = extracted[position]
        found.append((label, own, 1))
        if not room or not children[position]:
            continue
        # Every way of giving some children one of their subtrees each.
        choices: List[Tuple[Tuple[Extracted, ...], int]] = [((), 0)]
        for child in children[position]:
            options = extracted[child]
            choices += [
                (chosen + (option,), used + option[2])
                for chosen, used in choices
                for option in options
                if used + option[2] <= room
            ]
        for chosen, used in choices[1:]:
            if len(chosen) > 1:
                chosen = sorted(chosen, key=_TEXT)
            text, codes = label, own
            for child_text, child_codes, _ in chosen:
                text += "(" + child_text + ")"
                codes += child_codes
            found.append((text, codes, used + 1))
    return nodes, extracted


class ExtractedSubtree:
    """An extracted subtree as a tree of references to the data nodes."""

    __slots__ = ("node", "children")

    def __init__(self, node: Node):
        self.node = node
        self.children: List["ExtractedSubtree"] = []

    @property
    def label(self) -> str:
        """Label of the underlying data node."""
        return self.node.label

    @property
    def size(self) -> int:
        """Number of nodes of the extracted subtree."""
        return 1 + sum(child.size for child in self.children)


def enumerate_subtrees(tree: ParseTree | Node, mss: int) -> Iterator[ExtractedSubtree]:
    """Yield every extracted subtree (size 1..mss) of *tree*, children in canonical order."""
    nodes, extracted = extract_subtrees(tree, mss)
    for found in extracted:
        for _, codes, _ in found:
            # Canonical order is a pre-order: a parent precedes its children.
            views: Dict[int, ExtractedSubtree] = {}
            for pre, _, _ in codes:
                node = nodes[pre - 1]
                view = ExtractedSubtree(node)
                if views:
                    views[id(node.parent)].children.append(view)
                else:
                    top = view
                views[id(node)] = view
            yield top


def enumerate_key_occurrences(
    tree: ParseTree, mss: int
) -> Iterator[Tuple[bytes, Occurrence]]:
    """Yield ``(canonical key, occurrence)`` pairs for every extracted subtree.

    The occurrence's node codes are listed in the canonical order of the key,
    as required by the coding schemes (see :class:`repro.coding.base.Occurrence`).
    """
    for found in extract_subtrees(tree, mss)[1]:
        for text, codes, _ in found:
            yield text.encode("utf-8"), Occurrence(
                tid=tree.tid, codes=tuple(IntervalCode(*code) for code in codes)
            )


def _tally_by_branching(
    trees: Iterable[ParseTree | Node], sizes: Sequence[int]
) -> Tuple[Dict[int, Dict[int, int]], Dict[int, int]]:
    """Per branching factor: extracted subtrees counted by size, and the nodes seen."""
    totals: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    node_counts: Dict[int, int] = defaultdict(int)
    for tree in trees:
        for node, found in zip(*extract_subtrees(tree, max(sizes))):
            node_counts[node.degree] += 1
            counts = totals[node.degree]
            for _, _, size in found:
                if size in sizes:
                    counts[size] += 1
    return totals, node_counts


def count_subtrees_per_node(tree: ParseTree | Node, sizes: Sequence[int]) -> Dict[int, Dict[int, int]]:
    """For every node, count extracted subtrees of each size in *sizes*.

    Returns ``{branching_factor: {size: total subtree count}}`` aggregated
    over the nodes of *tree*; used by the Figure 3 experiment.
    """
    return {degree: dict(counts) for degree, counts in _tally_by_branching([tree], sizes)[0].items()}


def subtree_count_by_root_branching(
    trees: Iterable[ParseTree], sizes: Sequence[int] = (2, 3, 4, 5)
) -> Dict[int, Dict[int, float]]:
    """Average number of extracted subtrees per node, keyed by branching factor.

    Reproduces Figure 3: for each branching factor *b* and each subtree size
    *ss* in *sizes*, the average number of subtrees of that size rooted at a
    node with branching factor *b*.
    """
    totals, node_counts = _tally_by_branching(trees, sizes)
    return {
        degree: {size: counts.get(size, 0) / node_counts[degree] for size in sizes}
        for degree, counts in sorted(totals.items())
        if counts  # a branching factor no counted subtree is rooted at has no row
    }
