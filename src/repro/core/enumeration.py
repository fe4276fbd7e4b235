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
:func:`extract_root_texts` is the same composition over texts alone, for the
codings that store no node below an occurrence's root.  Index builds, the
live delta and the statistics all read one of the two; the Figure 3 counters
below are views of the kernel's output.

Both read a tree as its :data:`~repro.trees.penn.Numbering` -- labels, codes
and child positions in pre-order -- which :func:`number` takes from a node
tree and :func:`~repro.trees.penn.scan_penn` straight from Penn text, so a
tree added to a live index is never built as nodes.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.coding.base import Code
from repro.trees.node import Node, ParseTree
from repro.trees.penn import Numbering

#: One extracted subtree: ``(canonical text, node codes in canonical order, size)``.
Extracted = Tuple[str, Tuple[Code, ...], int]

_TEXT = itemgetter(0)


def number(tree: ParseTree | Node) -> Numbering:
    """One DFS: the labels in pre-order, their ``(pre, post, level)`` codes
    and, per node, the positions of its children (``pre`` is a position plus
    one) -- the :data:`~repro.trees.penn.Numbering` that
    :func:`~repro.trees.penn.scan_penn` reads off a tree's Penn text."""
    root = tree.root if isinstance(tree, ParseTree) else tree
    labels: List[str] = []
    levels: List[int] = []
    posts: List[int] = []
    children: List[List[int]] = []
    # ``at`` is the parent's position on the way down and the node's own on
    # the way back up, where post numbers are handed out.
    post = 0
    stack: List[Tuple[Node, int, int, bool]] = [(root, 0, -1, False)]
    while stack:
        node, level, at, unwinding = stack.pop()
        if unwinding:
            post += 1
            posts[at] = post
            continue
        position = len(labels)
        labels.append(node.label)
        levels.append(level)
        posts.append(0)
        children.append([])
        if at >= 0:
            children[at].append(position)
        stack.append((node, level, position, True))
        for child in reversed(node.children):
            stack.append((child, level + 1, position, False))
    return labels, list(zip(range(1, len(labels) + 1), posts, levels)), children


def extract_subtrees(numbering: Numbering, mss: int) -> List[List[Extracted]]:
    """Extract every rooted subtree of at most *mss* nodes of a numbered tree.

    Returns, parallel to the nodes in pre-order, the subtrees rooted at each
    (``pre`` of a code is its node's position plus one).  Sibling subtrees
    with equal texts keep their data-tree order, the tie-break of
    :func:`repro.core.keys.canonical_key`'s stable sort.
    """
    if mss < 1:
        raise ValueError("mss must be at least 1")
    labels, numbered, children = numbering
    room = mss - 1
    extracted: List[List[Extracted]] = [[] for _ in labels]
    # Reverse pre-order visits every child before its parent.
    for position in range(len(labels) - 1, -1, -1):
        label = labels[position]
        own = (numbered[position],)
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
    return extracted


def extract_root_texts(numbering: Numbering, mss: int) -> List[Dict[str, int]]:
    """The keys rooted at each node of a numbered tree, without their embeddings.

    Returns, parallel to the nodes in pre-order, ``{canonical text: size}``
    of the distinct subtrees of at most *mss* nodes rooted there:
    ``{(text, root)}`` of :func:`extract_subtrees`, all a coding needs whose
    postings store no node below the root.  Texts are composed as there, but
    of texts alone, and embeddings that spell the same text collapse at their
    root before they can multiply at its parent.
    """
    if mss < 1:
        raise ValueError("mss must be at least 1")
    labels, _, children = numbering
    room = mss - 1
    texts: List[Dict[str, int]] = [{label: 1} for label in labels]
    if not room:
        return texts
    for position in range(len(labels) - 1, -1, -1):
        if not children[position]:
            continue
        choices: List[Tuple[Tuple[str, ...], int]] = [((), 0)]
        for child in children[position]:
            options = texts[child].items()
            choices += [
                (chosen + (text,), used + size)
                for chosen, used in choices
                for text, size in options
                if used + size <= room
            ]
        label = labels[position]
        found = texts[position]
        for chosen, used in choices[1:]:
            if len(chosen) > 1:
                chosen = sorted(chosen)
            found[label + "(" + ")(".join(chosen) + ")"] = used + 1
    return texts


def _tally_by_branching(
    trees: Iterable[ParseTree | Node], sizes: Sequence[int]
) -> Tuple[Dict[int, Dict[int, int]], Dict[int, int]]:
    """Per branching factor: extracted subtrees counted by size, and the nodes seen."""
    totals: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    node_counts: Dict[int, int] = defaultdict(int)
    for tree in trees:
        numbering = number(tree)
        for below, found in zip(numbering[2], extract_subtrees(numbering, max(sizes))):
            node_counts[len(below)] += 1
            counts = totals[len(below)]
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
