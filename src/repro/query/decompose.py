"""The query compiler: ``optimalCover``, ``assign`` / FFD packing and ``minRC``.

Section 5.2 of the paper gives two decomposition algorithms:

``optimalCover``
    produces a join-optimal cover (fewest subtrees).  Subtrees may share
    internal nodes, so it is used with the filter-based and subtree-interval
    codings whose joins can reference any stored node.

``minRC``
    produces the smallest *root-split* cover: every node is covered by a
    subtree rooted at itself or at an ancestor that is also a cover-subtree
    root, so all joins happen between subtree roots and the deep-branching
    anomaly (Definition 10, Figure 5) is avoided.  It is the decomposition
    used with root-split coding.

Both are built on the same child-remainder packing primitive the paper calls
``assign``: child subtrees smaller than ``mss`` are first-fit-decreasing
packed into bins of capacity ``mss - 1`` rooted at the current node (Lemma 3
maps this to FFD bin packing, optimal for ``mss <= 6``).

:func:`compile_query` reads the query's pre-order arrays (label, parent, axis,
canonical text by node id) and never a query node.  A query that is one key
(no ``//`` edge, at most ``mss`` nodes) is answered first (:func:`_one_key`),
keyed by its root's text.  Otherwise a pass (:func:`_scan`) fills flat
per-node arrays -- ``/``-children, size and member ids of the rigid component
below the node, whether that component holds the parent of a ``//`` edge --
and packing works on node ids over them, every cover subtree born with its
key: the root's label followed by the sorted texts of the pieces in its bin.

Three deviations from the paper's pseudocode:

* the paper's ``optimalCover`` can strand unassigned nodes below an already
  assigned ancestor; this implementation instead propagates a *connected
  remainder rooted at the current node* upwards, which preserves the
  join-optimality argument while always producing a valid cover;
* padding ("fill subtrees up to ``mss``") grows a ``minRC`` subtree in
  pre-order over its root's rigid component, each node once its parent is
  in, up to ``mss`` nodes.  A root-split key ``K' ⊇ K`` at the same root
  has ``list(K') ⊆ list(K)``, and a true match restricted to ``K'`` is an
  occurrence of ``K'`` at that root: no true binding is lost or added, so
  exact answers stay exact and no more postings are read.
  ``optimalCover``, whose keys bind every node, pads only with *whole,
  already covered* child subtrees, never a second child of one label;
* same-label siblings map to distinct data nodes (Definition 3), which a
  key's root code alone does not ensure.  A group of *twins* -- all of a
  label's children, on ``/`` edges, equal in text, fitting one bin -- is
  packed as one piece, and that key (``NP(NN)(NN)``) holds them apart.
  Every other ``/``-child with a same-label sibling is *forced* like the
  parent of a ``//`` edge: it roots its own ``minRC`` subtree, so the join
  binds it and ``JoinStep.distinct`` applies; ``optimalCover`` keys bind
  every node, and there a bin never takes a second piece of one root label.

Queries with ``//`` (ancestor-descendant) edges are split into rigid
components first -- index keys cannot express ``//`` -- and each component is
decomposed independently; the executor enforces the cut edges with structural
joins.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.covers import Cover, CoverSubtree
from repro.query.model import QueryTree, canonical_text
from repro.trees.matching import AXIS_CHILD, AXIS_DESCENDANT

STRATEGIES = ("min-rc", "optimal")

#: A connected, still-uncovered part of the query hanging off the packing
#: node: ``(size, node ids, canonical texts, root ids)``.  A whole child
#: component or a deferred remainder has one text and one root; twins merged
#: by ``assign`` have one of each per twin.
_Part = Tuple[int, Tuple[int, ...], Tuple[str, ...], Tuple[int, ...]]

_size_of = itemgetter(0)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def _twins(children: List[int], query: QueryTree, forced: List[bool], size: List[int], room: int):
    """The groups of same-label *children* one key holds (all of the label's, on ``/``
    edges, not ``forced``, equal in text, at most *room* nodes together) and whether
    two ``/``-children are left to the join; every other group's are ``forced``."""
    label_of, axis_of, text_of = query.label_of, query.axis_of, query.text_of
    groups: Dict[str, List[int]] = {}
    for child in children:
        groups.setdefault(label_of[child], []).append(child)
    held, crowded = [], False
    for group in groups.values():
        ids = tuple(child for child in group if axis_of[child] == AXIS_CHILD)
        if len(group) < 2:
            continue
        rigid = len(ids) == len(group) and not any(forced[child] for child in ids)
        if rigid and len({text_of[child] for child in ids}) == 1 and sum(size[child] for child in ids) <= room:
            held.append(ids)
            continue
        crowded = crowded or len(ids) > 1
        for child in ids:
            forced[child] = True
    return held, crowded


def _scan(query: QueryTree, mss: int):
    """One pass over the parent array, then one over the node ids in reverse
    pre-order.  Returns, indexed by node id unless noted:

    ``kids``     ids of the children on ``/`` edges, in query order;
    ``size``     node count of the rigid component subtree below the node;
    ``forced``   the node must root a ``minRC`` subtree of its own: its
                 component holds the parent of a ``//`` edge or of a
                 same-label sibling the join binds, or it is such a sibling;
    ``members``  ids of that component in pre-order, when one key may hold
                 it whole: at most ``mss`` nodes and no two same-label
                 siblings but twins;
    ``cuts``     ``(parent, child)`` of every ``//`` edge, in edge order;
    ``twins``    parent id -> groups (child ids) of twins one key holds
                 (:func:`_twins`).
    """
    label_of, parent_of, axis_of = query.label_of, query.parent_of, query.axis_of
    count = len(parent_of)
    children: List[List[int]] = [[] for _ in range(count)]
    for node in range(1, count):
        children[parent_of[node]].append(node)
    kids: List[Sequence[int]] = [()] * count
    size = [1] * count
    forced = [False] * count
    members: List[Optional[Tuple[int, ...]]] = [(index,) for index in range(count)]
    cuts = sorted((parent_of[node], node) for node in range(1, count) if axis_of[node] != AXIS_CHILD)
    twins: Dict[int, List[Tuple[int, ...]]] = {}
    siblings = len(set(zip(parent_of, label_of))) < count  # two siblings share a label

    for index in range(count - 1, -1, -1):
        every = children[index]
        if not every:
            continue
        kids[index] = below = [child for child in every if axis_of[child] == AXIS_CHILD]
        crowded = False
        if siblings and len({label_of[child] for child in every}) < len(every):
            twins[index], crowded = _twins(every, query, forced, size, mss - 1)
        size[index] = total = 1 + sum(size[child] for child in below)
        forced[index] = len(below) < len(every) or crowded or any(forced[child] for child in below)
        if total > mss or crowded or any(members[child] is None for child in below):
            members[index] = None
        else:
            members[index] = sum((members[child] for child in below), (index,))
    return kids, size, forced, members, cuts, twins


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
#: ``frozenset(range(count))``, a one-key cover's node set, shared by every such cover.
_EVERY = tuple(frozenset(range(count)) for count in range(8))


def _one_key(query: QueryTree) -> Optional[Cover]:
    """The cover of a query that is one key, the text the parser composed
    for its root; ``None`` when a ``//`` edge cuts the query."""
    if AXIS_DESCENDANT in query.axis_of:
        return None
    count = len(query.label_of)
    every = _EVERY[count] if count < len(_EVERY) else frozenset(range(count))
    return Cover(query, [CoverSubtree(query, 0, every, query.text_of[0].encode("utf-8"))])


def _merge_twins(groups: List[Tuple[int, ...]], pieces: List[_Part]) -> List[_Part]:
    """Each of the *groups* of twins among the *pieces* as one piece."""
    for group in groups:
        at = [i for i, piece in enumerate(pieces) if piece[3][0] in group]
        merged = tuple(sum((pieces[i][part] for i in at), ()) for part in (1, 2, 3))
        pieces[at[0]] = (sum(pieces[i][0] for i in at),) + merged
        for i in reversed(at[1:]):
            del pieces[i]
    return pieces


def compile_query(query: QueryTree, mss: int, strategy: str = "optimal", pad: bool = True) -> Cover:
    """Compile *query* to a cover of subtrees of at most *mss* nodes.

    *strategy* is ``"min-rc"`` (the smallest root-split cover: every subtree
    root's parent roots another subtree, and so does the parent of every
    ``//`` edge, since the executor can only anchor a join on a node whose
    code is stored) or ``"optimal"`` (fewest subtrees; subtrees may overlap
    on internal nodes).  With *pad*, subtrees are grown towards *mss*: in
    pre-order (min-rc) or with whole, already covered child subtrees.
    """
    if mss < 1:
        raise ValueError("mss must be at least 1")
    if strategy not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown decomposition strategy {strategy!r} (known: {known})")
    if len(query.label_of) <= mss and (cover := _one_key(query)) is not None:
        return cover
    return _packed(query, mss, strategy, pad, _scan(query, mss))


def _packed(query: QueryTree, mss: int, strategy: str, pad: bool, scanned: tuple) -> Cover:
    """:func:`compile_query` past the one-key exit, which pays for none of these closures."""
    kids, size, forced, members, cuts, twins = scanned
    label_of, text_of = query.label_of, query.text_of
    capacity = mss - 1
    out: List[CoverSubtree] = []

    def whole(node: int) -> None:
        """The component below *node* as one cover subtree."""
        out.append(CoverSubtree(query, node, frozenset(members[node]), text_of[node].encode("utf-8")))

    def assign(node: int, pieces: List[_Part]) -> List[list]:
        """First-fit-decreasing packing of *pieces* into bins of ``mss - 1``
        nodes, never two pieces of one root label in a bin; a bin is
        ``[fill, ids, texts, root labels]``."""
        if node in twins:
            pieces = _merge_twins(twins[node], pieces)
        if len(pieces) > 1:
            pieces.sort(key=_size_of, reverse=True)
        bins: List[list] = []
        for piece_size, ids, texts, roots in pieces:
            label = label_of[roots[0]]
            for held in bins:
                if held[0] + piece_size <= capacity and label not in held[3]:
                    held[0] += piece_size
                    held[1] += ids
                    held[2] += texts
                    held[3] += (label,)
                    break
            else:
                bins.append([piece_size, ids, texts, (label,)])
        return bins

    def filled(node: int, ids: Tuple[int, ...]) -> CoverSubtree:
        """*node*'s bin grown in pre-order over its rigid component, each node
        whose parent it holds, until it has ``mss`` nodes or none is left."""
        held, stack = {node, *ids}, kids[node][::-1]
        while stack and len(held) < mss:
            at = stack.pop()
            held.add(at)
            stack += kids[at][::-1]

        def compose(at: int) -> str:
            return canonical_text(label_of[at], [compose(kid) for kid in kids[at] if kid in held])

        return CoverSubtree(query, node, frozenset(held), compose(node).encode("utf-8"))

    def root_bins(node: int, bins: List[list]) -> None:
        """The bins packed at *node* as cover subtrees rooted there."""
        below = kids[node]
        for fill, ids, texts, *_ in bins:
            if pad and fill + 1 < mss and fill + 1 < size[node]:
                if strategy == "min-rc":
                    out.append(filled(node, ids))
                    continue
                # Only whole child components other subtrees cover, and never
                # a second child of one label.
                held = set(ids)
                seen = {label_of[child] for child in below if child in held}
                for child in below:
                    label = label_of[child]
                    if child in held or members[child] is None or fill + 1 + size[child] > mss or label in seen:
                        continue
                    fill += size[child]
                    ids += members[child]
                    texts += (text_of[child],)
                    held.update(members[child])
                    seen.add(label)
            key = canonical_text(label_of[node], texts).encode("utf-8")
            out.append(CoverSubtree(query, node, frozenset((node,) + ids), key))

    def cover_min_rc(node: int) -> None:
        """Smallest root-split cover of the rigid component below *node*."""
        pieces: List[_Part] = []
        for child in kids[node]:
            if forced[child] or size[child] > mss:
                # The parent of a "//" edge must root its own subtree: descend.
                cover_min_rc(child)
            elif size[child] == mss:
                whole(child)
            else:
                pieces.append((size[child], members[child], (text_of[child],), (child,)))
        # With nothing to pack the node still needs a subtree rooted here.
        root_bins(node, assign(node, pieces) or [[0, (), ()]])

    def cover_optimal(node: int, component_root: bool) -> Optional[_Part]:
        """Cover the rigid component below *node*; may defer a remainder
        rooted at *node* to the parent's packing."""
        pieces: List[_Part] = []
        for child in kids[node]:
            if members[child] is None:
                # Too large, or holding same-label siblings no key may hold.
                deferred = cover_optimal(child, False)
                if deferred is not None:
                    pieces.append(deferred)
            elif size[child] == mss:
                whole(child)
            else:
                pieces.append((size[child], members[child], (text_of[child],), (child,)))
        bins = assign(node, pieces)
        rest: Optional[list] = None
        if not component_root and mss > 1:
            if not bins:
                rest = [0, (), ()]
            else:
                # Defer the least-full bin to the parent when it still fits there.
                least = min(range(len(bins)), key=lambda at: bins[at][0])
                if bins[least][0] + 1 <= capacity:
                    rest = bins.pop(least)
        if not bins and rest is None:
            # Nothing roots here and nothing is deferred: the node still needs covering.
            bins.append([0, (), ()])
        root_bins(node, bins)
        if rest is None:
            return None
        fill, ids, texts, *_ = rest
        return fill + 1, (node,) + ids, (canonical_text(label_of[node], texts),), (node,)

    for root in [0] + [child for _, child in cuts]:
        if strategy == "min-rc":
            cover_min_rc(root)
        else:
            cover_optimal(root, True)
    return Cover(query, out)


def optimal_cover(query: QueryTree, mss: int, pad: bool = True) -> Cover:
    """Join-optimal cover of *query* (paper's ``optimalCover``)."""
    return compile_query(query, mss, "optimal", pad)


def min_rc(query: QueryTree, mss: int, pad: bool = True) -> Cover:
    """Smallest root-split cover of *query* (paper's ``minRC``)."""
    return compile_query(query, mss, "min-rc", pad)
