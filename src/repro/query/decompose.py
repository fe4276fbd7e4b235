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

:func:`compile_query` runs either of them in two steps.  One pass over the
query's nodes in reverse pre-order (:func:`_scan`) fills flat per-node
arrays -- ``/``-children, size and member ids of the rigid component below
the node, whether that component holds the parent of a ``//`` edge, and the
node's canonical text, composed from its children's finished texts the way
:func:`repro.core.enumeration.extract_subtrees` composes the keys of a data
tree.  Packing then works on node ids over those arrays, and every cover
subtree is born with its key: a bin's key is the root's label followed by
the sorted texts of the pieces packed into it.  A query that is one key (no
``//`` edge, at most ``mss`` nodes) never reaches the pass (:func:`_one_key`).

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

from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.covers import Cover, CoverSubtree, Edge
from repro.query.model import QueryNode, QueryTree
from repro.trees.matching import AXIS_CHILD, AXIS_DESCENDANT

STRATEGIES = ("min-rc", "optimal")

#: A connected, still-uncovered part of the query hanging off the packing
#: node: ``(size, node ids, canonical texts, root ids)``.  A whole child
#: component or a deferred remainder has one text and one root; twins merged
#: by ``assign`` have one of each per twin.
_Part = Tuple[int, Tuple[int, ...], Tuple[str, ...], Tuple[int, ...]]

_size_of = itemgetter(0)


def _compose(label: str, texts: Sequence[str]) -> str:
    """Canonical text of a node over the canonical *texts* of its children."""
    return label + "(" + ")(".join(sorted(texts)) + ")" if texts else label


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def _same_labels(children: Sequence[QueryNode]) -> List[Tuple[int, int]]:
    """The ``pairs`` of :func:`_scan` that *children* add."""
    if len(children) < 2 or len({child.label for child in children}) == len(children):
        return []
    same = [(one.node_id, two.node_id) for one, two in combinations(children, 2) if one.label == two.label]
    return [pair for one, two in same for pair in ((one, two), (two, one))]


def _twins(node: QueryNode, forced: List[bool], text: List[str], size: List[int], room: int):
    """The groups of same-label children of *node* one key holds -- all of
    the label's children, on ``/`` edges, not ``forced``, equal in text, at
    most *room* nodes together -- and whether two ``/``-children are left to
    the join.  Every ``/``-child of another group is marked ``forced``."""
    groups: Dict[str, List[Tuple[int, str]]] = {}
    for child, axis in zip(node.children, node.child_axes):
        groups.setdefault(child.label, []).append((child.node_id, axis))
    held, crowded = [], False
    for group in groups.values():
        ids = tuple(child for child, axis in group if axis == AXIS_CHILD)
        if len(group) < 2:
            continue
        rigid = len(ids) == len(group) and not any(forced[child] for child in ids)
        if rigid and len({text[child] for child in ids}) == 1 and sum(size[child] for child in ids) <= room:
            held.append(ids)
            continue
        crowded = crowded or len(ids) > 1
        for child in ids:
            forced[child] = True
    return held, crowded


def _scan(nodes: Sequence[QueryNode], mss: int):
    """One reverse pre-order pass over *nodes* (``node_id`` == index).

    Returns, indexed by node id unless noted:

    ``kids``     ids of the children on ``/`` edges, in query order;
    ``size``     node count of the rigid component subtree below the node;
    ``forced``   the node must root a ``minRC`` subtree of its own: its
                 component holds the parent of a ``//`` edge or of a
                 same-label sibling the join binds, or it is such a sibling;
    ``text``     canonical text of that component;
    ``members``  ids of that component in pre-order, when one key may hold
                 it whole: at most ``mss`` nodes and no two same-label
                 siblings but twins;
    ``edges``    every query edge ``(parent, child, is "/")``, by child id;
    ``cuts``     ``(parent, child)`` of every ``//`` edge, in edge order;
    ``twins``    parent id -> groups (child ids) of twins one key holds
                 (:func:`_twins`);
    ``pairs``    ``(first, second)`` and ``(second, first)`` of every two
                 same-label siblings, parents in pre-order: they map to
                 distinct data nodes, which labels alone do not ensure.
    """
    count = len(nodes)
    kids: List[Sequence[int]] = [()] * count
    size = [1] * count
    forced = [False] * count
    text = [node.label for node in nodes]
    members: List[Optional[Tuple[int, ...]]] = [(index,) for index in range(count)]
    edges: List[Edge] = [(0, 0, True)] * (count - 1)
    cuts: List[Tuple[int, int]] = []
    twins: Dict[int, List[Tuple[int, ...]]] = {}
    pairs: List[Tuple[int, int]] = []

    for index in range(count - 1, -1, -1):
        node = nodes[index]
        children = node.children
        if not children:
            continue
        below: List[int] = []
        texts: List[str] = []
        total = 1
        holds_cut = False
        for child, axis in zip(children, node.child_axes):
            child_id = child.node_id
            if axis == AXIS_CHILD:
                edges[child_id - 1] = (index, child_id, True)
                below.append(child_id)
                texts.append(text[child_id])
                total += size[child_id]
                holds_cut = holds_cut or forced[child_id]
            else:
                edges[child_id - 1] = (index, child_id, False)
                cuts.append((index, child_id))
        crowded = False
        if same := _same_labels(children):
            pairs[:0] = same
            twins[index], crowded = _twins(node, forced, text, size, mss - 1)
        kids[index], size[index] = below, total
        forced[index] = holds_cut or crowded or len(below) < len(children)
        if total > mss or crowded or any(members[child_id] is None for child_id in below):
            members[index] = None
        else:
            members[index] = sum((members[child_id] for child_id in below), (index,))
        text[index] = _compose(node.label, texts)
    cuts.sort()
    return kids, size, forced, text, members, tuple(edges), cuts, twins, tuple(pairs)


def query_links(query: QueryTree) -> Tuple[Tuple[Edge, ...], Tuple[Tuple[int, int], ...]]:
    """The query's edges and same-label sibling pairs, as :func:`compile_query`
    puts them on a cover (for a cover built by hand, which has neither)."""
    *_, edges, _, _, pairs = _scan(query._nodes, 0)
    return edges, pairs


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
#: The node set of a one-node query's key, shared by every such cover.
_ROOT_ONLY = frozenset((0,))


def _one_key(query: QueryTree) -> Optional[Cover]:
    """The cover of a query that is one key, composed over its nodes without
    the pass -- a one-node query's is its label, with no edge and no pair;
    ``None`` when a ``//`` edge cuts the query."""
    nodes = query._nodes
    if len(nodes) == 1:
        root = query.root
        return Cover(query, [CoverSubtree(root, _ROOT_ONLY, root.label.encode("utf-8"))], (), ())
    text = [node.label for node in nodes]
    pairs: List[Tuple[int, int]] = []
    for node in reversed(nodes):
        children = node.children
        if children:
            if AXIS_DESCENDANT in node.child_axes:
                return None
            text[node.node_id] = _compose(node.label, [text[child.node_id] for child in children])
            pairs[:0] = _same_labels(children)
    edges = tuple((node.parent.node_id, node.node_id, True) for node in nodes[1:])
    only = CoverSubtree(query.root, frozenset(range(len(nodes))), text[0].encode("utf-8"))
    return Cover(query, [only], edges, twin_pairs=tuple(pairs))


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
    nodes = query._nodes
    if len(nodes) <= mss and (cover := _one_key(query)) is not None:
        return cover
    kids, size, forced, text, members, edges, cuts, twins, pairs = _scan(nodes, mss)
    capacity = mss - 1
    out: List[CoverSubtree] = []

    def whole(node: int) -> None:
        """The component below *node* as one cover subtree."""
        out.append(CoverSubtree(nodes[node], frozenset(members[node]), text[node].encode("utf-8")))

    def merge_twins(node: int, pieces: List[_Part]) -> List[_Part]:
        """Each group of twins below *node* as one piece."""
        for group in twins[node]:
            at = [i for i, piece in enumerate(pieces) if piece[3][0] in group]
            merged = tuple(sum((pieces[i][part] for i in at), ()) for part in (1, 2, 3))
            pieces[at[0]] = (sum(pieces[i][0] for i in at),) + merged
            for i in reversed(at[1:]):
                del pieces[i]
        return pieces

    def assign(node: int, pieces: List[_Part]) -> List[list]:
        """First-fit-decreasing packing of *pieces* into bins of ``mss - 1``
        nodes, never two pieces of one root label in a bin; a bin is
        ``[fill, ids, texts, root labels]``."""
        if node in twins:
            pieces = merge_twins(node, pieces)
        if len(pieces) > 1:
            pieces.sort(key=_size_of, reverse=True)
        bins: List[list] = []
        for piece_size, ids, texts, roots in pieces:
            label = nodes[roots[0]].label
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
            return _compose(nodes[at].label, [compose(kid) for kid in kids[at] if kid in held])

        return CoverSubtree(nodes[node], frozenset(held), compose(node).encode("utf-8"))

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
                seen = {nodes[child].label for child in below if child in held}
                for child in below:
                    label = nodes[child].label
                    if child in held or members[child] is None or fill + 1 + size[child] > mss or label in seen:
                        continue
                    fill += size[child]
                    ids += members[child]
                    texts += (text[child],)
                    held.update(members[child])
                    seen.add(label)
            key = _compose(nodes[node].label, texts).encode("utf-8")
            out.append(CoverSubtree(nodes[node], frozenset((node,) + ids), key))

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
                pieces.append((size[child], members[child], (text[child],), (child,)))
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
                pieces.append((size[child], members[child], (text[child],), (child,)))
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
        return fill + 1, (node,) + ids, (_compose(nodes[node].label, texts),), (node,)

    for root in [0] + [child for _, child in cuts]:
        if strategy == "min-rc":
            cover_min_rc(root)
        else:
            cover_optimal(root, True)
    return Cover(query, out, edges, pairs)


def optimal_cover(query: QueryTree, mss: int, pad: bool = True) -> Cover:
    """Join-optimal cover of *query* (paper's ``optimalCover``)."""
    return compile_query(query, mss, "optimal", pad)


def min_rc(query: QueryTree, mss: int, pad: bool = True) -> Cover:
    """Smallest root-split cover of *query* (paper's ``minRC``)."""
    return compile_query(query, mss, "min-rc", pad)
