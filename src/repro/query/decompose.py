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
the sorted texts of the pieces packed into it.

Three deviations from the paper's pseudocode:

* the paper's ``optimalCover`` can strand unassigned nodes below an already
  assigned ancestor; this implementation instead propagates a *connected
  remainder rooted at the current node* upwards, which preserves the
  join-optimality argument while always producing a valid cover;
* the optional padding step ("fill subtrees up to ``mss``") only absorbs
  *whole, already covered* child subtrees, never partial paths into covered
  regions, because partial padding is exactly what re-introduces the
  deep-branching anomaly the root-split cover must avoid;
* ``assign`` packs canonically-equal siblings (*twins*) as one piece when
  the group fits a bin: only a key that holds both, ``NP(NN)(NN)``, makes
  them bind distinct data nodes.  Twins too large to share a subtree stay
  apart and are reported in :attr:`~repro.query.covers.Cover.split_twins`.

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
from repro.trees.matching import AXIS_CHILD

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
def _scan(nodes: Sequence[QueryNode], mss: int):
    """One reverse pre-order pass over *nodes* (``node_id`` == index).

    Returns, indexed by node id unless noted:

    ``kids``     ids of the children on ``/`` edges, in query order;
    ``size``     node count of the rigid component subtree below the node;
    ``forced``   that component contains the parent of a ``//`` edge;
    ``text``     canonical text of that component;
    ``full``     canonical text over *all* children, axes ignored (what
                 makes two siblings twins); the same list as ``text`` for a
                 query without ``//`` edges;
    ``members``  ids of that component in pre-order, when ``size <= mss``;
    ``edges``    every query edge ``(parent, child, is "/")``, by child id;
    ``cuts``     ``(parent, child)`` of every ``//`` edge, in edge order;
    ``twins``    parent id -> groups (child ids) of equal ``full`` text;
    ``pairs``    ``(first, second)`` and ``(second, first)`` of every two
                 same-label siblings, parents in pre-order: they map to
                 distinct data nodes, which labels alone do not ensure.
    """
    count = len(nodes)
    kids: List[Sequence[int]] = [()] * count
    size = [1] * count
    forced = [False] * count
    text = [node.label for node in nodes]
    full = text
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
                if forced[child_id]:
                    holds_cut = True
            else:
                edges[child_id - 1] = (index, child_id, False)
                cuts.append((index, child_id))
        if len(children) > 1 and len({child.label for child in children}) < len(children):
            same = [
                (one.node_id, two.node_id) for one, two in combinations(children, 2) if one.label == two.label
            ]
            pairs[:0] = [pair for one, two in same for pair in ((one, two), (two, one))]
        rigid = len(below) == len(children)
        kids[index], size[index], forced[index] = below, total, holds_cut or not rigid
        if total > mss:
            members[index] = None
        else:
            ids = (index,)
            for child_id in below:
                ids += members[child_id]
            members[index] = ids
        if len(texts) > 1:
            texts.sort()
        if texts:
            text[index] += "(" + ")(".join(texts) + ")"
        if full is not text or not rigid:
            if full is text:
                full = list(text)
            texts = sorted([full[child.node_id] for child in children])
            full[index] = _compose(node.label, texts)
        if len(texts) > 1 and len(set(texts)) < len(texts):
            groups: Dict[str, List[int]] = {}
            for child in children:
                groups.setdefault(full[child.node_id], []).append(child.node_id)
            twins[index] = [tuple(group) for group in groups.values() if len(group) > 1]
    cuts.sort()
    return kids, size, forced, text, full, members, tuple(edges), cuts, twins, tuple(pairs)


def query_links(query: QueryTree) -> Tuple[Tuple[Edge, ...], Tuple[Tuple[int, int], ...]]:
    """The query's edges and same-label sibling pairs, as :func:`compile_query`
    puts them on a cover (for a cover built by hand, which has neither)."""
    *_, edges, _, _, pairs = _scan(query._nodes, 0)
    return edges, pairs


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
def compile_query(query: QueryTree, mss: int, strategy: str = "optimal", pad: bool = True) -> Cover:
    """Compile *query* to a cover of subtrees of at most *mss* nodes.

    *strategy* is ``"min-rc"`` (the smallest root-split cover: every subtree
    root's parent roots another subtree, and so does the parent of every
    ``//`` edge, since the executor can only anchor a join on a node whose
    code is stored) or ``"optimal"`` (fewest subtrees; subtrees may overlap
    on internal nodes).  With *pad*, subtrees are grown towards *mss* with
    whole child subtrees that other subtrees already cover.
    """
    if mss < 1:
        raise ValueError("mss must be at least 1")
    if strategy not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown decomposition strategy {strategy!r} (known: {known})")
    nodes = query._nodes
    kids, size, forced, text, full, members, edges, cuts, twins, pairs = _scan(nodes, mss)
    if size[0] <= mss and not cuts:
        # The whole query is one key.
        only = CoverSubtree(query.root, frozenset(members[0]), text[0].encode("utf-8"))
        return Cover(query, [only], edges, twin_pairs=pairs)
    capacity = mss - 1
    out: List[CoverSubtree] = []

    def whole(node: int) -> None:
        """The component below *node* as one cover subtree."""
        out.append(CoverSubtree(nodes[node], frozenset(members[node]), text[node].encode("utf-8")))

    def merge_twins(node: int, pieces: List[_Part]) -> List[_Part]:
        """Each group of twins below *node* as one piece, where all of the
        group are pieces here and together fit a bin."""
        for group in twins[node]:
            at = [i for i, piece in enumerate(pieces) if piece[3][0] in group]
            total = sum(pieces[i][0] for i in at)
            if len(at) == len(group) and total <= capacity:
                merged = tuple(sum((pieces[i][part] for i in at), ()) for part in (1, 2, 3))
                pieces[at[0]] = (total,) + merged
                for i in reversed(at[1:]):
                    del pieces[i]
        return pieces

    def assign(node: int, pieces: List[_Part]) -> List[list]:
        """First-fit-decreasing packing of *pieces* into bins of ``mss - 1``
        nodes; a bin is ``[fill, ids, texts]``."""
        if node in twins:
            pieces = merge_twins(node, pieces)
        if len(pieces) > 1:
            pieces.sort(key=_size_of, reverse=True)
        bins: List[list] = []
        for piece_size, ids, texts, _ in pieces:
            for held in bins:
                if held[0] + piece_size <= capacity:
                    held[0] += piece_size
                    held[1] += ids
                    held[2] += texts
                    break
            else:
                bins.append([piece_size, ids, texts])
        return bins

    def root_bins(node: int, bins: List[list]) -> None:
        """The bins packed at *node* as cover subtrees rooted there."""
        below = kids[node]
        for fill, ids, texts in bins:
            if pad and fill + 1 < mss and fill + 1 < size[node]:
                # Only whole child components other subtrees cover, and never
                # the twin of a child the bin already holds.
                held = set(ids)
                seen = {full[child] for child in below if child in held}
                for child in below:
                    if child in held or fill + 1 + size[child] > mss or full[child] in seen:
                        continue
                    fill += size[child]
                    ids += members[child]
                    texts += (text[child],)
                    held.update(members[child])
                    seen.add(full[child])
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
            if size[child] == mss:
                whole(child)
            elif size[child] > mss:
                deferred = cover_optimal(child, False)
                if deferred is not None:
                    pieces.append(deferred)
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
        fill, ids, texts = rest
        return fill + 1, (node,) + ids, (_compose(nodes[node].label, texts),), (node,)

    for root in [0] + [child for _, child in cuts]:
        if strategy == "min-rc":
            cover_min_rc(root)
        else:
            cover_optimal(root, True)
    split = [
        (parent, group)
        for parent, groups in sorted(twins.items())
        for group in groups
        if not any(subtree.node_ids.issuperset(group) for subtree in out)
    ]
    return Cover(query, out, edges, split, pairs)


def optimal_cover(query: QueryTree, mss: int, pad: bool = True) -> Cover:
    """Join-optimal cover of *query* (paper's ``optimalCover``)."""
    return compile_query(query, mss, "optimal", pad)


def min_rc(query: QueryTree, mss: int, pad: bool = True) -> Cover:
    """Smallest root-split cover of *query* (paper's ``minRC``)."""
    return compile_query(query, mss, "min-rc", pad)


#: Decompose a query with the named strategy: the compiler's older name.
decompose = compile_query
