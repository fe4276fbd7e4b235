"""Exact query-tree matching over data trees (Definition 3 of the paper).

This module implements the reference matching semantics used in three places:

* the *filtering phase* of the filter-based coding (post-validation of
  candidate trees),
* the ATreeGrep-style and frequency-based baselines' post-validation, and
* the test suite, where every index executor is checked against this
  implementation on the same corpus and queries.

Queries are *unordered* trees whose edges carry a navigational axis:
``/`` (parent-child) or ``//`` (ancestor-descendant).  To avoid a circular
dependency on :mod:`repro.query`, this module accepts any object following
the minimal protocol below; :class:`repro.query.model.QueryNode` satisfies it.

Protocol
--------
A *query node* must expose:

``label``
    the node label to match (a string),
``children``
    a sequence of query nodes, and
``child_axes``
    a parallel sequence of axis strings, ``"/"`` or ``"//"``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Protocol, Sequence, Tuple, runtime_checkable

from repro.trees.node import Node, ParseTree

AXIS_CHILD = "/"
AXIS_DESCENDANT = "//"


@runtime_checkable
class QueryLike(Protocol):
    """Structural protocol for query-tree nodes (see module docstring)."""

    label: str
    children: Sequence["QueryLike"]
    child_axes: Sequence[str]


def _candidate_nodes(anchor: Node, axis: str) -> Iterator[Node]:
    """Yield the data nodes reachable from *anchor* along *axis*."""
    if axis == AXIS_CHILD:
        yield from anchor.children
    elif axis == AXIS_DESCENDANT:
        yield from anchor.descendants()
    else:  # pragma: no cover - defensive, parser restricts axes
        raise ValueError(f"unknown axis {axis!r}")


def _match_at(query: QueryLike, data: Node) -> bool:
    """``True`` when *query* matches the data tree with its root mapped to *data*.

    Children of the query are unordered (Definition 2): each query child must
    map to a *distinct* data node satisfying its axis, so the search performs
    a small backtracking assignment over candidate sets.
    """
    if query.label != data.label:
        return False
    if not query.children:
        return True

    # Collect candidate lists per query child, cheapest (fewest candidates) first.
    candidate_lists: List[Tuple[QueryLike, List[Node]]] = []
    for child, axis in zip(query.children, query.child_axes):
        candidates = [node for node in _candidate_nodes(data, axis) if _match_at(child, node)]
        if not candidates:
            return False
        candidate_lists.append((child, candidates))
    candidate_lists.sort(key=lambda pair: len(pair[1]))

    used: set[int] = set()

    def assign(position: int) -> bool:
        if position == len(candidate_lists):
            return True
        _, candidates = candidate_lists[position]
        for node in candidates:
            if id(node) in used:
                continue
            used.add(id(node))
            if assign(position + 1):
                return True
            used.remove(id(node))
        return False

    return assign(0)


def find_matches(query: QueryLike, tree: ParseTree | Node) -> List[Node]:
    """Return the data nodes of *tree* at which *query* matches.

    A "match" is identified by the data node onto which the query root maps,
    which is the result granularity used throughout the paper (number of
    matches per query).
    """
    root = tree.root if isinstance(tree, ParseTree) else tree
    return [node for node in root.preorder() if _match_at(query, node)]


def count_matches(query: QueryLike, tree: ParseTree | Node) -> int:
    """Return the number of nodes of *tree* at which *query* matches."""
    return len(find_matches(query, tree))


def tree_matches_query(query: QueryLike, tree: ParseTree | Node) -> bool:
    """``True`` when *query* matches *tree* at least once."""
    root = tree.root if isinstance(tree, ParseTree) else tree
    return any(_match_at(query, node) for node in root.preorder())


# Nothing in the package calls this: it is the brute-force oracle the tests
# hold every executor, flavor and coding to.
def match_corpus(query: QueryLike, trees: Sequence[ParseTree]) -> Dict[int, int]:
    """Match *query* against every tree of a corpus.

    Returns a mapping ``tid -> number of matches`` containing only trees with
    at least one match.  This is the output format the executors are tested
    against.
    """
    results: Dict[int, int] = {}
    for tree in trees:
        count = count_matches(query, tree)
        if count:
            results[tree.tid] = count
    return results
