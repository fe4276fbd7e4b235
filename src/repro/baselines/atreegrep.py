"""An ATreeGrep-style path index with candidate post-validation.

ATreeGrep (Shasha et al., SSDBM 2002) indexes the root-to-leaf paths of all
data trees in a suffix array and keeps a hash index over node and edge labels
as a pre-filter.  A query is decomposed into its root-to-leaf paths, each path
is matched against the suffix array (a query path has to be a *prefix of a
suffix* of some data path, i.e. a downward path segment) and the surviving
candidate trees are validated against the query.

This reproduction keeps the same three ingredients -- label/edge pre-filter,
sorted path-suffix lookup, exact post-validation -- which is what determines
its performance class relative to the subtree index in Table 2 of the paper.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.corpus.store import Corpus, TreeStore
from repro.exec.executor import ExecutionStats, QueryResult, filter_candidates
from repro.query.model import QueryTree
from repro.trees.matching import AXIS_CHILD
from repro.trees.node import Node, ParseTree


def _node_to_leaf_suffixes(tree: ParseTree) -> Iterable[Tuple[str, ...]]:
    """Yield every downward node-to-leaf label path of *tree*."""
    def walk(node: Node, prefix: List[str]) -> Iterable[Tuple[str, ...]]:
        prefix.append(node.label)
        if node.is_leaf:
            # Every suffix of the root-to-leaf path is a node-to-leaf path.
            for start in range(len(prefix)):
                yield tuple(prefix[start:])
        else:
            for child in node.children:
                yield from walk(child, prefix)
        prefix.pop()

    return walk(tree.root, [])


class ATreeGrepIndex:
    """Path-suffix index with node/edge pre-filtering and post-validation."""

    def __init__(
        self,
        suffixes: List[Tuple[Tuple[str, ...], int]],
        label_tids: Dict[str, Set[int]],
        edge_tids: Dict[Tuple[str, str], Set[int]],
        store: Corpus | TreeStore,
    ):
        self._suffixes = suffixes
        self._label_tids = label_tids
        self._edge_tids = edge_tids
        self._store = store

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, trees: Iterable[ParseTree], store: Corpus | TreeStore) -> "ATreeGrepIndex":
        """Build the path index over *trees*; *store* provides trees for validation."""
        suffixes: List[Tuple[Tuple[str, ...], int]] = []
        label_tids: Dict[str, Set[int]] = {}
        edge_tids: Dict[Tuple[str, str], Set[int]] = {}
        for tree in trees:
            seen_paths: Set[Tuple[str, ...]] = set(_node_to_leaf_suffixes(tree))
            for path in seen_paths:
                suffixes.append((path, tree.tid))
            for node in tree.preorder():
                label_tids.setdefault(node.label, set()).add(tree.tid)
                for child in node.children:
                    edge_tids.setdefault((node.label, child.label), set()).add(tree.tid)
        suffixes.sort()
        return cls(suffixes, label_tids, edge_tids, store)

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _tids_with_path_prefix(self, path: Sequence[str]) -> Set[int]:
        """Trees containing a downward path that starts with *path*."""
        prefix = tuple(path)
        out: Set[int] = set()
        index = bisect_left(self._suffixes, (prefix, -1))
        while index < len(self._suffixes):
            candidate, tid = self._suffixes[index]
            if candidate[: len(prefix)] != prefix:
                break
            out.add(tid)
            index += 1
        return out

    @staticmethod
    def _query_paths(query: QueryTree) -> List[List[str]]:
        """Rigid (all-``/``) root-to-leaf label paths of the query, leaves in pre-order."""
        label_of, parent_of, axis_of = query.label_of, query.parent_of, query.axis_of
        path_of: List[Optional[List[str]]] = [[label_of[0]]]  # None: not reached from the root by "/"
        for node in range(1, len(label_of)):
            above = path_of[parent_of[node]]
            path_of.append(above + [label_of[node]] if above is not None and axis_of[node] == AXIS_CHILD else None)
        inner = {parent_of[node] for node, path in enumerate(path_of) if node and path is not None}
        return [path for node, path in enumerate(path_of) if path is not None and node not in inner]

    def _prefilter(self, query: QueryTree) -> Set[int]:
        """Intersect the label and edge hash lists of the query (the hash pre-filter)."""
        label_of, parent_of = query.label_of, query.parent_of
        candidate_sets = [self._label_tids.get(label, set()) for label in label_of] + [
            self._edge_tids.get((label_of[parent_of[node]], label_of[node]), set())
            for node in range(1, len(label_of)) if query.axis_of[node] == AXIS_CHILD
        ]
        if not candidate_sets:
            return set()
        candidates = set(candidate_sets[0])
        for other in candidate_sets[1:]:
            candidates &= other
            if not candidates:
                break
        return candidates

    # ------------------------------------------------------------------
    def execute(self, query: QueryTree) -> QueryResult:
        """Evaluate *query*: pre-filter, path matching, then post-validation."""
        started = time.perf_counter()
        candidates = self._prefilter(query)
        paths = self._query_paths(query)
        if candidates:
            for path in paths:
                candidates &= self._tids_with_path_prefix(path)
                if not candidates:
                    break
        matches = filter_candidates(query, sorted(candidates), self._store)
        stats = ExecutionStats(
            coding="atreegrep",
            strategy="path-suffix",
            cover_size=len(paths),
            join_count=0,
            postings_fetched=0,
            candidates_filtered=len(candidates),
            elapsed_seconds=time.perf_counter() - started,
        )
        return QueryResult(matches_per_tree=matches, stats=stats)
