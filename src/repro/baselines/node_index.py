"""The node approach: an LPath-style interval index over single node labels.

LPath (Bird et al.) stores the structural information of individual nodes in
a relational store and evaluates queries with structural joins.  This module
reproduces that design on top of the same disk B+Tree used by the subtree
index: one posting list per node *label*, each posting carrying the node's
``(tid, pre, post, level)`` record, and structural joins between the lists
of adjacent query nodes -- the executor's own join kernel, fed one
single-slot relation per query node.

It is also, by construction, what the subtree index degenerates to at
``mss = 1`` -- the comparison the paper draws in Section 6.3.1.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List

from repro.coding.postings import PostingColumns
from repro.coding.root_split import RootSplitCoding
from repro.exec.executor import ExecutionStats, QueryResult
from repro.exec.joins import run_plan
from repro.exec.plan import Relation, build_plan
from repro.query.model import QueryTree
from repro.storage.bptree import BPlusTree
from repro.trees.node import ParseTree
from repro.trees.numbering import number_tree


class NodeIntervalIndex:
    """Disk-based inverted index over node labels with interval codes."""

    def __init__(self, tree: BPlusTree):
        self._tree = tree
        self._coding = RootSplitCoding()

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, trees: Iterable[ParseTree], path: str) -> "NodeIntervalIndex":
        """Build the label index over *trees* at *path*."""
        bodies: Dict[str, List[int]] = {}  # flat (tid, pre, post, level) rows
        for tree in trees:
            codes = number_tree(tree)
            for node in tree.preorder():
                code = codes[id(node)]
                bodies.setdefault(node.label, []).extend((tree.tid, code.pre, code.post, code.level))
        coding = RootSplitCoding()
        items = [
            (label.encode("utf-8"), coding.encode_body(body)) for label, body in sorted(bodies.items())
        ]
        btree = BPlusTree(path)
        btree.bulk_load(items)
        return cls(btree)

    @classmethod
    def open(cls, path: str) -> "NodeIntervalIndex":
        """Open an existing label index."""
        return cls(BPlusTree(path))

    def close(self) -> None:
        """Close the underlying B+Tree."""
        self._tree.close()

    def size_bytes(self) -> int:
        """Size of the index file in bytes."""
        return self._tree.size_bytes()

    # ------------------------------------------------------------------
    def postings(self, label: str) -> PostingColumns:
        """Posting list of a node label (empty when the label never occurs)."""
        raw = self._tree.get(label.encode("utf-8"))
        if raw is None:
            return PostingColumns([])
        return self._coding.decode_postings(raw)

    def label_frequency(self, label: str) -> int:
        """Number of nodes carrying *label* across the corpus."""
        return len(self.postings(label))

    # ------------------------------------------------------------------
    def execute(self, query: QueryTree) -> QueryResult:
        """Evaluate *query* with one structural join per query edge."""
        started = time.perf_counter()
        relations = [
            Relation(self.postings(node.label), {node.node_id: 0}) for node in query.nodes()
        ]
        matches = run_plan(build_plan(query, relations))
        stats = ExecutionStats(
            coding="node-interval",
            strategy="mpmgjn",
            cover_size=query.size(),
            join_count=max(0, query.size() - 1),
            postings_fetched=sum(relation.cardinality for relation in relations),
            elapsed_seconds=time.perf_counter() - started,
        )
        return QueryResult(matches_per_tree=matches, stats=stats)
