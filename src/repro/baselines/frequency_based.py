"""The frequency-based approach: a TreePi adaptation for parse trees.

TreePi (Zhang et al., ICDE 2007) indexes *frequent* subtrees and prunes the
candidate set with them, finding actual matches by post-validation.  The
paper adapts it to parse trees (Section 6.3.2): the index stores all single
nodes plus the top-x% most frequent subtrees of sizes ``2..mss``; queries are
decomposed preferring indexed subtrees, the tid lists of the chosen keys are
intersected, and the candidates are validated with the exact matcher.

The cut-off fraction ``x`` (0.1 %, 1 %, 10 % in Table 2) controls the
trade-off between index size and pruning power.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.enumeration import extract_subtrees, number
from repro.corpus.store import Corpus, TreeStore
from repro.exec.executor import ExecutionStats, QueryResult, filter_candidates
from repro.exec.joins import intersect_sorted_tid_lists
from repro.query.covers import Cover
from repro.query.decompose import optimal_cover
from repro.query.model import QueryTree
from repro.trees.node import ParseTree


class FrequencyBasedIndex:
    """Single nodes plus the most frequent subtrees, with post-validation."""

    def __init__(
        self,
        mss: int,
        frequency_cutoff: float,
        tid_lists: Dict[bytes, List[int]],
        store: Corpus | TreeStore,
    ):
        self.mss = mss
        self.frequency_cutoff = frequency_cutoff
        self._tid_lists = tid_lists
        self._store = store

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        trees: Iterable[ParseTree],
        store: Corpus | TreeStore,
        mss: int = 3,
        frequency_cutoff: float = 0.01,
    ) -> "FrequencyBasedIndex":
        """Build the index keeping single nodes and the top *frequency_cutoff* subtrees.

        ``frequency_cutoff`` is the fraction of larger (size >= 2) unique
        subtrees retained, ranked by their occurrence count.
        """
        occurrence_counts: Counter = Counter()
        tid_sets: Dict[bytes, Set[int]] = {}
        key_sizes: Dict[bytes, int] = {}
        for tree in trees:
            for found in extract_subtrees(number(tree), mss):
                for text, _, size in found:
                    key = text.encode("utf-8")
                    occurrence_counts[key] += 1
                    key_sizes[key] = size
                    tid_sets.setdefault(key, set()).add(tree.tid)

        single_keys = [key for key, size in key_sizes.items() if size == 1]
        larger_keys = [key for key, size in key_sizes.items() if size > 1]
        larger_keys.sort(key=lambda key: occurrence_counts[key], reverse=True)
        kept_larger = larger_keys[: max(0, int(len(larger_keys) * frequency_cutoff))]

        tid_lists = {
            key: sorted(tid_sets[key]) for key in (*single_keys, *kept_larger)
        }
        return cls(mss, frequency_cutoff, tid_lists, store)

    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        """Number of keys retained in the index."""
        return len(self._tid_lists)

    def tids(self, key: bytes) -> Optional[List[int]]:
        """Sorted tid list of *key*, or ``None`` when the key is not retained."""
        return self._tid_lists.get(key)

    # ------------------------------------------------------------------
    def _candidate_tids(self, query: QueryTree) -> List[int]:
        """Prune candidates with the indexed subtrees of a query cover.

        The query is decomposed like the subtree index would (preferring
        larger subtrees); cover subtrees missing from the frequency index
        fall back to their individual node labels.
        """
        cover: Cover = optimal_cover(query, self.mss, pad=False)
        lists: List[Sequence[int]] = []
        for subtree in cover.subtrees:
            tids = self.tids(subtree.key_bytes())
            if tids is not None:
                lists.append(tids)
                continue
            for node in subtree.query_nodes():
                node_tids = self.tids(node.label.encode("utf-8"))
                lists.append(node_tids if node_tids is not None else [])
        return intersect_sorted_tid_lists(lists)

    def execute(self, query: QueryTree) -> QueryResult:
        """Evaluate *query*: candidate pruning followed by post-validation."""
        started = time.perf_counter()
        candidates = self._candidate_tids(query)
        matches = filter_candidates(query, candidates, self._store)
        stats = ExecutionStats(
            coding=f"frequency-based({self.frequency_cutoff:g})",
            strategy="treepi",
            cover_size=0,
            join_count=0,
            postings_fetched=0,
            candidates_filtered=len(candidates),
            elapsed_seconds=time.perf_counter() - started,
        )
        return QueryResult(matches_per_tree=matches, stats=stats)
