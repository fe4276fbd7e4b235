"""Selectivity-aware cover selection (the paper's "future directions").

Section 7 of the paper proposes, as future work, "building data structures
that store statistics about subtrees such as their selectivities" and using
them for query optimisation over the subtree index.  This module implements
that extension:

* :class:`SelectivityCatalog` -- a cache of posting-list lengths per index
  key, filled lazily from the index (a lookup per key, memoised);
* :func:`estimate_cover_cost` -- a simple cost model for a cover: the sum of
  the posting-list lengths of its subtrees, which is what the merge joins
  actually scan;
* :func:`choose_cover` -- enumerate a small family of candidate covers
  (padded / unpadded, and both decomposition strategies where the coding
  allows it) and pick the cheapest under the cost model.

The :class:`OptimizingExecutor` wraps a :class:`~repro.exec.executor.QueryExecutor`
and overrides only the decomposition step, so all join machinery and
correctness guarantees are inherited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.root_split import RootSplitCoding
from repro.core.index import SubtreeIndex
from repro.exec.executor import QueryExecutor, QueryResult
from repro.query.covers import Cover
from repro.query.decompose import min_rc, optimal_cover
from repro.query.model import QueryTree


@dataclass
class SelectivityCatalog:
    """Posting-list lengths per index key, fetched lazily and memoised.

    The catalog answers "how many postings does this key have?" without
    decoding the posting payloads (the index reads the stored count), and
    repeated queries share the memo.
    """

    index: SubtreeIndex
    _lengths: Dict[bytes, int] = field(default_factory=dict)

    def posting_list_length(self, key: bytes) -> int:
        """Length of the posting list stored under *key* (0 when absent)."""
        if key not in self._lengths:
            self._lengths[key] = self.index.posting_list_length(key)
        return self._lengths[key]

    def preload(self, keys: Sequence[bytes]) -> None:
        """Warm the cache for a batch of keys."""
        for key in keys:
            self.posting_list_length(key)

    def cached_keys(self) -> List[bytes]:
        """Keys whose lengths are already cached."""
        return list(self._lengths)


def estimate_cover_cost(catalog: SelectivityCatalog, cover: Cover) -> int:
    """Estimated evaluation cost of a cover: total postings its joins must scan.

    A cover containing a key that is absent from the index has cost 0 for that
    key -- and the query provably has no matches, so such covers are in fact
    the cheapest possible plans and are preferred automatically.
    """
    return sum(
        catalog.posting_list_length(subtree.key_bytes()) for subtree in cover.subtrees
    )


def candidate_covers(query: QueryTree, mss: int, root_split_only: bool) -> List[Tuple[str, Cover]]:
    """The family of candidate covers considered by the optimiser.

    Root-split coding may only use root-split covers (``minRC``); the other
    codings can also use ``optimalCover``.  For both strategies the padded
    (max-cover) and unpadded variants are generated, since padding trades
    longer keys (fewer postings each) for potentially redundant subtrees.
    """
    candidates: List[Tuple[str, Cover]] = [
        ("min-rc", min_rc(query, mss, pad=True)),
        ("min-rc/no-pad", min_rc(query, mss, pad=False)),
    ]
    if not root_split_only:
        candidates.extend(
            [
                ("optimal", optimal_cover(query, mss, pad=True)),
                ("optimal/no-pad", optimal_cover(query, mss, pad=False)),
            ]
        )
    return candidates


def choose_cover(
    catalog: SelectivityCatalog, query: QueryTree, mss: int, root_split_only: bool
) -> Tuple[str, Cover, int]:
    """Pick the cheapest candidate cover under the selectivity cost model.

    Returns ``(strategy_name, cover, estimated_cost)``.  Ties are broken in
    favour of the cover with fewer subtrees (fewer joins).
    """
    ranked: List[Tuple[int, int, str, Cover]] = []
    for name, cover in candidate_covers(query, mss, root_split_only):
        cost = estimate_cover_cost(catalog, cover)
        ranked.append((cost, len(cover), name, cover))
    ranked.sort(key=lambda item: (item[0], item[1]))
    cost, _, name, cover = ranked[0]
    return name, cover, cost


class OptimizingExecutor(QueryExecutor):
    """A query executor that picks its cover using posting-list statistics.

    Drop-in replacement for :class:`~repro.exec.executor.QueryExecutor`; only
    the decomposition step changes, so results are identical and only the
    plan (and therefore the runtime) may differ.
    """

    def __init__(self, index: SubtreeIndex, store=None, pad: bool = True):
        super().__init__(index, store=store, pad=pad)
        self.catalog = SelectivityCatalog(index)
        self._root_split_only = isinstance(index.coding, RootSplitCoding)
        #: Strategy chosen for the most recent query (for inspection/reporting).
        self.last_strategy: Optional[str] = None
        self.last_estimated_cost: Optional[int] = None

    def decompose(self, query: QueryTree) -> Cover:
        """Choose the cheapest candidate cover for *query*."""
        name, cover, cost = choose_cover(
            self.catalog, query, self.index.mss, self._root_split_only
        )
        self.last_strategy = name
        self.last_estimated_cost = cost
        return cover

    def execute(self, query: QueryTree) -> QueryResult:
        """Evaluate *query*; identical results to the base executor."""
        return super().execute(query)
