"""Query executors for the three coding schemes.

Query matching over a subtree index has two phases (Section 4.3): the
*decomposition* phase picks a cover of the query and fetches the posting list
of each cover subtree, and the *join* phase combines those lists.  What the
join phase looks like depends on the coding scheme:

filter-based
    intersect the tid lists, then run the *filtering phase*: fetch every
    candidate tree from the data file and validate it with the exact matcher.

root-split
    decompose with ``minRC`` (root-split covers), join the root codes of the
    cover subtrees with equality / parent-child / ancestor-descendant
    predicates.  No post-validation is needed.

subtree-interval
    decompose with ``optimalCover``; joins may reference any node stored in a
    posting (all of them), again with no post-validation.

Both structural codings run the same kernel (:func:`repro.exec.joins.run_plan`)
over posting columns; only the slots a relation binds differ.

The pipeline is exposed as three separable stages -- :func:`decompose_query`,
:func:`fetch_postings` and :func:`join_postings` -- so a serving layer
(:mod:`repro.service`) can cache the output of one stage and batch another.
:class:`QueryExecutor` is the one-shot convenience wrapper that runs all
three for a single query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.coding.base import CodingScheme
from repro.coding.filter_based import FilterBasedCoding
from repro.coding.postings import PostingColumns
from repro.coding.root_split import RootSplitCoding
from repro.coding.subtree_interval import SubtreeIntervalCoding
from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet, TreeGone
from repro.corpus.store import Corpus, TreeStore
from repro.exec.joins import count_distinct_roots, intersect_sorted_tid_lists, run_plan
from repro.exec.plan import build_plan, cover_relations
from repro.query.covers import Cover
from repro.query.decompose import compile_query
from repro.query.model import QueryTree
from repro.trees.matching import count_matches


@dataclass
class ExecutionStats:
    """Counters describing how a query was evaluated."""

    coding: str = ""
    strategy: str = ""
    cover_size: int = 0
    join_count: int = 0
    postings_fetched: int = 0
    candidates_filtered: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class QueryResult:
    """The outcome of evaluating one query."""

    matches_per_tree: Dict[int, int] = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def total_matches(self) -> int:
        """Total number of matches across all trees."""
        return sum(self.matches_per_tree.values())

    @property
    def matched_tids(self) -> List[int]:
        """Sorted tree identifiers with at least one match."""
        return sorted(self.matches_per_tree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.matches_per_tree == other.matches_per_tree


# ----------------------------------------------------------------------
# Stage 1: decomposition
# ----------------------------------------------------------------------
def default_strategy(coding: CodingScheme) -> str:
    """The paper's cover strategy for *coding*: ``minRC`` for root-split."""
    return "min-rc" if isinstance(coding, RootSplitCoding) else "optimal"


def decompose_query(
    query: QueryTree,
    mss: int,
    strategy: str,
    pad: bool = True,
) -> Cover:
    """Stage 1: pick a cover of *query* (Section 5.2's decomposition phase)."""
    if not obs.enabled():
        return compile_query(query, mss, strategy, pad)
    with obs.trace("decompose", strategy=strategy, mss=mss) as span:
        cover = compile_query(query, mss, strategy, pad)
        span.set(cover_size=len(cover), join_count=cover.join_count)
        return cover


# ----------------------------------------------------------------------
# Stage 2: posting fetch
# ----------------------------------------------------------------------
#: A fetch function maps a canonical cover key to its decoded posting list.
PostingFetcher = Callable[[bytes], PostingColumns]


def fetch_postings(
    cover: Cover,
    fetch: PostingFetcher,
) -> List[PostingColumns]:
    """Stage 2: fetch the posting list of each cover subtree.

    *fetch* is any key -> postings function: a bare ``index.lookup``, a
    caching wrapper, or a batch-local memo built by
    :meth:`repro.service.QueryService.run_many`.
    """
    if not obs.enabled():
        return [fetch(subtree.key_bytes()) for subtree in cover.subtrees]
    with obs.trace("fetch_postings", keys=len(cover.subtrees)) as span:
        postings: List[PostingColumns] = []
        total = 0
        for subtree in cover.subtrees:
            key = subtree.key_bytes()
            with obs.trace("fetch_key", key=key.decode("utf-8", "replace")) as key_span:
                plist = fetch(key)
                key_span.set(postings=len(plist))
            total += len(plist)
            postings.append(plist)
        span.set(postings=total)
        return postings


# ----------------------------------------------------------------------
# Stage 3: joins (and the filter-based filtering phase)
# ----------------------------------------------------------------------
def join_postings(
    query: QueryTree,
    cover: Cover,
    postings: Sequence[PostingColumns],
    coding: CodingScheme,
    store: Optional[TreeStore | Corpus] = None,
    stats: Optional[ExecutionStats] = None,
    order: Optional[Sequence[int]] = None,
) -> QueryResult:
    """Stage 3: combine the cover's posting lists into the final matches.

    *postings* holds each cover subtree's list as ``lookup`` returns it, or
    ``[]`` for a key the index lacks.  Dispatches on the coding
    scheme: tid intersection plus the filtering phase for filter-based
    coding, structural merge joins otherwise, in *order* (a prepared
    query's) or else smallest list first.  When a *stats* object is
    passed it receives the join-phase counters (``candidates_filtered``).
    """
    stats = stats if stats is not None else ExecutionStats()
    if not obs.enabled():
        return _dispatch_join(query, cover, postings, coding, store, stats, order)
    with obs.trace("join", coding=coding.name, cover=len(cover.subtrees)) as span:
        result = _dispatch_join(query, cover, postings, coding, store, stats, order)
        span.set(matches=result.total_matches)
        return result


def _dispatch_join(
    query: QueryTree,
    cover: Cover,
    postings: Sequence[PostingColumns],
    coding: CodingScheme,
    store: Optional[TreeStore | Corpus],
    stats: ExecutionStats,
    order: Optional[Sequence[int]],
) -> QueryResult:
    if isinstance(coding, FilterBasedCoding):
        return _join_filter_based(query, cover, postings, store, stats)
    if isinstance(coding, (RootSplitCoding, SubtreeIntervalCoding)):
        if len(cover.subtrees) == 1:
            # The key encodes the whole query, so its postings are the
            # matches: nothing to plan or join (the very common case of
            # small queries at larger mss, and of single-label queries).
            only = PostingColumns.from_postings(postings[0])
            pairs = zip(only.tids, only.slots[0][0]) if only.tids else ()
            return QueryResult(matches_per_tree=count_distinct_roots(pairs))
        plan = build_plan(query, cover_relations(cover, postings), cover.edges, cover.twin_pairs, order)
        return QueryResult(matches_per_tree=run_plan(plan))
    raise TypeError(f"unsupported coding scheme {type(coding).__name__}")


def _join_filter_based(
    query: QueryTree,
    cover: Cover,
    postings: Sequence[PostingColumns],
    store: Optional[TreeStore | Corpus],
    stats: ExecutionStats,
) -> QueryResult:
    """Filter-based coding: intersect tid lists, then validate candidates."""
    if store is None:
        raise RuntimeError(
            "filter-based execution needs a data file (TreeStore) or Corpus "
            "to run its filtering phase; pass `store=` to QueryExecutor"
        )
    candidates = intersect_sorted_tid_lists(
        [PostingColumns.from_postings(plist).tids for plist in postings]
    )
    stats.candidates_filtered = len(candidates)

    matches: Dict[int, int] = {}
    with obs.trace("filter", candidates=len(candidates)) as span:
        for tid in candidates:
            try:
                tree = store.get(tid)
            except TreeGone:  # deleted since its postings were read (live index)
                continue
            count = count_matches(query.root, tree)
            if count:
                matches[tid] = count
        span.set(matched_trees=len(matches))
    return QueryResult(matches_per_tree=matches)


# ----------------------------------------------------------------------
# One-shot wrapper
# ----------------------------------------------------------------------
class QueryExecutor:
    """Evaluates tree queries against an index: a
    :class:`~repro.core.segments.SegmentSet` (plain, sharded or live) or one
    bare :class:`~repro.core.index.SubtreeIndex` file, which reads the same.

    Runs all three pipeline stages per call, without caching; use
    :class:`repro.service.QueryService` to serve repeated or concurrent
    queries.

    Parameters
    ----------
    index:
        The subtree index to query.
    store:
        The corpus data file (or an in-memory :class:`~repro.corpus.store.Corpus`).
        Required for the filter-based coding, whose filtering phase re-reads
        candidate trees; optional otherwise.  Defaults to a set's
        ``index.store``.
    pad:
        Whether decomposition pads cover subtrees towards ``mss`` (max-covers).
    """

    def __init__(
        self,
        index: SubtreeIndex | SegmentSet,
        store: Optional[TreeStore | Corpus] = None,
        pad: bool = True,
    ):
        self.index = index
        self.store = store if store is not None else getattr(index, "store", None)
        self.pad = pad
        #: The cover policy, a function of the coding (:func:`default_strategy`).
        self.strategy = default_strategy(index.coding)

    # ------------------------------------------------------------------
    def decompose(self, query: QueryTree) -> Cover:
        """Compute the cover this executor would use for *query*."""
        return decompose_query(query, self.index.mss, self.strategy, pad=self.pad)

    def execute(self, query: QueryTree) -> QueryResult:
        """Evaluate *query* and return its matches and execution statistics."""
        if not obs.enabled():
            return self._execute(query)
        with obs.trace("query", engine="executor", coding=self.index.coding.name) as span:
            result = self._execute(query)
            span.set(matches=result.total_matches)
            return result

    def _execute(self, query: QueryTree) -> QueryResult:
        started = time.perf_counter()
        cover = self.decompose(query)
        postings = fetch_postings(cover, self.index.lookup)

        stats = ExecutionStats(
            coding=self.index.coding.name,
            strategy=self.strategy,
            cover_size=len(cover),
            join_count=cover.join_count,
            postings_fetched=sum(len(plist) for plist in postings),
        )
        result = join_postings(
            query, cover, postings, self.index.coding, store=self.store, stats=stats
        )
        stats.elapsed_seconds = time.perf_counter() - started
        result.stats = stats
        return result
