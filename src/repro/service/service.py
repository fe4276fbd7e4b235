"""The query service: a serving layer over one open index -- a
:class:`~repro.core.segments.SegmentSet`, of one plain index file, of a
sharded build's shards or of a live (mutable) index's segments.

:class:`~repro.exec.executor.QueryExecutor` re-runs the whole pipeline --
parse, decompose, fetch, join -- on every call.  That is the right shape for
a one-off experiment and the wrong shape for a server, where the same
handful of query templates arrives millions of times.  The service keeps
three caches in front of the pipeline:

prepared-query cache
    parse + decomposition are pure functions of the query text and the index
    parameters, so their output (a :class:`PreparedQuery`: the parsed tree,
    its cover, the cover's key bytes and the join order its first join chose,
    kept however writes move the lists) is cached under the *normalized* query string.
    ``NP( DT ) ( NN )``, ``NP(DT)(NN)`` and the path form share one entry.

posting cache
    *decoded* posting lists, one per cover key and part of the index
    (:class:`~repro.core.segments.Part`), in front of
    :meth:`~repro.core.segments.SegmentSet.part_lookup`, so repeated cover
    keys skip the tree descents, posting decoding and the merge across
    sources.

result cache
    :class:`~repro.exec.executor.QueryResult` objects, one per normalized
    query string and part of the index, so an identical repeated query is
    answered without any join work at all.  The parts a run misses are
    joined once, and that answer is cut back into their results; the answer
    is the parts' results end to end.

The posting and result caches read one way (:func:`_cached`): an entry is
tagged with its part's tag when the run started -- a constant on an
immutable index; on a live one the trees a segment was written from, or
those added to the delta -- and served only while that tag stands, so what
a run computed while an add raced it is never served after it.  A delete
moves no tag: the trees removed from a part since its entry was cached are
cut from it when it is next served, and it is cached back cut.  Size 0
disables a layer.

A query is a batch of one: :meth:`QueryService.run` and
:meth:`QueryService.run_many` are one loop, which prepares every query
first, looks each part of each up in the result cache, fetches each
*distinct* cover key a part missed exactly once a call, and joins each
distinct query once against that fetch memo.  All structures are
thread-safe -- each cache is one locked LRU map and the B+Tree serialises
its descents -- so one service instance can sit behind a thread pool.
The caches are the service's own: two services over one index share none
of them.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar, Union

from repro import obs
from repro.coding.postings import PostingColumns, merge_columns
from repro.core.segments import Part, SegmentSet
from repro.exec.executor import (
    ExecutionStats,
    QueryResult,
    decompose_query,
    default_strategy,
    fetch_postings,
    join_postings,
)
from repro.exec.plan import choose_order
from repro.query.covers import Cover
from repro.query.model import QueryTree
from repro.query.parser import parse_query
from repro.service.cache import CacheStats, LRUCache
from repro.storage.bptree import ProbeStats

#: Entry bound of the prepared-query cache.
PLAN_CACHE_SIZE = 256

#: What a cache holds of a part: a posting list or a query's result.
Value = TypeVar("Value")


@dataclass(frozen=True)
class PreparedQuery:
    """The cacheable output of the parse + decomposition stages, made without
    reading the index, and the join order its first join chose (``None`` before).

    Shared between threads.  ``order`` is set by the first join, from the lengths
    of the lists it read (:func:`~repro.exec.plan.choose_order`), and kept: a
    stale order costs speed, never an answer, so either of two racing first
    joins may set it.
    """

    normalized: str
    query: QueryTree
    cover: Cover
    key_bytes: Tuple[bytes, ...]
    order: Optional[Tuple[int, ...]] = field(default=None, compare=False)


#: Anything `run` / `run_many` accept as a query (a prepared one as it is).
QueryLike = Union[str, QueryTree, PreparedQuery]


@dataclass
class ServiceStats:
    """One snapshot of every counter the service keeps.

    ``plans`` covers the prepared-query cache, ``postings`` the posting
    cache, ``results`` the whole-result cache, and ``probes`` the lookups of
    posting lists: ``gets`` each one, ``cache_hits`` those the posting cache
    served, ``tree_descents`` the actual B+Tree descents of the others -- the
    disk I/O proxy -- and ``node_decodes`` the pages those descents had to
    parse: none once the tree is warm.
    """

    queries: int = 0
    batches: int = 0
    batch_keys_deduped: int = 0
    plans: CacheStats = field(default_factory=CacheStats)
    postings: CacheStats = field(default_factory=CacheStats)
    results: CacheStats = field(default_factory=CacheStats)
    probes: ProbeStats = field(default_factory=ProbeStats)

    #: What the index adds under keys of its own (``sources`` / ``live``).
    extras: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The dict shape of these counters, the same over every index.

        The ``/stats`` endpoint and the metrics exporter rely on the core
        keys being identical whatever the service serves, so they never
        branch per flavor; :attr:`extras` ride along under *additional* keys.
        """
        payload: Dict[str, object] = {
            "queries": self.queries,
            "batches": self.batches,
            "batch_keys_deduped": self.batch_keys_deduped,
            "caches": {
                name: {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "lookups": cache.lookups,
                    "evictions": cache.evictions,
                    "size": cache.size,
                    "capacity": cache.capacity,
                    "hit_rate": cache.hit_rate,
                }
                for name, cache in (
                    ("plans", self.plans),
                    ("postings", self.postings),
                    ("results", self.results),
                )
            },
            "probes": {
                "gets": self.probes.gets,
                "cache_hits": self.probes.cache_hits,
                "tree_descents": self.probes.tree_descents,
                "node_decodes": self.probes.node_decodes,
                "hit_rate": self.probes.hit_rate,
            },
        }
        payload.update(self.extras)
        return payload


def _counters(cache: Optional[LRUCache]) -> CacheStats:
    """The counters of *cache*; zeros for a disabled layer.  (Not ``if cache``:
    a cache a mutation just emptied is falsy and still has its counters.)"""
    return cache.stats() if cache is not None else CacheStats()


def _concatenated(results: Sequence[QueryResult]) -> QueryResult:
    """The parts' results of one query as its answer, in part order (a later
    part's tids all exceed an earlier part's), its stats those of the runs
    that computed them, each counted once.  The one result with a match, if
    only one has any, is that answer as it is."""
    populated = [result for result in results if result.matches_per_tree]
    if len(populated) < 2:
        return populated[0] if populated else results[0]
    matches: Dict[int, int] = {}
    for result in populated:
        matches.update(result.matches_per_tree)
    runs = {id(result.stats): result.stats for result in results}.values()  # a join's pieces share one
    first = populated[0].stats
    stats = ExecutionStats(
        first.coding, first.strategy, first.cover_size, first.join_count,
        sum(run.postings_fetched for run in runs),
        sum(run.candidates_filtered for run in runs),
        sum(run.elapsed_seconds for run in runs),
    )
    return QueryResult(matches_per_tree=matches, stats=stats)


def _without(result: QueryResult, removed: AbstractSet[int]) -> QueryResult:
    """*result* less the matches in the trees *removed*; itself without any."""
    matches = result.matches_per_tree
    if removed.isdisjoint(matches):
        return result
    return QueryResult({tid: count for tid, count in matches.items() if tid not in removed}, result.stats)


def _cached(
    cache: Optional[LRUCache], item: object, part: Part, cut: Callable[[Value, FrozenSet[int]], Value]
) -> Optional[Value]:
    """What *cache* holds of *item* -- a cover key or a normalized query -- over
    *part*, if it was computed under the part's current tag (a stale one
    counts as a miss), less the trees removed from the part since: *cut* by
    them once, and cached back."""
    if cache is None:
        return None
    entry = cache.get_tagged((item, part.key), part.tag)
    if entry is None:
        return None
    count, value = entry
    if count < part.cut:
        value = cut(value, part.removed_since(count))
        _remember(cache, item, part, value)
    return value


def _remember(cache: Optional[LRUCache], item: object, part: Part, value: object) -> None:
    """Cache *value* of *item* over *part*, tagged with the part's tag and
    removal count as the run's snapshot read them.

    Both are read *before* the value is computed, so one that raced an add
    carries a stale tag and is simply never served -- the read-side check
    makes the write-side race harmless -- and one that raced a delete is cut
    by it again when served, which changes nothing.
    """
    if cache is not None:
        cache.put((item, part.key), (part.tag, (part.cut, value)))


def _split(joined: QueryResult, parts: Sequence[Part]) -> List[QueryResult]:
    """*joined*, one join over *parts*' lists end to end, cut back into each
    part's result at the parts' tid bounds; the pieces share its stats."""
    if len(parts) == 1:
        return [joined]
    bounds = [part.sources[0].entry.max_tid for part in parts[:-1]]  # all segments: the delta is last
    pieces: List[Dict[int, int]] = [{} for _ in parts]
    for tid, count in joined.matches_per_tree.items():
        pieces[bisect_left(bounds, tid)][tid] = count
    return [QueryResult(piece, joined.stats) for piece in pieces]


class QueryService:
    """Serves repeated and concurrent queries over one open index.

    Preparing a query reads nothing from the index; its first join chooses
    the join order every later one keeps (:class:`PreparedQuery`).

    Parameters
    ----------
    index:
        An open :class:`~repro.core.segments.SegmentSet`: a plain index file
        (``SegmentSet.open``, or ``SegmentSet.of`` over an index already
        open), a sharded build's frozen set, or a
        :class:`~repro.live.live.LiveIndex`.  The filter-based coding's
        filtering phase reads candidate trees from ``index.store``; a
        ``TreeStore`` is safe under concurrency (it serialises record reads
        on its shared handle), and a plain set over an in-memory
        :class:`~repro.corpus.store.Corpus` avoids that lock entirely for
        heavily threaded filter-based serving.  Queries are decomposed with
        the coding's own cover policy (``default_strategy``), padded.
    postings_cache_size / result_cache_size:
        Entry bounds of the posting and result caches; size 0 disables that
        layer entirely.  (The prepared-query cache holds
        :data:`PLAN_CACHE_SIZE` entries.)  Cached lists and results are
        shared objects and must be treated as read-only by callers.
    """

    def __init__(self, index: SegmentSet, postings_cache_size: int = 4096, result_cache_size: int = 1024):
        self.index = index
        self.store = index.store
        self.strategy = default_strategy(index.coding)
        self._plan_cache = LRUCache(PLAN_CACHE_SIZE)
        self._postings_cache = LRUCache(postings_cache_size) if postings_cache_size else None
        self._result_cache = LRUCache(result_cache_size) if result_cache_size else None
        self._owns_index = False
        # Telemetry counters, deliberately lock-free like ProbeStats: exact
        # single-threaded, may undercount slightly under concurrency.  A
        # lock here would put every fully-cached run() behind one global
        # mutex for nothing but accounting.
        self._queries = 0
        self._batches = 0
        self._batch_keys_deduped = 0

    # ------------------------------------------------------------------
    # Construction from files
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, index_path: str, **kwargs: object) -> "QueryService":
        """Serve what :meth:`SegmentSet.open <repro.core.segments.SegmentSet.open>`
        opens at *index_path*: an index file (with its data file, if there is
        one), a sharded-index manifest or a live-index manifest.

        The service owns the index it opens: :meth:`close` closes it.
        """
        service = cls(SegmentSet.open(index_path), **kwargs)  # type: ignore[arg-type]
        service._owns_index = True
        return service

    def close(self) -> None:
        """Clear the caches and close the index if :meth:`open` opened it."""
        self.clear_caches()
        if self._owns_index:
            self._owns_index = False
            self.index.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stage 1: prepared queries
    # ------------------------------------------------------------------
    def prepare(self, query: QueryLike) -> PreparedQuery:
        """Parse and decompose *query*, reusing the cached plan when possible.

        Query strings are normalized by parsing and re-serialising, so
        whitespace variants and the linear path form share a cache entry.  A
        raw-text alias entry is kept as well, making the exact-repeat case a
        single cache probe with no parsing at all.  A canonical text's miss
        is one lookup, and a :class:`PreparedQuery` is returned as it is.
        """
        if not isinstance(query, str):
            if isinstance(query, PreparedQuery):
                return query
            return self._prepare_parsed(query.to_string(), query)

        text_key = query.strip()
        cached = self._plan_cache.get(text_key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        parsed = parse_query(query)
        normalized = parsed.to_string()
        prepared = self._prepare_parsed(normalized, parsed, probed=text_key == normalized)
        if text_key != normalized:
            self._plan_cache.put(text_key, prepared)
        return prepared

    def _prepare_parsed(self, normalized: str, parsed: QueryTree, probed: bool = False) -> PreparedQuery:
        """*parsed*'s plan, cached under *normalized* -- looked up there
        unless the caller just *probed* that very key."""
        cached = None if probed else self._plan_cache.get(normalized)
        if cached is not None:
            return cached  # type: ignore[return-value]
        cover = decompose_query(parsed, self.index.mss, self.strategy)
        keys = tuple(subtree.key_bytes() for subtree in cover.subtrees)
        prepared = PreparedQuery(normalized, parsed, cover, keys)
        self._plan_cache.put(normalized, prepared)
        return prepared

    # ------------------------------------------------------------------
    # Stages 2+3: execution
    # ------------------------------------------------------------------
    def _execute_prepared(
        self,
        prepared: PreparedQuery,
        postings: Sequence[PostingColumns],
        started: float,
    ) -> QueryResult:
        stats = ExecutionStats.of(self.index.coding, self.strategy, prepared.cover, postings)
        if prepared.order is None:  # the first join: a relation binds what the coding stores of a key
            cover, roots_only = prepared.cover, self.index.coding.roots_only
            nodes = [subtree.binding(1 if roots_only else subtree.size) for subtree in cover.subtrees]
            order = choose_order([len(columns) for columns in postings], nodes, cover.edges)
            object.__setattr__(prepared, "order", order)
        result = join_postings(
            prepared.query, prepared.cover, postings, self.index.coding, store=self.store, stats=stats,
            order=prepared.order,
        )
        stats.elapsed_seconds = time.perf_counter() - started
        return result

    def _postings(self, part: Part, key: bytes) -> PostingColumns:
        """*part*'s list of *key*: the posting cache's (:func:`_cached`), else
        the index's (:meth:`~repro.core.segments.SegmentSet.part_lookup`),
        which is cached."""
        columns = _cached(self._postings_cache, key, part, PostingColumns.without_tids)
        if columns is None:
            columns = self.index.part_lookup(part, key)
            _remember(self._postings_cache, key, part, columns)
        return columns

    def result_resident(self, prepared: PreparedQuery) -> bool:
        """Would :meth:`run` answer *prepared*'s query from the result cache
        now, every part of it?

        A probe without side effects, for callers that must decide *where*
        to call ``run`` (the HTTP server answers resident results on its
        event loop and sends everything else to its pool).  The answer can
        go stale before ``run`` is called -- an eviction, or a mutation of a
        live index -- in which case that one ``run`` executes in full on the
        calling thread; it is never wrong, only slower.
        """
        cache = self._result_cache
        if cache is None:
            return False
        for part in self.index.snapshot.parts:
            tagged = cache.peek((prepared.normalized, part.key))
            if tagged is None or tagged[0] != part.tag:  # type: ignore[index]
                return False
        return True

    def run(self, query: QueryLike) -> QueryResult:
        """Evaluate one query through the cached pipeline: a batch of one
        (:meth:`run_many`), which counts as no batch.

        A part whose result of an identical (up to normalization) earlier
        query is still current is answered from the result cache; the
        others are fetched and joined in one join.  A result served whole
        from the cache is the object computed before, stats and all.

        With tracing enabled (:func:`repro.obs.enable`) the whole run is
        wrapped in a ``query`` span whose children are the pipeline stages.
        """
        if not obs.enabled():
            return self._serve((query,))[0][0]
        if isinstance(query, PreparedQuery):
            text = query.normalized
        else:
            text = query.strip() if isinstance(query, str) else query.to_string()
        with obs.trace(
            "query", flavor=self.index.flavor, query=text, query_sha1=obs.query_hash(text)
        ) as span:
            result = self._serve((query,))[0][0]
            span.set(matches=result.total_matches)
            return result

    def run_many(self, queries: Sequence[QueryLike]) -> List[QueryResult]:
        """Evaluate a batch, fetching each distinct cover key exactly once a part.

        The batch is prepared first and looked up in the result cache; each
        query then fetches, into a memo the call shares, the lists of the
        parts it missed that no earlier query in the batch needed (one fetch
        through the posting cache -- hence at most one B+Tree descent per
        source -- per distinct key and part), and joins them once; identical
        queries share one join.  Results keep the input order; a result's
        ``stats.elapsed_seconds`` covers its join and the fetches it was
        the first to need (time the ``run_many`` call itself for batch
        totals).  With tracing enabled the call is one ``batch`` span.
        """
        if not obs.enabled():
            results, deduped = self._serve(queries)
        else:
            with obs.trace("batch", flavor=self.index.flavor, queries=len(queries)) as span:
                results, deduped = self._serve(queries)
                span.set(matches=sum(result.total_matches for result in results))
        self._batches += 1
        self._batch_keys_deduped += deduped
        return results

    def _serve(self, queries: Sequence[QueryLike]) -> Tuple[List[QueryResult], int]:
        """The one cached pipeline behind :meth:`run` and :meth:`run_many`:
        *queries*' results, and how many of the lists their missed parts
        needed the call's fetch memo already held."""
        snapshot = self.index.snapshot
        parts = snapshot.parts
        prepared_batch = []
        for query in queries:
            with obs.trace("prepare") as span:
                prepared = self.prepare(query)
                span.set(cover=len(prepared.cover))
            prepared_batch.append(prepared)
        cached = [
            [_cached(self._result_cache, prepared.normalized, part, _without) for part in parts]
            for prepared in prepared_batch
        ]
        if obs.enabled():
            hits = sum(hit is not None for row in cached for hit in row)
            misses = len(parts) * len(cached) - hits
            obs.annotate(
                result_cache="miss" if misses else "hit", result_cache_hits=hits, parts_joined=misses,
                epoch=snapshot.version[0],
            )

        memo: Dict[Tuple[bytes, object], PostingColumns] = {}
        computed: Dict[str, QueryResult] = {}  # a join runs once per distinct query
        results: List[QueryResult] = []
        needed = 0
        for prepared, row in zip(prepared_batch, cached):
            missed = [part for part, hit in zip(parts, row) if hit is None]
            needed += len(prepared.key_bytes) * len(missed)
            answer = computed.get(prepared.normalized)
            if answer is None:
                joined = None
                if missed:
                    started = time.perf_counter()
                    if not obs.enabled():
                        postings = [self._memoized(memo, missed, key) for key in prepared.key_bytes]
                    else:
                        postings = fetch_postings(prepared.cover, partial(self._memoized, memo, missed))
                    joined = self._execute_prepared(prepared, postings, started)
                answer = computed[prepared.normalized] = self._answer(prepared, parts, row, joined)
            results.append(answer)
        self._queries += len(prepared_batch)
        return results, needed - len(memo)

    def _memoized(self, memo: Dict[Tuple[bytes, object], PostingColumns], parts: Sequence[Part],
                  key: bytes) -> PostingColumns:
        """*key*'s list over *parts* end to end, each part's read once a call
        (:meth:`_postings`) into *memo*."""
        lists = []
        for part in parts:
            columns = memo.get((key, part.key))
            if columns is None:
                columns = memo[key, part.key] = self._postings(part, key)
            lists.append(columns)
        return lists[0] if len(lists) == 1 else merge_columns(lists)

    def _answer(self, prepared: PreparedQuery, parts: Sequence[Part],
                cached: List[Optional[QueryResult]], joined: Optional[QueryResult]) -> QueryResult:
        """*prepared*'s answer over *parts*, from each one's *cached* result
        (``None`` where it missed) and *joined*, the one join over the parts
        that missed, whose piece of it each of them caches under its tag."""
        if joined is None:  # every part was cached
            return cached[0] if len(cached) == 1 else _concatenated(cached)
        if self._result_cache is None:  # nothing is cached, so every part missed
            return joined
        missed = [part for part, hit in zip(parts, cached) if hit is None]
        pieces = iter(_split(joined, missed))
        results = []
        for part, hit in zip(parts, cached):
            if hit is None:
                hit = next(pieces)
                _remember(self._result_cache, prepared.normalized, part, hit)
            results.append(hit)
        return results[0] if len(results) == 1 else _concatenated(results)

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Snapshot every counter: service, all three caches, list lookups
        (the posting cache's hits, and the index's part lookups with their
        descents and node decodes summed over a sharded or live index's
        sources), plus what the index reports about itself."""
        postings = _counters(self._postings_cache)
        probes = self.index.probe_snapshot()
        probes.gets += postings.hits
        probes.cache_hits = postings.hits
        return ServiceStats(
            queries=self._queries,
            batches=self._batches,
            batch_keys_deduped=self._batch_keys_deduped,
            plans=_counters(self._plan_cache),
            postings=postings,
            results=_counters(self._result_cache),
            probes=probes,
            extras=self.index.stats_extras(),
        )

    def clear_caches(self) -> None:
        """Drop all cached plans, postings and results (counters are kept)."""
        for cache in (self._plan_cache, self._postings_cache, self._result_cache):
            if cache is not None:
                cache.clear()
