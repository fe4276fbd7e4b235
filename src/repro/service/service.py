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
    its cover and the cover's canonical key bytes) is cached under the
    *normalized* query string.  ``NP( DT ) ( NN )``, ``NP(DT)(NN)`` and the
    equivalent path form all share one entry.

posting cache
    a lock-striped LRU of *decoded* posting lists installed in front of the
    index's sources (:meth:`repro.core.segments.SegmentSet.attach_postings_cache`),
    so repeated cover keys skip the tree descents, posting decoding and the
    merge across sources.  The index keeps one list per key and part
    (:class:`~repro.core.segments.Part`), tagged with the part's tag.

result cache
    :class:`~repro.exec.executor.QueryResult` objects, one per normalized
    query string and part of the index, so an identical repeated query is
    answered without any join work at all.  Every entry is tagged with its
    part's tag when the run started -- a constant on an immutable index; on
    a live one a segment's tombstones, the delta's version -- and served
    only while that tag stands: a result computed while a mutation raced it
    is never served after it, and a write leaves every part it did not
    touch servable.  The parts a run misses are joined once, and that
    answer is cut back into their results; the answer is the parts'
    results end to end.  Size 0 disables this layer.

On top of these, :meth:`QueryService.run_many` batches: it prepares every
query first, fetches each *distinct* cover key exactly once, and joins each
query against the shared fetch memo.  All structures are thread-safe -- the
caches stripe their locks and the B+Tree serialises cache-missing descents
-- so one service instance can sit behind a thread pool.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from repro.query.covers import Cover
from repro.query.model import QueryTree
from repro.query.parser import parse_query
from repro.service.cache import CacheStats, StripedLRUCache
from repro.storage.bptree import ProbeStats

#: Anything `run` / `run_many` accept as a query.
QueryLike = Union[str, QueryTree]


@dataclass(frozen=True)
class PreparedQuery:
    """The cacheable output of the parse + decomposition stages.

    Immutable and shared between threads: executions read the cover and key
    bytes but never mutate them.
    """

    normalized: str
    query: QueryTree
    cover: Cover
    key_bytes: Tuple[bytes, ...]

    @property
    def distinct_keys(self) -> frozenset:
        """The distinct canonical cover keys this query fetches."""
        return frozenset(self.key_bytes)


@dataclass
class ServiceStats:
    """One snapshot of every counter the service keeps.

    ``plans`` covers the prepared-query cache, ``postings`` the lock-striped
    posting cache, ``results`` the whole-result cache, and ``probes`` the
    index's lookup counters (``probes.tree_descents`` is the number of
    actual B+Tree descents -- the disk I/O proxy -- and
    ``probes.node_decodes`` the pages those descents had to parse: none
    once the tree is warm).
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


def _counters(cache: Optional[StripedLRUCache]) -> CacheStats:
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
        heavily threaded filter-based serving.
    pad:
        Decomposition knob, as on :class:`~repro.exec.executor.QueryExecutor`;
        the cover policy is the coding's own (``default_strategy``).
    plan_cache_size / postings_cache_size / result_cache_size:
        Entry bounds of the three LRU caches; size 0 disables that layer
        entirely.  Cached results are shared objects and must be treated as
        read-only by callers.
    stripes:
        Lock stripes per cache; raise for heavily threaded workloads.
    """

    def __init__(
        self,
        index: SegmentSet,
        pad: bool = True,
        plan_cache_size: int = 256,
        postings_cache_size: int = 4096,
        result_cache_size: int = 1024,
        stripes: int = 8,
    ):
        self.index = index
        self.store = index.store
        self.pad = pad
        self.strategy = default_strategy(index.coding)

        def make_cache(size: int) -> Optional[StripedLRUCache]:
            return StripedLRUCache(size, stripes=stripes) if size else None

        self._plan_cache = make_cache(plan_cache_size)
        self._postings_cache = make_cache(postings_cache_size)
        self._result_cache = make_cache(result_cache_size)
        if self._postings_cache is not None:
            index.attach_postings_cache(self._postings_cache)
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
        """Clear the caches, detach the posting cache and close the index if
        :meth:`open` opened it."""
        self.clear_caches()
        self.index.attach_postings_cache(None)
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
        single cache probe with no parsing at all.
        """
        if isinstance(query, QueryTree):
            return self._prepare_parsed(query.root.to_string(), query)

        text_key = query.strip()
        cache = self._plan_cache
        if cache is not None:
            cached = cache.get(text_key)
            if cached is not None:
                return cached  # type: ignore[return-value]
        parsed = parse_query(query)
        prepared = self._prepare_parsed(parsed.root.to_string(), parsed)
        if cache is not None and text_key != prepared.normalized:
            cache.put(text_key, prepared)
        return prepared

    def _prepare_parsed(self, normalized: str, parsed: QueryTree) -> PreparedQuery:
        cache = self._plan_cache
        if cache is not None:
            cached = cache.get(normalized)
            if cached is not None:
                return cached  # type: ignore[return-value]
        cover = decompose_query(parsed, self.index.mss, self.strategy, pad=self.pad)
        keys = tuple(subtree.key_bytes() for subtree in cover.subtrees)
        prepared = PreparedQuery(
            normalized=normalized, query=parsed, cover=cover, key_bytes=keys
        )
        if cache is not None:
            cache.put(normalized, prepared)
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
        stats = ExecutionStats(
            coding=self.index.coding.name,
            strategy=self.strategy,
            cover_size=len(prepared.cover),
            join_count=prepared.cover.join_count,
            postings_fetched=sum(len(plist) for plist in postings),
        )
        if not all(postings):  # a cover key without a posting: no match, and no plan to build
            result = QueryResult()
        else:
            result = join_postings(
                prepared.query, prepared.cover, postings, self.index.coding, store=self.store, stats=stats
            )
        stats.elapsed_seconds = time.perf_counter() - started
        result.stats = stats
        return result

    def _cached_result(self, prepared: PreparedQuery, part: Part) -> Optional[QueryResult]:
        """*part*'s cached result of *prepared*, if it was computed under the
        part's current tag (a stale one counts as a miss)."""
        cache = self._result_cache
        return None if cache is None else cache.get_tagged((prepared.normalized, part.key), part.tag)

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

    def _remember_result(self, prepared: PreparedQuery, part: Part, result: QueryResult) -> None:
        """Cache *result* tagged with *part*'s tag as the run read it.

        The tag is read *before* execution, so a result that raced a
        mutation carries a stale tag and is simply never served -- the
        read-side check makes the write-side race harmless.
        """
        if self._result_cache is not None:
            self._result_cache.put((prepared.normalized, part.key), (part.tag, result))

    def run(self, query: QueryLike) -> QueryResult:
        """Evaluate one query through the cached pipeline.

        A part whose result of an identical (up to normalization) earlier
        query is still current is answered from the result cache; the
        others are fetched and joined in one join.  A result served whole
        from the cache is the object computed before, stats and all.

        With tracing enabled (:func:`repro.obs.enable`) the whole run is
        wrapped in a ``query`` span whose children are the pipeline stages.
        """
        if not obs.enabled():
            return self._run_impl(query)
        text = query.strip() if isinstance(query, str) else query.root.to_string()
        with obs.trace(
            "query", flavor=self.index.flavor, query=text, query_sha1=obs.query_hash(text)
        ) as span:
            result = self._run_impl(query)
            span.set(matches=result.total_matches)
            return result

    def _run_impl(self, query: QueryLike) -> QueryResult:
        snapshot = self.index.snapshot
        with obs.trace("prepare") as span:
            prepared = self.prepare(query)
            span.set(cover=len(prepared.cover))
        cached = [self._cached_result(prepared, part) for part in snapshot.parts]
        missed = [part for part, hit in zip(snapshot.parts, cached) if hit is None]
        obs.annotate(result_cache="miss" if missed else "hit", parts_joined=len(missed), epoch=snapshot.version[0])
        self._queries += 1
        joined = self._execute_uncached(prepared, missed) if missed else None
        return self._answer(prepared, snapshot.parts, cached, joined)

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
                self._remember_result(prepared, part, hit)
            results.append(hit)
        return results[0] if len(results) == 1 else _concatenated(results)

    def _execute_uncached(self, prepared: PreparedQuery, parts: Sequence[Part]) -> QueryResult:
        """Stages 2+3 of the *parts* one query missed in the result cache:
        one join over their lists end to end."""
        started = time.perf_counter()
        return self._execute_prepared(prepared, self._fetch_for_run(prepared, parts), started)

    def _fetch_for_run(self, prepared: PreparedQuery, parts: Sequence[Part]) -> List[PostingColumns]:
        if len(parts) == 1:
            fetch = partial(self.index.part_lookup, parts[0])
        else:
            def fetch(key: bytes) -> PostingColumns:
                return merge_columns([self.index.part_lookup(part, key) for part in parts])

        if not obs.enabled():
            return [fetch(key) for key in prepared.key_bytes]
        return fetch_postings(prepared.cover, fetch)

    def run_many(self, queries: Sequence[QueryLike]) -> List[QueryResult]:
        """Evaluate a batch, fetching each distinct cover key exactly once a part.

        The batch is prepared first; the union of the cover keys of what the
        result cache cannot answer is deduplicated and fetched into a memo
        (one :meth:`~repro.core.segments.SegmentSet.part_lookup` -- hence at
        most one B+Tree descent per source -- per distinct key and part),
        every query joins the parts it missed once against the shared memo,
        and identical queries share one join.  Results keep the input order;
        each result's ``stats.elapsed_seconds`` covers only its own join,
        since the prepare/fetch work is shared by the whole batch (time the
        ``run_many`` call itself for batch totals).
        """
        if not obs.enabled():
            return self._run_many_impl(queries)
        with obs.trace("batch", flavor=self.index.flavor, queries=len(queries)) as span:
            results = self._run_many_impl(queries)
            span.set(matches=sum(result.total_matches for result in results))
            return results

    def _run_many_impl(self, queries: Sequence[QueryLike]) -> List[QueryResult]:
        parts = self.index.snapshot.parts
        prepared_batch = [self.prepare(query) for query in queries]
        cached = [[self._cached_result(prepared, part) for part in parts] for prepared in prepared_batch]
        obs.annotate(result_cache_hits=sum(hit is not None for row in cached for hit in row))

        memo: Dict[Tuple[bytes, object], PostingColumns] = {}
        for prepared, row in zip(prepared_batch, cached):
            for part, hit in zip(parts, row):
                for key in prepared.key_bytes if hit is None else ():
                    if (key, part.key) not in memo:
                        memo[key, part.key] = self.index.part_lookup(part, key)

        results: List[QueryResult] = []
        computed: Dict[str, QueryResult] = {}  # a join runs once per distinct query
        total_keys = 0
        for prepared, row in zip(prepared_batch, cached):
            missed = [part for part, hit in zip(parts, row) if hit is None]
            total_keys += len(prepared.key_bytes) * len(missed)
            answer = computed.get(prepared.normalized)
            if answer is None:
                joined = None
                if missed:
                    postings = [
                        merge_columns([memo[key, part.key] for part in missed]) for key in prepared.key_bytes
                    ]
                    joined = self._execute_prepared(prepared, postings, time.perf_counter())
                answer = computed[prepared.normalized] = self._answer(prepared, parts, row, joined)
            results.append(answer)
        self._queries += len(prepared_batch)
        self._batches += 1
        self._batch_keys_deduped += total_keys - len(memo)
        return results

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Snapshot every counter: service, all three caches, index probes
        (descents and node decodes summed over a sharded or live index's
        sources), plus what the index reports about itself."""
        return ServiceStats(
            queries=self._queries,
            batches=self._batches,
            batch_keys_deduped=self._batch_keys_deduped,
            plans=_counters(self._plan_cache),
            postings=_counters(self._postings_cache),
            results=_counters(self._result_cache),
            probes=self.index.probe_snapshot(),
            extras=self.index.stats_extras(),
        )

    def clear_caches(self) -> None:
        """Drop all cached plans, postings and results (counters are kept)."""
        for cache in (self._plan_cache, self._postings_cache, self._result_cache):
            if cache is not None:
                cache.clear()
