"""The live serving layer: QueryService semantics over a mutable index.

The parent :class:`~repro.service.service.QueryService` can cache
aggressively because its index is immutable while open.  A
:class:`~repro.live.live.LiveIndex` mutates, so the service keys every
cache layer's validity on the index's ``(epoch, mutation)`` version:

postings (per segment)
    each immutable base segment gets its own striped LRU, exactly like the
    sharded service's per-shard caches -- the fan-out path fetches through
    the segment indexes, so that is where caching pays.  Segment postings
    cannot change within an epoch (adds only touch the in-memory delta and
    deletes are filtered at result level), so these caches survive every
    add/delete and are rebuilt only on an epoch bump (compaction swaps the
    segment set).  The delta is memory-resident and needs no cache.

results
    entries are stored tagged with the index version they were computed
    against and served only while that version is still current, so a
    result computed concurrently with a mutation can never be served after
    it -- even if the store races the invalidation sweep.

plans
    decomposition depends only on the query, ``mss`` and the coding, none
    of which a mutation can change -- plans survive adds and deletes and
    are dropped only on an *epoch bump* (compaction), the conservative
    boundary where the whole on-disk layout changed.

Execution fans out over the index's sources -- every base segment plus the
in-memory delta -- exactly like the sharded service fans out over shards
(:func:`repro.exec.fanout.execute_on_shards`); sources hold disjoint tids,
and tombstoned trees are filtered from the merged matches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.exec.executor import QueryResult
from repro.exec.fanout import execute_on_shards, finish_stats, make_fanout_pool
from repro.live.live import LiveIndex
from repro.service.cache import CacheStats, StripedLRUCache
from repro.service.service import PreparedQuery, QueryLike, QueryService, ServiceStats


@dataclass
class LiveServiceStats(ServiceStats):
    """Service counters plus the live index's mutation-side state."""

    epoch: int = 0
    delta_trees: int = 0
    tombstones: int = 0
    wal_ops: int = 0
    #: Times a version change forced a cache invalidation.
    invalidations: int = 0

    def extras_dict(self) -> Dict[str, object]:
        """The mutation-side state, added under its own key (core shape untouched)."""
        return {
            "live": {
                "epoch": self.epoch,
                "delta_trees": self.delta_trees,
                "tombstones": self.tombstones,
                "wal_ops": self.wal_ops,
                "invalidations": self.invalidations,
            },
        }


class LiveQueryService(QueryService):
    """Cached, batched serving over a :class:`~repro.live.live.LiveIndex`.

    Parameters are those of :class:`QueryService` (minus ``store``, implied
    by the index) plus ``max_threads``, the fan-out pool width over the
    index's segments + delta.  ``postings_cache_size`` is the *total*
    budget, split evenly across the base segments.
    """

    flavor = "live"

    def __init__(
        self,
        index: LiveIndex,
        strategy: Optional[str] = None,
        pad: bool = True,
        plan_cache_size: int = 256,
        postings_cache_size: int = 4096,
        result_cache_size: int = 1024,
        stripes: int = 8,
        max_threads: Optional[int] = None,
    ):
        # The parent's postings layer would attach to LiveIndex.lookup, the
        # merged compatibility path the fan-out execution never takes; the
        # budget goes to per-segment caches below instead.
        super().__init__(
            index,
            store=index.store,
            strategy=strategy,
            pad=pad,
            plan_cache_size=plan_cache_size,
            postings_cache_size=0,
            result_cache_size=result_cache_size,
            stripes=stripes,
        )
        self._pool = make_fanout_pool(
            max(index.segment_count + 1, 2), max_threads, thread_name_prefix="live-svc"
        )
        self._postings_budget = postings_cache_size
        self._cache_stripes = stripes
        #: ``(segment index, cache)`` pairs currently attached.
        self._segment_caches: List[Tuple[object, StripedLRUCache]] = []
        self._retired_postings = CacheStats()  # counters of detached caches
        self._attach_segment_caches()
        self._seen_version = index.version
        self._invalidations = 0

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, index_path: str, **kwargs: object) -> "LiveQueryService":
        """Open a live index from its manifest file for serving."""
        index = LiveIndex.open(index_path)
        service = cls(index, **kwargs)  # type: ignore[arg-type]
        service._owned_resources.append(index)
        return service

    def close(self) -> None:
        """Shut the pool down, detach every cache, release owned resources."""
        self._detach_segment_caches()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    # ------------------------------------------------------------------
    # Per-segment posting caches
    # ------------------------------------------------------------------
    def _detach_segment_caches(self) -> None:
        for segment_index, cache in self._segment_caches:
            self._retired_postings = self._retired_postings + cache.stats()
            cache.clear()
            segment_index.attach_postings_cache(None)  # type: ignore[attr-defined]
        self._segment_caches = []

    def _attach_segment_caches(self) -> None:
        """(Re)install one striped LRU per current base segment."""
        self._detach_segment_caches()
        segments = self.index.segments
        if not self._postings_budget or not segments:
            return
        per_segment = max(1, self._postings_budget // len(segments))
        for segment in segments:
            cache = StripedLRUCache(per_segment, stripes=self._cache_stripes)
            segment.index.attach_postings_cache(cache)
            self._segment_caches.append((segment.index, cache))

    # ------------------------------------------------------------------
    # Version-keyed invalidation
    # ------------------------------------------------------------------
    def _sync_with_index(self) -> None:
        """React to mutations since the last run: drop stale results, and on
        an epoch bump also drop plans and rebuild the per-segment caches."""
        version = self.index.version
        if version == self._seen_version:
            return
        if self._result_cache is not None:
            self._result_cache.clear()
        if version[0] != self._seen_version[0]:  # epoch bump: new segment set
            if self._plan_cache is not None:
                self._plan_cache.clear()
            self._attach_segment_caches()
        self._invalidations += 1
        self._seen_version = version

    # ------------------------------------------------------------------
    # Versioned result cache
    # ------------------------------------------------------------------
    def _cached_result(
        self, prepared: PreparedQuery, peek: bool = False
    ) -> Optional[QueryResult]:
        """A cached result, served only if its version tag is still current."""
        if self._result_cache is None:
            return None
        lookup = self._result_cache.peek if peek else self._result_cache.get
        entry = lookup(prepared.normalized)
        if entry is None:
            return None
        version, result = entry  # type: ignore[misc]
        if version != self.index.version:
            return None
        return result

    def _remember_result(
        self,
        prepared: PreparedQuery,
        result: QueryResult,
        version: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Cache *result* tagged with the version it was computed against.

        A result that raced a mutation carries a stale tag and is simply
        never served -- the read-side version check makes the write-side
        race harmless.
        """
        if self._result_cache is None:
            return
        if version is None:
            version = self.index.version
        self._result_cache.put(prepared.normalized, (version, result))

    # ------------------------------------------------------------------
    # Execution: fan out over segments + delta
    # ------------------------------------------------------------------
    def _execute_fanout(
        self,
        prepared: PreparedQuery,
        started: float,
        handles: Optional[Sequence[object]] = None,
        fetch=None,
    ) -> QueryResult:
        sources = handles if handles is not None else self.index.segment_handles()
        result, stats = execute_on_shards(
            prepared.query,
            prepared.cover,
            prepared.key_bytes,
            sources,
            self.index.coding,
            pool=self._pool,
            fetch=fetch,
            exclude_tids=self.index.tombstones,
        )
        result.stats = finish_stats(stats, self.index.coding, self.strategy, started)
        return result

    def _run_impl(self, query: QueryLike) -> QueryResult:
        """Evaluate one query against the current state of the live index.

        Overrides the parent's template rather than just the uncached hook:
        the version tag a result is remembered under must be captured
        *before* execution, so a result that raced a mutation is tagged
        stale and never served.
        """
        self._sync_with_index()
        version = self.index.version
        started = time.perf_counter()
        with obs.trace("prepare") as span:
            prepared = self.prepare(query)
            span.set(cover=len(prepared.cover))
        result = self._cached_result(prepared)
        obs.annotate(
            result_cache="hit" if result is not None else "miss", epoch=version[0]
        )
        if result is None:
            result = self._execute_fanout(prepared, started)
            self._remember_result(prepared, result, version)
        self._queries += 1
        return result

    def _run_many_impl(self, queries: Sequence[QueryLike]) -> List[QueryResult]:
        """Evaluate a batch; each distinct cover key is fetched once per source."""
        self._sync_with_index()
        version = self.index.version
        prepared_batch = [self.prepare(query) for query in queries]
        cached: List[Optional[QueryResult]] = [
            self._cached_result(prepared) for prepared in prepared_batch
        ]
        obs.annotate(result_cache_hits=sum(1 for hit in cached if hit is not None))

        distinct: List[bytes] = []
        seen = set()
        total_keys = 0
        for prepared, hit in zip(prepared_batch, cached):
            if hit is not None:
                continue
            for key in prepared.key_bytes:
                total_keys += 1
                if key not in seen:
                    seen.add(key)
                    distinct.append(key)

        handles = self.index.segment_handles()  # one snapshot for the batch
        positions = {id(handle): pos for pos, handle in enumerate(handles)}

        def fill_memo(handle) -> Tuple[int, Dict[bytes, List[object]]]:
            return positions[id(handle)], {key: handle.index.lookup(key) for key in distinct}

        if self._pool is not None and len(handles) > 1 and distinct:
            memos = dict(self._pool.map(fill_memo, handles))
        else:
            memos = dict(fill_memo(handle) for handle in handles)

        def from_memo(handle, key: bytes) -> List[object]:
            return memos[positions[id(handle)]][key]

        results: List[QueryResult] = []
        computed: Dict[str, QueryResult] = {}
        for prepared, hit in zip(prepared_batch, cached):
            if hit is not None:
                results.append(hit)
                continue
            result = computed.get(prepared.normalized)
            if result is None:
                result = self._execute_fanout(
                    prepared, time.perf_counter(), handles=handles, fetch=from_memo
                )
                self._remember_result(prepared, result, version)
                computed[prepared.normalized] = result
            results.append(result)
        self._queries += len(prepared_batch)
        self._batches += 1
        self._batch_keys_deduped += total_keys - len(distinct)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> LiveServiceStats:
        """Service counters plus the index's delta/tombstone/WAL state.

        ``postings`` aggregates the per-segment caches, including counters
        of caches retired by past compactions.
        """
        base = super().stats()
        postings = self._retired_postings
        for _, cache in self._segment_caches:
            postings = postings + cache.stats()
        # Fan-out lookups land on the segment indexes, not the merged path;
        # report both summed (mirrors ShardedQueryService.stats()).
        probes = base.probes  # the merged-path snapshot
        for segment in self.index.segments:
            probes += segment.index.probe_stats
        return LiveServiceStats(
            queries=base.queries,
            batches=base.batches,
            batch_keys_deduped=base.batch_keys_deduped,
            plans=base.plans,
            postings=postings,
            results=base.results,
            probes=base.probes,
            epoch=self.index.epoch,
            delta_trees=self.index.delta.tree_count,
            tombstones=len(self.index.tombstones),
            wal_ops=self.index.wal.op_count,
            invalidations=self._invalidations,
        )

    def clear_caches(self) -> None:
        """Drop plans, results and every per-segment posting cache."""
        super().clear_caches()
        for _, cache in self._segment_caches:
            cache.clear()
