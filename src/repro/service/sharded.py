"""The sharded serving layer: QueryService semantics over a ShardedIndex.

:class:`ShardedQueryService` keeps the parent's cache layering but adapts
each layer to the sharded shape:

prepared-query cache (global)
    decomposition depends only on the query, ``mss`` and coding -- all
    shared by every shard -- so plans are prepared and cached exactly once,
    not per shard.

posting caches (per shard)
    each shard's :class:`~repro.core.index.SubtreeIndex` gets its own
    lock-striped LRU of decoded posting lists.  A key's postings differ per
    shard, so one shared cache keyed by key bytes would collide; per-shard
    caches also keep the fan-out path free of cross-shard contention.  The
    configured ``postings_cache_size`` is the *total* budget, split evenly.

result cache (global)
    merged results are per query, not per shard, and are cached whole.

Execution fans stages 2+3 out to a thread pool via
:func:`repro.exec.fanout.execute_on_shards` and merges in global tid order.
:meth:`run_many` batches like the parent: every distinct cover key is
fetched at most once *per shard* for the whole batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.exec.executor import QueryResult
from repro.exec.fanout import (
    ShardFetcher,
    execute_on_shards,
    finish_stats,
    make_fanout_pool,
)
from repro.service.cache import CacheStats, StripedLRUCache
from repro.service.service import PreparedQuery, QueryLike, QueryService, ServiceStats
from repro.shard.sharded import ShardedIndex
from repro.storage.bptree import ProbeStats


@dataclass
class ShardLayerStats:
    """One shard's serving counters: posting cache + index probes."""

    shard_id: int
    postings: CacheStats = field(default_factory=CacheStats)
    probes: ProbeStats = field(default_factory=ProbeStats)


@dataclass
class ShardedServiceStats(ServiceStats):
    """Service counters plus the per-shard breakdown.

    The aggregate fields mean what they do on :class:`ServiceStats`;
    ``postings`` and ``probes`` are summed over shards.
    """

    per_shard: List[ShardLayerStats] = field(default_factory=list)

    def extras_dict(self) -> Dict[str, object]:
        """The per-shard split, added under its own key (core shape untouched)."""
        return {
            "shards": [
                {
                    "shard_id": layer.shard_id,
                    "postings_hits": layer.postings.hits,
                    "postings_lookups": layer.postings.lookups,
                    "probe_gets": layer.probes.gets,
                    "tree_descents": layer.probes.tree_descents,
                    "node_decodes": layer.probes.node_decodes,
                }
                for layer in self.per_shard
            ],
        }


class ShardedQueryService(QueryService):
    """Cached, batched, thread-safe serving over a sharded index.

    Parameters are those of :class:`QueryService` (minus ``store``, which is
    implied by the shards) plus ``max_threads``, the fan-out pool width
    (default: shard count, capped at 16).
    """

    flavor = "sharded"

    def __init__(
        self,
        index: ShardedIndex,
        strategy: Optional[str] = None,
        pad: bool = True,
        plan_cache_size: int = 256,
        postings_cache_size: int = 4096,
        result_cache_size: int = 1024,
        stripes: int = 8,
        max_threads: Optional[int] = None,
    ):
        # The parent owns the plan/result caches and the prepare() pipeline;
        # its postings layer is disabled (size 0) because posting caching
        # moves into the shards below.
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
        self._shard_caches: List[StripedLRUCache] = []
        if postings_cache_size:
            per_shard = max(1, postings_cache_size // index.shard_count)
            for shard in index.shards:
                cache = StripedLRUCache(per_shard, stripes=stripes)
                shard.index.attach_postings_cache(cache)
                self._shard_caches.append(cache)
        self._pool = make_fanout_pool(
            index.shard_count, max_threads, thread_name_prefix="shard-svc"
        )

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, index_path: str, **kwargs: object) -> "ShardedQueryService":
        """Open a sharded index from its manifest file for serving."""
        index = ShardedIndex.open(index_path)
        service = cls(index, **kwargs)  # type: ignore[arg-type]
        service._owned_resources.append(index)
        return service

    def close(self) -> None:
        """Drop every cache (per-shard ones included) and owned resources."""
        for shard, cache in zip(self.index.shards, self._shard_caches):
            cache.clear()
            shard.index.attach_postings_cache(None)
        self._shard_caches.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    # ------------------------------------------------------------------
    # Execution: fan out instead of merged lookups
    # ------------------------------------------------------------------
    def _execute_fanout(
        self,
        prepared: PreparedQuery,
        started: float,
        fetch: Optional[ShardFetcher] = None,
    ) -> QueryResult:
        result, stats = execute_on_shards(
            prepared.query,
            prepared.cover,
            prepared.key_bytes,
            self.index.shards,
            self.index.coding,
            pool=self._pool,
            fetch=fetch,
        )
        result.stats = finish_stats(stats, self.index.coding, self.strategy, started)
        return result

    def _execute_uncached(self, prepared: PreparedQuery, started: float) -> QueryResult:
        """One query: global plan, per-shard fetch+join, merge.

        The parent's :meth:`run` wrapper (caching, counters, tracing) calls
        this for every result-cache miss.
        """
        return self._execute_fanout(prepared, started)

    def _run_many_impl(self, queries: Sequence[QueryLike]) -> List[QueryResult]:
        """Evaluate a batch; each distinct key is fetched once *per shard*.

        The per-shard memos are filled on the fan-out pool (one task per
        shard), then every uncached query joins against them; identical
        queries share one join, exactly as in the parent.
        """
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

        # shard_id -> key -> postings; filled shard-parallel, read-only after.
        memos: Dict[int, Dict[bytes, List[object]]] = {}

        def fill_memo(shard) -> Tuple[int, Dict[bytes, List[object]]]:
            return shard.shard_id, {key: shard.index.lookup(key) for key in distinct}

        shards = self.index.shards
        if self._pool is not None and len(shards) > 1 and distinct:
            memos = dict(self._pool.map(fill_memo, shards))
        else:
            memos = dict(fill_memo(shard) for shard in shards)

        def from_memo(shard, key: bytes) -> List[object]:
            return memos[shard.shard_id][key]

        results: List[QueryResult] = []
        computed: Dict[str, QueryResult] = {}
        for prepared, hit in zip(prepared_batch, cached):
            if hit is not None:
                results.append(hit)
                continue
            result = computed.get(prepared.normalized)
            if result is None:
                result = self._execute_fanout(prepared, time.perf_counter(), fetch=from_memo)
                self._remember_result(prepared, result)
                computed[prepared.normalized] = result
            results.append(result)
        self._queries += len(prepared_batch)
        self._batches += 1
        self._batch_keys_deduped += total_keys - len(distinct)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ShardedServiceStats:
        """Aggregate counters plus the per-shard posting-cache/probe split."""
        per_shard: List[ShardLayerStats] = []
        postings_total = CacheStats()
        probes_total = ProbeStats()
        for position, shard in enumerate(self.index.shards):
            cache_stats = (
                self._shard_caches[position].stats()
                if position < len(self._shard_caches)
                else CacheStats()
            )
            probe_stats = shard.index.probe_stats.snapshot()
            per_shard.append(
                ShardLayerStats(shard.shard_id, postings=cache_stats, probes=probe_stats)
            )
            postings_total = postings_total + cache_stats
            probes_total += probe_stats
        return ShardedServiceStats(
            queries=self._queries,
            batches=self._batches,
            batch_keys_deduped=self._batch_keys_deduped,
            plans=self._plan_cache.stats() if self._plan_cache else CacheStats(),
            postings=postings_total,
            results=self._result_cache.stats() if self._result_cache else CacheStats(),
            probes=probes_total,
            per_shard=per_shard,
        )

    def clear_caches(self) -> None:
        """Drop plans, results and every per-shard posting cache."""
        super().clear_caches()
        for cache in self._shard_caches:
            cache.clear()
