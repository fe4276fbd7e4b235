"""The sharded subtree index: N shard files behind one object.

:class:`ShardedIndex` opens a manifest and presents the *read* API of
:class:`~repro.core.index.SubtreeIndex` -- ``lookup`` / ``has_key`` /
``keys`` / ``items`` / metadata properties -- over the union of its shards,
so every existing consumer (``QueryExecutor``, ``QueryService``, the CLI)
works unchanged when pointed at a manifest.  Tree ids are disjoint across
shards, so a key's global posting list is the tid-ordered merge of the
per-shard lists; merging (rather than concatenating) preserves the sorted-
by-tid invariant the join operators rely on.

This merged ``lookup`` is the *compatibility* path.  The *performance* path
is per-shard fan-out -- fetch and join inside each shard, merge only the
final results -- implemented by :class:`repro.exec.fanout.FanoutExecutor`
and :class:`repro.service.sharded.ShardedQueryService`, which reach through
:attr:`ShardedIndex.shards` to the per-shard indexes and stores.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.coding.base import CodingScheme, get_coding
from repro.coding.postings import PostingColumns
from repro.core.index import IndexMetadata, SubtreeIndex
from repro.core.keys import SubtreeKey, decode_key
from repro.corpus.store import TreeStore
from repro.shard.builder import build_sharded
from repro.shard.manifest import ShardEntry, ShardError, ShardManifest, is_manifest
from repro.shard.partitioner import Partitioner, get_partitioner
from repro.storage.bptree import ProbeStats, ValueCache
from repro.trees.node import Node, ParseTree


@dataclass
class ShardHandle:
    """One opened shard: its manifest entry, index and (optional) data file."""

    shard_id: int
    entry: ShardEntry
    index: SubtreeIndex
    store: Optional[TreeStore]


class ShardedTreeStore:
    """Read-only tid-routed view over the per-shard data files.

    Gives the filtering phase (filter-based coding) and any other tid-keyed
    consumer one ``get``/``get_many`` surface across all shards, matching the
    parts of :class:`~repro.corpus.store.TreeStore` the query path uses.
    """

    def __init__(self, shards: Sequence[ShardHandle], partitioner: Partitioner):
        self._shards = [shard for shard in shards if shard.store is not None]
        self._partitioner = partitioner

    def _store_for(self, tid: int) -> Optional[TreeStore]:
        located = self._partitioner.locate(tid)
        if located is not None:
            for shard in self._shards:
                if shard.shard_id == located:
                    return shard.store
            return None
        for shard in self._shards:  # positional policies: membership probe
            if shard.store is not None and tid in shard.store:
                return shard.store
        return None

    def get(self, tid: int) -> ParseTree:
        store = self._store_for(tid)
        if store is None or tid not in store:
            raise KeyError(f"no tree with tid {tid}")
        return store.get(tid)

    def get_many(self, tids: Sequence[int]) -> List[ParseTree]:
        return [self.get(tid) for tid in sorted(tids)]

    def __contains__(self, tid: int) -> bool:
        store = self._store_for(tid)
        return store is not None and tid in store

    def __len__(self) -> int:
        return sum(len(shard.store) for shard in self._shards)

    def tids(self) -> List[int]:
        all_tids: List[int] = []
        for shard in self._shards:
            all_tids.extend(shard.store.tids())
        return sorted(all_tids)

    def __iter__(self) -> Iterator[ParseTree]:
        for tid in self.tids():
            yield self.get(tid)


class ShardedIndex:
    """A subtree index horizontally partitioned by tree id across N shards."""

    def __init__(
        self,
        manifest_path: str,
        manifest: ShardManifest,
        shards: Sequence[ShardHandle],
        partitioner: Partitioner,
    ):
        self.manifest_path = manifest_path
        self.manifest = manifest
        self.shards: List[ShardHandle] = list(shards)
        self.partitioner = partitioner
        self.coding: CodingScheme = get_coding(manifest.coding)
        # Aggregate metadata in the shape SubtreeIndex consumers expect.
        # key_count sums the per-shard unique-key counts, so a key present
        # in several shards is counted once per shard (the global distinct
        # count is <= this sum).
        self.metadata = IndexMetadata(
            mss=manifest.mss,
            coding=manifest.coding,
            tree_count=manifest.tree_count,
            key_count=sum(entry.key_count for entry in manifest.shards),
            posting_count=sum(entry.posting_count for entry in manifest.shards),
            build_seconds=manifest.build_wall_seconds,
        )
        self.store = ShardedTreeStore(self.shards, partitioner)
        self._postings_cache: Optional[ValueCache] = None
        #: Counters of *merged* lookups through this object; the per-shard
        #: indexes keep their own ``probe_stats`` for the fan-out path.
        self.probe_stats = ProbeStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        trees,
        mss: int,
        coding: CodingScheme | str,
        path: str,
        shards: int,
        workers: Optional[int] = None,
        partitioner: str | Partitioner = "hash",
    ) -> "ShardedIndex":
        """Partition *trees*, build every shard (in parallel worker processes
        when ``workers > 1``) and return the opened sharded index."""
        manifest_path = build_sharded(
            trees, mss, coding, path, shards, workers=workers, partitioner=partitioner
        )
        return cls.open(manifest_path)

    @classmethod
    def open(cls, path: str) -> "ShardedIndex":
        """Open a sharded index from its manifest file.

        Raises :class:`~repro.shard.manifest.ShardError` -- always naming the
        offending shard -- when a shard file is missing, unreadable, or
        disagrees with the manifest's parameters.
        """
        manifest = ShardManifest.load(path)
        partitioner = get_partitioner(manifest.partitioner, manifest.shard_count)
        shards: List[ShardHandle] = []
        try:
            for entry in manifest.shards:
                index_path = manifest.resolve(path, entry.index_path)
                if not os.path.exists(index_path):
                    raise ShardError(
                        f"shard {entry.shard_id} of {manifest.shard_count} is missing "
                        f"its index file {index_path!r} (listed in {path!r})"
                    )
                try:
                    index = SubtreeIndex.open(index_path)
                except ShardError:
                    raise
                except Exception as error:
                    raise ShardError(
                        f"shard {entry.shard_id} of {manifest.shard_count} is "
                        f"unreadable at {index_path!r}: {error}"
                    ) from error
                if index.mss != manifest.mss or index.coding.name != manifest.coding:
                    index.close()
                    raise ShardError(
                        f"shard {entry.shard_id} at {index_path!r} was built with "
                        f"mss={index.mss} coding={index.coding.name}, but the manifest "
                        f"says mss={manifest.mss} coding={manifest.coding}"
                    )
                store_path = manifest.resolve(path, entry.data_path)
                store = TreeStore(store_path) if os.path.exists(store_path) else None
                shards.append(ShardHandle(entry.shard_id, entry, index, store))
        except Exception:
            for shard in shards:
                shard.index.close()
                if shard.store is not None:
                    shard.store.close()
            raise
        return cls(path, manifest, shards, partitioner)

    # ------------------------------------------------------------------
    # Lookup (merged across shards)
    # ------------------------------------------------------------------
    _CACHE_MISS = object()

    def lookup(self, key: bytes | str | SubtreeKey | Node) -> List[object]:
        """The global posting list of *key*: per-shard lists merged by tid.

        Accepts the same key forms as :meth:`SubtreeIndex.lookup`.  With a
        cache attached (:meth:`attach_postings_cache`) the *merged* list is
        cached at this level; the per-shard indexes may additionally carry
        their own caches for the fan-out path.
        """
        self.probe_stats.gets += 1
        encoded = SubtreeIndex._normalise_key(key)
        cache = self._postings_cache
        if cache is not None:
            cached = cache.get(encoded, self._CACHE_MISS)
            if cached is not self._CACHE_MISS:
                self.probe_stats.cache_hits += 1
                return cached  # type: ignore[return-value]
        self.probe_stats.tree_descents += 1
        per_shard = [shard.index.lookup(encoded) for shard in self.shards]
        merged = self._merge_postings(per_shard)
        if cache is not None:
            cache.put(encoded, merged)
        return merged

    @staticmethod
    def _merge_postings(per_shard: Sequence[Sequence[object]]) -> Sequence[object]:
        """Merge per-shard posting lists into one list ascending in tid.

        Every coding's posting carries ``tid`` and each shard's list is
        already tid-ascending (shards receive their trees in corpus order),
        so this is a plain k-way merge.  Tids never repeat across shards.
        A single populated source that is a (read-only) ``PostingColumns``
        is returned as it is, so the join kernel gets its columns and no
        posting object is built; a plain list is copied, since it may be a
        delta segment's own.
        """
        populated = [plist for plist in per_shard if plist]
        if not populated:
            return []
        if len(populated) == 1:
            only = populated[0]
            return only if isinstance(only, PostingColumns) else list(only)
        return list(heapq.merge(*populated, key=lambda posting: posting.tid))

    def has_key(self, key: bytes | str | SubtreeKey | Node) -> bool:
        """``True`` when any shard indexes *key*."""
        encoded = SubtreeIndex._normalise_key(key)
        return any(shard.index.has_key(encoded) for shard in self.shards)

    def posting_list_length(self, key: bytes | str | SubtreeKey | Node) -> int:
        """Global posting-list length of *key* (0 when absent everywhere)."""
        encoded = SubtreeIndex._normalise_key(key)
        return sum(shard.index.posting_list_length(encoded) for shard in self.shards)

    def locate(self, tid: int) -> Optional[int]:
        """The shard id holding *tid*, when the partitioner can derive it."""
        return self.partitioner.locate(tid)

    # ------------------------------------------------------------------
    # Probe accounting and the read-through posting cache
    # ------------------------------------------------------------------
    def reset_probe_stats(self) -> ProbeStats:
        """Zero the merged-lookup counters (and every shard's) and return
        the pre-reset merged snapshot."""
        snapshot = self.probe_stats.snapshot()
        self.probe_stats.reset()
        for shard in self.shards:
            shard.index.reset_probe_stats()
        return snapshot

    def aggregate_probe_stats(self) -> ProbeStats:
        """Sum of the per-shard indexes' probe counters (the fan-out path)."""
        total = ProbeStats()
        for shard in self.shards:
            total += shard.index.probe_stats
        return total

    def attach_postings_cache(self, cache: Optional[ValueCache]) -> None:
        """Install a read-through cache of *merged* decoded posting lists."""
        self._postings_cache = cache

    @property
    def postings_cache(self) -> Optional[ValueCache]:
        """The currently attached merged-posting cache, if any."""
        return self._postings_cache

    # ------------------------------------------------------------------
    # Iteration and statistics
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[bytes, List[object]]]:
        """Yield ``(key bytes, merged posting list)`` in global key order.

        Keys present in several shards appear once, with their posting lists
        merged by tid -- exactly what a single-shard index would store.
        """
        streams = (shard.index.items() for shard in self.shards)
        merged = heapq.merge(*streams, key=lambda item: item[0])
        for key, group in groupby(merged, key=lambda item: item[0]):
            yield key, self._merge_postings([postings for _, postings in group])

    def keys(self) -> Iterator[SubtreeKey]:
        """Yield every distinct key as a parsed :class:`SubtreeKey`."""
        for key, _ in self.items():
            yield decode_key(key)

    def raw_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield each shard's ``(key, encoded postings)`` pairs, key-ordered.

        Unlike :meth:`items`, encoded values cannot be merged, so a key held
        by K shards yields K pairs (adjacent in the stream).
        """
        streams = (shard.index.raw_items() for shard in self.shards)
        return heapq.merge(*streams, key=lambda item: item[0])

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def mss(self) -> int:
        """Maximum subtree size every shard was built with."""
        return self.manifest.mss

    @property
    def key_count(self) -> int:
        """Sum of per-shard unique-key counts (>= the global distinct count)."""
        return self.metadata.key_count

    @property
    def posting_count(self) -> int:
        """Total postings across all shards."""
        return self.metadata.posting_count

    def size_bytes(self) -> int:
        """Total size of all shard index files on disk."""
        return sum(shard.index.size_bytes() for shard in self.shards)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush every shard."""
        for shard in self.shards:
            shard.index.flush()
            if shard.store is not None:
                shard.store.flush()

    def close(self) -> None:
        """Close every shard's index and data file and drop the cache."""
        if self._postings_cache is not None:
            clear = getattr(self._postings_cache, "clear", None)
            if clear is not None:
                clear()
            self._postings_cache = None
        for shard in self.shards:
            shard.index.close()
            if shard.store is not None:
                shard.store.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_index(path: str) -> "SubtreeIndex | ShardedIndex":
    """Open *path* as a plain or sharded index, dispatching on the file.

    The single dispatch point behind :meth:`SubtreeIndex.open`'s manifest
    handling, usable directly when the caller wants to branch on the type.
    """
    if is_manifest(path):
        return ShardedIndex.open(path)
    return SubtreeIndex.open(path)
