"""The live index: a mutable subtree index that never blocks reads.

The paper indexes a static treebank; growing the corpus meant rebuilding
from scratch.  :class:`LiveIndex` makes the index mutable with the standard
LSM recipe:

* **immutable base segments** on disk -- each a complete
  :class:`~repro.core.index.SubtreeIndex` + :class:`~repro.corpus.store.TreeStore`
  pair over a disjoint tid range, exactly the shape of a shard;
* an **in-memory delta segment** (:class:`~repro.live.delta.DeltaSegment`)
  holding the trees added since the last compaction, plus a **tombstone set**
  of deleted tids;
* a **write-ahead log** (:class:`~repro.live.wal.WriteAheadLog`): every
  mutation is fsynced to the log before it is applied, so reopening after a
  crash replays the delta exactly -- zero lost, zero duplicated ops;
* an explicit :meth:`compact`: the delta is flushed into a fresh immutable
  segment via the existing builder, base segments containing tombstoned
  trees are rewritten without them, and the epoch-stamped manifest is
  swapped atomically before the WAL is truncated.

Reads present the full ``SubtreeIndex`` read API: a key's posting list is
the tid-ordered k-way merge of the per-segment lists and the delta's
(reusing the merge machinery of :class:`~repro.shard.sharded.ShardedIndex`),
with tombstoned tids filtered out.  Tids are assigned monotonically and
never reused, so segment and delta posting lists stay disjoint and
tid-ascending -- merged results are byte-identical to a fresh rebuild over
the surviving corpus, which ``tests/live/`` asserts over the full WH + FB
workloads for all three codings.

Mutations take a writer lock (one writer at a time); readers are never
blocked and never crash: posting lists are published copy-on-write (a list
a reader holds is a stable snapshot), a visible posting always names a
fetchable tree, and segments replaced by a compaction are retired -- kept
open until :meth:`LiveIndex.close` -- so in-flight queries finish on the
old epoch's files.  A query that *overlaps* a mutation may still observe
it partially (the new tree on some keys, not yet on others); callers
needing strict snapshot isolation should serialise queries with mutations
externally.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.coding.base import CodingScheme, get_coding
from repro.core.index import (
    IndexMetadata,
    SubtreeIndex,
    accumulate_posting_lists,
    encode_posting_lists,
)
from repro.core.keys import SubtreeKey, decode_key
from repro.corpus.store import Corpus, TreeStore
from repro.live.delta import DeltaSegment
from repro.live.manifest import (
    LIVE_SUFFIX,
    LiveIndexError,
    LiveManifest,
    SegmentEntry,
    is_live_manifest,
    segment_file_names,
    wal_file_path,
)
from repro.live.wal import WriteAheadLog
from repro.shard.sharded import ShardedIndex
from repro.storage.bptree import ProbeStats, ValueCache
from repro.trees.node import Node, ParseTree
from repro.trees.penn import parse_penn, to_penn


@dataclass
class LiveSegment:
    """One opened base segment: manifest entry, index and data file."""

    segment_id: int
    entry: SegmentEntry
    index: SubtreeIndex
    store: TreeStore


@dataclass
class _DeltaHandle:
    """Adapts the delta to the ``.index`` / ``.store`` shape fan-out expects."""

    index: DeltaSegment
    store: Corpus


@dataclass
class CompactionStats:
    """What one :meth:`LiveIndex.compact` call did."""

    epoch: int
    flushed_trees: int = 0
    purged_tombstones: int = 0
    segments_rewritten: int = 0
    segments_dropped: int = 0
    wal_bytes_truncated: int = 0
    seconds: float = 0.0
    noop: bool = False


class LiveTreeStore:
    """Tid-routed read view over the segments' data files plus the delta.

    Presents the parts of :class:`~repro.corpus.store.TreeStore` the query
    path and the CLI use.  Tombstoned trees are gone: ``get`` raises
    ``KeyError`` for them and iteration skips them.
    """

    def __init__(self, live: "LiveIndex"):
        self._live = live

    def get(self, tid: int) -> ParseTree:
        live = self._live
        if tid not in live._tombstones:
            tree = live._delta.trees.get(tid)
            if tree is not None:
                return tree
            for segment in live.segments:
                if tid in segment.store:
                    return segment.store.get(tid)
        raise KeyError(f"no tree with tid {tid}")

    def get_many(self, tids: Sequence[int]) -> List[ParseTree]:
        return [self.get(tid) for tid in sorted(tids)]

    def __contains__(self, tid: int) -> bool:
        live = self._live
        if tid in live._tombstones:
            return False
        return tid in live._delta.trees or any(tid in s.store for s in live.segments)

    def __len__(self) -> int:
        return self._live.tree_count

    def tids(self) -> List[int]:
        live = self._live
        all_tids: List[int] = []
        for segment in live.segments:
            all_tids.extend(segment.store.tids())
        all_tids.extend(live._delta.tids())
        return sorted(tid for tid in all_tids if tid not in live._tombstones)

    def __iter__(self) -> Iterator[ParseTree]:
        for tid in self.tids():
            yield self.get(tid)


class LiveIndex:
    """A mutable subtree index: base segments + delta + tombstones + WAL."""

    def __init__(
        self,
        manifest_path: str,
        manifest: LiveManifest,
        segments: Sequence[LiveSegment],
        wal: WriteAheadLog,
        fsync: bool = True,
    ):
        self.manifest_path = manifest_path
        self.manifest = manifest
        self.segments: List[LiveSegment] = list(segments)
        self.coding: CodingScheme = get_coding(manifest.coding)
        self._wal = wal
        self._fsync = fsync
        self._delta = DeltaSegment(manifest.mss, self.coding)
        self._delta_corpus = Corpus()
        self._tombstones: Set[int] = set()
        self._next_tid = manifest.next_tid
        self._mutations = 0
        #: Segments replaced/dropped by a compaction, kept open (their files
        #: may already be unlinked) until close() so in-flight readers that
        #: snapshotted segment_handles() finish on the old epoch.
        self._retired: List[LiveSegment] = []
        self._write_lock = threading.Lock()
        self.store = LiveTreeStore(self)
        self._postings_cache: Optional[ValueCache] = None
        self.probe_stats = ProbeStats()

    # ------------------------------------------------------------------
    # Creation and recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        mss: int,
        coding: CodingScheme | str,
        trees: Optional[Sequence[ParseTree]] = None,
        fsync: bool = True,
    ) -> "LiveIndex":
        """Create a live index at *path*, optionally seeded with base *trees*.

        *path* gets the ``.live.json`` suffix when missing.  Seed trees (with
        ascending tids, assigned sequentially when unset) become segment 0;
        without them the index starts empty and grows through
        :meth:`add_tree`.  Returns the index opened for use.
        """
        coding_name = coding if isinstance(coding, str) else coding.name
        scheme = get_coding(coding_name)  # validates the name before anything is written
        if mss < 1:
            raise ValueError(f"mss must be at least 1, got {mss}")
        if not path.endswith(LIVE_SUFFIX):
            path = path + LIVE_SUFFIX
        manifest_dir = os.path.dirname(os.path.abspath(path))
        os.makedirs(manifest_dir, exist_ok=True)

        entries: List[SegmentEntry] = []
        next_tid = 0
        next_segment_id = 0
        seed = list(trees) if trees is not None else []
        if seed:
            for position, tree in enumerate(seed):
                if tree.tid < 0:
                    tree.tid = position
            tids = [tree.tid for tree in seed]
            if tids != sorted(set(tids)):
                raise ValueError("seed trees must have strictly ascending unique tids")
            started = time.perf_counter()
            posting_lists, _ = accumulate_posting_lists(seed, mss, scheme)
            segment = _write_segment(
                path, 0, mss, scheme, tids, encode_posting_lists(posting_lists, scheme),
                partial(TreeStore.build, trees=seed), started,
            )
            segment.index.close()
            segment.store.close()
            entries.append(segment.entry)
            next_tid = tids[-1] + 1
            next_segment_id = 1

        manifest = LiveManifest(
            mss=mss,
            coding=coding_name,
            epoch=0,
            next_tid=next_tid,
            next_segment_id=next_segment_id,
            segments=entries,
        )
        manifest.save_atomic(path)
        WriteAheadLog.create(wal_file_path(path), epoch=0, fsync=fsync).close()
        return cls.open(path, fsync=fsync)

    @classmethod
    def open(cls, path: str, fsync: bool = True) -> "LiveIndex":
        """Open a live index, replaying the write-ahead log into the delta.

        A WAL whose epoch is older than the manifest's is the footprint of a
        crash between a compaction's manifest swap and its log truncation:
        every op in it is already folded into the segments, so it is
        discarded rather than replayed (replaying would duplicate them).
        """
        if not os.path.exists(path):
            raise FileNotFoundError(f"no such live index: {path}")
        manifest = LiveManifest.load(path)
        segments: List[LiveSegment] = []
        try:
            for entry in manifest.segments:
                index_path = manifest.resolve(path, entry.index_path)
                if not os.path.exists(index_path):
                    raise LiveIndexError(
                        f"segment {entry.segment_id} is missing its index file "
                        f"{index_path!r} (listed in {path!r})"
                    )
                try:
                    index = SubtreeIndex.open(index_path)
                except Exception as error:
                    raise LiveIndexError(
                        f"segment {entry.segment_id} is unreadable at "
                        f"{index_path!r}: {error}"
                    ) from error
                if index.mss != manifest.mss or index.coding.name != manifest.coding:
                    index.close()
                    raise LiveIndexError(
                        f"segment {entry.segment_id} at {index_path!r} was built with "
                        f"mss={index.mss} coding={index.coding.name}, but the manifest "
                        f"says mss={manifest.mss} coding={manifest.coding}"
                    )
                data_path = manifest.resolve(path, entry.data_path)
                if not os.path.exists(data_path):
                    index.close()
                    raise LiveIndexError(
                        f"segment {entry.segment_id} is missing its data file {data_path!r}"
                    )
                segments.append(LiveSegment(entry.segment_id, entry, index, TreeStore(data_path)))
        except Exception:
            for segment in segments:
                segment.index.close()
                segment.store.close()
            raise

        wal_path = wal_file_path(path)
        leftover = wal_path + ".next"  # side file of an aborted compaction
        if os.path.exists(leftover):
            os.remove(leftover)
        if os.path.exists(wal_path):
            wal, ops = WriteAheadLog.open(wal_path, fsync=fsync)
            if wal.epoch > manifest.epoch:
                wal.close()
                raise LiveIndexError(
                    f"write-ahead log epoch {wal.epoch} is newer than manifest "
                    f"epoch {manifest.epoch} in {path!r}"
                )
            if wal.epoch < manifest.epoch:  # stale: its ops are already compacted
                wal.close()
                wal = WriteAheadLog.create(wal_path, epoch=manifest.epoch, fsync=fsync)
                ops = []
        else:
            wal = WriteAheadLog.create(wal_path, epoch=manifest.epoch, fsync=fsync)
            ops = []

        live = cls(path, manifest, segments, wal, fsync=fsync)
        for op in ops:
            if op.op == "add":
                tree = ParseTree(parse_penn(op.tree), tid=op.tid)
                live._delta.add_tree(tree)
                live._delta_corpus.add(tree)
                live._next_tid = max(live._next_tid, op.tid + 1)
            else:
                live._tombstones.add(op.tid)
        return live

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_tree(self, tree: ParseTree | Node | str) -> int:
        """Add one tree; returns its assigned tid.

        Accepts a :class:`ParseTree`, a bare root :class:`Node` or a
        Penn-bracket string.  The op is fsynced to the WAL before it is
        applied, so an acknowledged add survives any crash.
        """
        if isinstance(tree, str):
            root = parse_penn(tree)
        elif isinstance(tree, Node):
            root = tree
        else:
            root = tree.root
        with self._write_lock:
            tid = self._next_tid
            added = ParseTree(root, tid=tid)
            with obs.trace("wal.append", op="add", tid=tid):
                self._wal.append_add(tid, to_penn(root))
            # Corpus before postings: any posting a concurrent reader can
            # see must name a tree the filtering phase can fetch.
            self._delta_corpus.add(added)
            self._delta.add_tree(added)
            self._next_tid = tid + 1
            self._bump()
        return tid

    def delete_tree(self, tid: int) -> None:
        """Delete the tree with identifier *tid* (a tombstone until compaction)."""
        with self._write_lock:
            if tid in self._tombstones or (
                tid not in self._delta.trees
                and not any(tid in segment.store for segment in self.segments)
            ):
                raise KeyError(f"no tree with tid {tid}")
            with obs.trace("wal.append", op="delete", tid=tid):
                self._wal.append_delete(tid)
            self._tombstones.add(tid)
            self._bump()

    def _bump(self) -> None:
        """Version bump + posting-cache invalidation after any mutation."""
        self._mutations += 1
        cache = self._postings_cache
        if cache is not None:
            clear = getattr(cache, "clear", None)
            if clear is not None:
                clear()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CompactionStats:
        """Fold the delta and tombstones into immutable segments.

        Delta trees are flushed into a fresh segment via the existing
        builder; base segments holding tombstoned trees are rewritten
        without them (dropped entirely when nothing survives).  The order of
        durability is: new segment files first, then the epoch-bumped
        manifest in one atomic rename, then the WAL swap, then old-file
        cleanup -- a crash at any point leaves a consistent index (see
        :meth:`open` for how a stale WAL is recognised).
        """
        if not obs.enabled():
            return self._compact_impl()
        with obs.trace("live.compact") as span:
            stats = self._compact_impl()
            span.set(
                epoch=stats.epoch,
                noop=stats.noop,
                flushed_trees=stats.flushed_trees,
                purged_tombstones=stats.purged_tombstones,
            )
            return stats

    def _compact_impl(self) -> CompactionStats:
        started = time.perf_counter()
        with self._write_lock:
            if (
                self._wal.op_count == 0
                and not self._tombstones
                and self._delta.tree_count == 0
            ):
                return CompactionStats(epoch=self.epoch, noop=True)

            new_epoch = self.epoch + 1
            next_segment_id = self.manifest.next_segment_id
            segments: List[LiveSegment] = []  # of the new epoch, ascending in tid
            replaced: List[LiveSegment] = []
            rewritten = 0
            dead = self._tombstones
            coding = self.coding

            # What is already indexed is merged, never indexed again: a
            # segment's stored lists and the delta's in-memory ones are
            # written back out without the tombstoned trees' postings.
            for segment in self.segments:
                tids = segment.store.tids()
                survivors = [tid for tid in tids if tid not in dead]
                if len(survivors) == len(tids):
                    segments.append(segment)
                    continue
                replaced.append(segment)
                if survivors:  # else the segment is dropped entirely
                    segments.append(_write_segment(
                        self.manifest_path, next_segment_id, self.mss, coding, survivors,
                        _surviving_lists(segment.index, dead),
                        partial(_copy_records, source=segment.store, tids=survivors),
                        time.perf_counter(),
                    ))
                    next_segment_id += 1
                    rewritten += 1

            flushed = [tree for tid, tree in self._delta.trees.items() if tid not in dead]
            if flushed:
                flush_started = time.perf_counter()
                posting_lists = {
                    key: [posting for posting in postings if posting.tid not in dead] if dead else postings
                    for key, postings in self._delta.items()
                }
                segments.append(_write_segment(
                    self.manifest_path, next_segment_id, self.mss, coding,
                    [tree.tid for tree in flushed], encode_posting_lists(posting_lists, coding),
                    partial(TreeStore.build, trees=flushed), flush_started,
                ))
                next_segment_id += 1

            manifest = LiveManifest(
                mss=self.mss,
                coding=self.coding.name,
                epoch=new_epoch,
                next_tid=self._next_tid,
                next_segment_id=next_segment_id,
                segments=[segment.entry for segment in segments],
            )

            # Durability order: fresh WAL to a side file, manifest swap
            # (the commit point), then the WAL rename.  A crash between the
            # last two leaves a stale-epoch WAL that open() discards.
            wal_path = wal_file_path(self.manifest_path)
            old_wal_bytes = self._wal.size_bytes()
            next_wal = WriteAheadLog.create(wal_path + ".next", new_epoch, fsync=self._fsync)
            manifest.save_atomic(self.manifest_path)
            os.replace(wal_path + ".next", wal_path)
            next_wal.path = wal_path
            self._wal.close()
            self._wal = next_wal

            # Swap the in-memory state over to the new epoch.  Replaced
            # segments are retired, not closed: a reader that snapshotted
            # segment_handles() before the swap keeps valid file handles
            # (the unlinked files stay readable until the handles close).
            self._retired.extend(replaced)
            self.segments = segments
            purged = len(self._tombstones)
            self._tombstones.clear()
            self._delta = DeltaSegment(self.mss, self.coding)
            self._delta_corpus = Corpus()
            self.manifest = manifest
            self._bump()

            for segment in replaced:  # after the swap: best-effort cleanup
                for stale in (segment.entry.index_path, segment.entry.data_path):
                    try:
                        os.remove(manifest.resolve(self.manifest_path, stale))
                    except OSError:
                        pass

            return CompactionStats(
                epoch=new_epoch,
                flushed_trees=len(flushed),
                purged_tombstones=purged,
                segments_rewritten=rewritten,
                segments_dropped=len(replaced) - rewritten,
                wal_bytes_truncated=old_wal_bytes,
                seconds=time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # The SubtreeIndex read API
    # ------------------------------------------------------------------
    _CACHE_MISS = object()

    def lookup(self, key: bytes | str | SubtreeKey | Node) -> List[object]:
        """The live posting list of *key*: segments + delta merged by tid,
        tombstoned trees filtered out.  Accepts the same key forms as
        :meth:`SubtreeIndex.lookup`."""
        self.probe_stats.gets += 1
        encoded = SubtreeIndex._normalise_key(key)
        cache = self._postings_cache
        if cache is not None:
            cached = cache.get(encoded, self._CACHE_MISS)
            if cached is not self._CACHE_MISS:
                self.probe_stats.cache_hits += 1
                return cached  # type: ignore[return-value]
        self.probe_stats.tree_descents += 1
        if obs.enabled():
            with obs.trace("live.merge", sources=len(self.segments) + 1) as span:
                merged = self._merged_lookup(encoded)
                span.set(postings=len(merged))
        else:
            merged = self._merged_lookup(encoded)
        if cache is not None:
            cache.put(encoded, merged)
        return merged

    def _merged_lookup(self, encoded: bytes) -> Sequence[object]:
        per_source = [segment.index.lookup(encoded) for segment in self.segments]
        per_source.append(self._delta.lookup(encoded))
        merged = ShardedIndex._merge_postings(per_source)
        if self._tombstones:
            dead = self._tombstones
            merged = [posting for posting in merged if posting.tid not in dead]
        return merged

    def has_key(self, key: bytes | str | SubtreeKey | Node) -> bool:
        """``True`` when *key* has at least one surviving posting."""
        encoded = SubtreeIndex._normalise_key(key)
        if self._tombstones:
            return bool(self.lookup(encoded))
        return self._delta.has_key(encoded) or any(
            segment.index.has_key(encoded) for segment in self.segments
        )

    def posting_list_length(self, key: bytes | str | SubtreeKey | Node) -> int:
        """Length of the surviving posting list of *key* (0 when absent).

        Tombstoned trees are only known posting by posting, so the merged
        lookup is needed while any exist; otherwise the stored counts add up.
        """
        if self._tombstones:
            return len(self.lookup(key))
        encoded = SubtreeIndex._normalise_key(key)
        return len(self._delta.lookup(encoded)) + sum(
            segment.index.posting_list_length(encoded) for segment in self.segments
        )

    def items(self) -> Iterator[Tuple[bytes, List[object]]]:
        """Yield ``(key bytes, merged posting list)`` in global key order.

        Tombstoned postings are filtered; keys left with no postings are
        skipped -- the stream is exactly what a fresh rebuild would store.
        """
        streams = [segment.index.items() for segment in self.segments]
        streams.append(self._delta.items())
        merged = heapq.merge(*streams, key=lambda item: item[0])
        dead = self._tombstones
        for key, group in groupby(merged, key=lambda item: item[0]):
            postings = ShardedIndex._merge_postings([plist for _, plist in group])
            if dead:
                postings = [posting for posting in postings if posting.tid not in dead]
            if postings:
                yield key, postings

    def keys(self) -> Iterator[SubtreeKey]:
        """Yield every surviving distinct key as a parsed :class:`SubtreeKey`."""
        for key, _ in self.items():
            yield decode_key(key)

    # ------------------------------------------------------------------
    # Probe accounting and the read-through posting cache
    # ------------------------------------------------------------------
    def reset_probe_stats(self) -> ProbeStats:
        """Zero the lookup counters (segments' included); returns the snapshot."""
        snapshot = self.probe_stats.snapshot()
        self.probe_stats.reset()
        for segment in self.segments:
            segment.index.reset_probe_stats()
        return snapshot

    def attach_postings_cache(self, cache: Optional[ValueCache]) -> None:
        """Install a read-through cache of merged, tombstone-filtered lists.

        Unlike the immutable indexes, the live index *owns* invalidation:
        every mutation and compaction clears the attached cache, so stale
        postings can never be served.
        """
        self._postings_cache = cache

    @property
    def postings_cache(self) -> Optional[ValueCache]:
        """The currently attached posting cache, if any."""
        return self._postings_cache

    # ------------------------------------------------------------------
    # Fan-out support
    # ------------------------------------------------------------------
    def segment_handles(self) -> List[object]:
        """Per-source handles (``.index`` / ``.store``) for fan-out execution.

        Base segments plus, when non-empty, the delta.  All sources hold
        disjoint tids, so per-source join results merge exactly like shard
        results -- the caller filters tombstoned tids from the merged
        matches (see :func:`repro.exec.fanout.merge_shard_results`).
        """
        handles: List[object] = list(self.segments)
        if self._delta.tree_count:
            handles.append(_DeltaHandle(index=self._delta, store=self._delta_corpus))
        return handles

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> Tuple[int, int]:
        """``(epoch, mutation counter)``: changes on every add/delete/compact."""
        return (self.manifest.epoch, self._mutations)

    @property
    def epoch(self) -> int:
        """Manifest generation; bumped by every compaction."""
        return self.manifest.epoch

    @property
    def mss(self) -> int:
        """Maximum subtree size every segment (and the delta) indexes."""
        return self.manifest.mss

    @property
    def tree_count(self) -> int:
        """Number of live (non-tombstoned) trees."""
        return (
            sum(segment.entry.tree_count for segment in self.segments)
            + self._delta.tree_count
            - len(self._tombstones)
        )

    @property
    def key_count(self) -> int:
        """Sum of per-source distinct-key counts (>= the global distinct count)."""
        return sum(s.entry.key_count for s in self.segments) + self._delta.key_count

    @property
    def posting_count(self) -> int:
        """Total stored postings, tombstoned ones included until compaction."""
        return sum(s.entry.posting_count for s in self.segments) + self._delta.posting_count

    @property
    def segment_count(self) -> int:
        """Number of immutable base segments."""
        return len(self.segments)

    @property
    def delta(self) -> DeltaSegment:
        """The in-memory delta segment (read-only access)."""
        return self._delta

    @property
    def tombstones(self) -> frozenset:
        """The deleted tids awaiting compaction."""
        return frozenset(self._tombstones)

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log (for size/op introspection)."""
        return self._wal

    @property
    def metadata(self) -> IndexMetadata:
        """Aggregate metadata in the shape SubtreeIndex consumers expect."""
        return IndexMetadata(
            mss=self.mss,
            coding=self.coding.name,
            tree_count=self.tree_count,
            key_count=self.key_count,
            posting_count=self.posting_count,
            build_seconds=0.0,
        )

    def size_bytes(self) -> int:
        """Total size of the segment index files on disk."""
        return sum(segment.index.size_bytes() for segment in self.segments)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush every segment (the WAL is fsynced per append)."""
        for segment in self.segments:
            segment.index.flush()
            segment.store.flush()

    def close(self) -> None:
        """Close every segment (retired ones included), the WAL, and drop
        the posting cache."""
        if self._postings_cache is not None:
            clear = getattr(self._postings_cache, "clear", None)
            if clear is not None:
                clear()
            self._postings_cache = None
        for segment in self.segments + self._retired:
            segment.index.close()
            segment.store.close()
        self._retired.clear()
        self._wal.close()

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _write_segment(
    manifest_path: str,
    segment_id: int,
    mss: int,
    coding: CodingScheme,
    tids: Sequence[int],
    encoded: Iterable[Tuple[bytes, bytes]],
    write_store: Callable[[str], TreeStore],
    started: float,
) -> LiveSegment:
    """Write one immutable segment -- index + data file over trees *tids* -- and open it.

    *encoded* is what :meth:`SubtreeIndex.write_posting_lists` takes;
    *write_store* writes the data file at the path it is given.  Build times
    count from *started*.
    """
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    index_name, data_name = segment_file_names(manifest_path, segment_id)
    index_path = os.path.join(manifest_dir, index_name)
    if os.path.exists(index_path):  # ids are never reused; stale leftovers only
        os.remove(index_path)
    index = SubtreeIndex.write_posting_lists(index_path, mss, coding, len(tids), encoded, started)
    store = write_store(os.path.join(manifest_dir, data_name))
    entry = SegmentEntry(
        segment_id=segment_id,
        index_path=index_name,
        data_path=data_name,
        tree_count=index.metadata.tree_count,
        key_count=index.metadata.key_count,
        posting_count=index.metadata.posting_count,
        build_seconds=time.perf_counter() - started,
        min_tid=tids[0],
        max_tid=tids[-1],
    )
    return LiveSegment(segment_id, entry, index, store)


def _surviving_lists(index: SubtreeIndex, dead: Set[int]) -> Iterator[Tuple[bytes, bytes]]:
    """*index*'s stored lists without the postings of the trees in *dead*.

    A list no dead tree appears in is passed on as the bytes it is stored
    as; the others are filtered column-wise and re-encoded, and a key whose
    every posting is dropped disappears.
    """
    for key, raw in index.raw_items():
        postings = index.coding.decode_postings(raw)
        surviving = postings.without_tids(dead)
        if surviving is postings:
            yield key, raw
        elif surviving:
            yield key, index.coding.encode_postings(surviving)


def _copy_records(path: str, source: TreeStore, tids: Sequence[int]) -> TreeStore:
    """A data file at *path* holding *source*'s records of *tids*, copied unparsed."""
    store = TreeStore.build(path, ())
    for tid in tids:
        store.append_record(tid, source.record(tid))
    store.flush()
    return store


def open_live(path: str, fsync: bool = True) -> LiveIndex:
    """Open *path* as a live index (the dispatch target of ``SubtreeIndex.open``)."""
    if not is_live_manifest(path):
        raise LiveIndexError(f"{path!r} is not a live-index manifest")
    return LiveIndex.open(path, fsync=fsync)
