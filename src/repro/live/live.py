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
* an explicit :meth:`compact`: one loop writes each source that changed --
  the delta, a segment holding tombstones -- as a fresh immutable segment
  without its dead trees (dead rows cut from bodies, records copied, no tree
  touched), and the epoch-stamped manifest is committed before the WAL is
  swapped for an empty one.

Reads are the :class:`~repro.core.segments.SegmentSet` read API, written
once for sharded and live indexes: a key's posting list is the column-wise
concatenation of the per-segment lists and the delta's, each source's
tombstoned trees cut from *its* list first (only a source whose tid range
holds a dead tid pays for that).  Tids are assigned monotonically and never
reused, so segment and delta posting lists stay disjoint and tid-ascending
-- merged results are byte-identical to a fresh rebuild over the surviving
corpus, which ``tests/live/`` asserts over the full WH + FB workloads for
all three codings.  Each segment is a part of a read and the delta one
more (:class:`~repro.core.segments.Part`), keyed by a *lineage* that a
compaction keeps when it flushes the delta or rewrites a segment, so what is
cached of a part -- a list, a query's result -- outlives every write but an
add to the delta: a delete is cut from it when it is served.

Mutations take a writer lock (one writer at a time); readers are never
blocked and never crash.  What a reader sees -- the segments, the delta and
each source's dead tids -- is one snapshot that every mutation and every
compaction replaces with a single rebind, so a list is never assembled from
two generations of sources (a compaction's new segment *and* the delta it
was flushed from, say).  Between compactions a source only grows: the delta
gains trees, a tombstone set gains tids (in place -- a delete does not copy
the tombstones before it), a delta list gains rows in place (the columns
a reader holds are its own).  A posting of an added tree always
names a fetchable tree, and segments replaced by a compaction are retired
-- kept open until no snapshot reaches them -- so in-flight queries finish
on the old epoch's files.  A query that *overlaps* a mutation may
observe it partially (an added tree on some keys, not yet on others; a
deleted tree still in the lists it read, which the filter phase then finds
gone and counts as no match); what it computed is cached with its part's
tag and removal count as it started, never served once that tag is gone,
and cut by every removal after that count.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.coding.base import CodingScheme, encoded_lists, get_coding
from repro.core.index import accumulate_posting_lists, encode_posting_lists, numbered
from repro.core.manifest import (
    LIVE_SUFFIX, Manifest, ManifestError, is_manifest, wal_file_path,
)
from repro.core.segments import Lineage, SegmentSet, Snapshot, Source, open_sources, write_segment
from repro.live.delta import DeltaSegment
from repro.live.wal import WriteAheadLog
from repro.trees.node import Node, ParseTree
from repro.trees.penn import scan_penn, to_penn


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


class LiveIndex(SegmentSet):
    """A mutable subtree index: base segments + delta + tombstones + WAL."""

    flavor = "live"
    _delta = True

    def __init__(
        self,
        manifest_path: str,
        manifest: Manifest,
        segments: Sequence[Source],
        wal: WriteAheadLog,
        fsync: bool = True,
    ):
        #: Ids of the lineages of this object's parts, in the order made.
        self._lineage_keys = itertools.count()
        segments = [
            segment._replace(lineage=Lineage(next(self._lineage_keys), segment.entry.tree_count, []))
            for segment in segments
        ]
        super().__init__(manifest_path, manifest, [*segments, self._new_delta(manifest)], (manifest.epoch, 0))
        self._wal = wal
        self._fsync = fsync
        self._next_tid = manifest.next_tid
        self._mutations = 0
        self._adds = 0
        self._write_lock = threading.Lock()

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

        manifest = Manifest(mss=mss, coding=coding_name)  # epoch 0, no segment
        seed = list(trees) if trees is not None else []
        if seed:
            for position, tree in enumerate(seed):
                if tree.tid < 0:
                    tree.tid = position
            tids = [tree.tid for tree in seed]
            if tids != sorted(set(tids)):
                raise ValueError("seed trees must have strictly ascending unique tids")
            started = time.perf_counter()
            lists, _ = accumulate_posting_lists(numbered(seed), mss, scheme)
            records = ((tree.tid, to_penn(tree.root).encode("utf-8")) for tree in seed)
            segment = write_segment(
                path, 0, mss, scheme, encode_posting_lists(lists), records, started, fsync=fsync
            )
            segment.close()
            manifest.segments.append(segment.entry)
            manifest.next_tid, manifest.next_segment_id = tids[-1] + 1, 1

        # The log first: the commit's directory fsync then covers its name too.
        WriteAheadLog.create(wal_file_path(path), epoch=0, fsync=fsync).close()
        manifest.commit(path)
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
        manifest = Manifest.load(path) if is_manifest(path) else None
        if manifest is None or manifest.partitioner is not None:  # a plain or a sharded index
            raise ManifestError(f"{path!r} is not a live index (build one with 'build --live')")
        segments = open_sources(path, manifest)

        wal_path = wal_file_path(path)
        leftover = wal_path + ".next"  # side file of an aborted compaction
        if os.path.exists(leftover):
            os.remove(leftover)
        if os.path.exists(wal_path):
            wal, ops = WriteAheadLog.open(wal_path, fsync=fsync)
            if wal.epoch > manifest.epoch:
                wal.close()
                raise ManifestError(
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
        sources = live.snapshot.sources
        for op in ops:
            if op.op == "add":  # the record is scanned again: an old log's bare "X" is "(X)"
                record, numbering = scan_penn(op.tree)
                live.delta.add_tree(op.tid, record.encode("utf-8"), numbering)
                live._next_tid = max(live._next_tid, op.tid + 1)
            else:
                position = live.holder(sources, op.tid)
                if position is not None:
                    sources = _bury(sources, position, op.tid)
        live.snapshot = Snapshot.of(live.version, sources, delta=True)
        return live

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_tree(self, tree: ParseTree | Node | str) -> int:
        """Add one tree; returns its assigned tid.

        Accepts a Penn-bracket string, a :class:`ParseTree` or a bare root
        :class:`Node`; a tree of nodes is first rendered by :func:`to_penn`,
        so one it refuses is refused before anything is written.  The text is
        read once (:func:`scan_penn`): its record is logged and its numbering
        indexed, and no node is built.  The op is fsynced to the WAL before it
        is applied, so an acknowledged add survives any crash.
        """
        if not isinstance(tree, str):
            tree = to_penn(tree if isinstance(tree, Node) else tree.root)
        record, numbering = scan_penn(tree)
        with self._write_lock:
            tid = self._next_tid
            with obs.trace("wal.append", op="add", tid=tid):
                self._wal.append_add(tid, record)
            self.delta.add_tree(tid, record.encode("utf-8"), numbering)
            self._next_tid = tid + 1
            self._adds += 1
            self._publish(self.snapshot.sources)
        return tid

    def delete_tree(self, tid: int) -> None:
        """Delete the tree with identifier *tid* (a tombstone until compaction)."""
        with self._write_lock:
            sources = self.snapshot.sources
            position = self.holder(sources, tid)
            if position is None:
                raise KeyError(f"no tree with tid {tid}")
            with obs.trace("wal.append", op="delete", tid=tid):
                self._wal.append_delete(tid)
            self._publish(_bury(sources, position, tid))

    def _publish(self, sources: Tuple[Source, ...]) -> None:
        """Make *sources* what readers see from now on, under a new version.

        One rebind: a reader holds the snapshot from before or the one from
        after, never a mix.  An add gives the delta's part a new tag; a
        delete moves no tag, only the count of its part's removals, which
        what is cached of the part is cut by when it is served.
        """
        self._mutations += 1
        self.snapshot = Snapshot.of((self.manifest.epoch, self._mutations), sources, delta=True)

    def _new_delta(self, manifest: Manifest) -> Source:
        """An empty delta, of a lineage of its own, as the last source of a snapshot."""
        delta = DeltaSegment(manifest.mss, get_coding(manifest.coding))
        return Source(delta, delta.trees, lineage=Lineage(next(self._lineage_keys), None, []))

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CompactionStats:
        """Fold the delta and tombstones into immutable segments.

        One pass over the snapshot's sources: each whose trees changed since
        its file was written -- a segment holding tombstoned trees, or the
        delta, which has no file yet -- is written out as a fresh segment
        without its dead trees (dropped when nothing survives); an untouched
        segment is kept.  No tree is indexed, parsed or rendered again.
        Durability order: new segment files fsynced, the epoch-bumped
        manifest renamed and its directory fsynced, the WAL swapped, old
        files removed -- a crash at any point leaves a consistent index (see
        :meth:`open` for a stale WAL); a commit that fails before its rename
        leaves it as it was.  Once the manifest is renamed the commit stands:
        a failure after it -- its directory fsync
        (:class:`~repro.core.manifest.UnsyncedCommit`), the WAL's rename or
        the fsync after that -- moves the index to the new epoch and then
        raises.  If the new WAL is not in place, every later write
        raises :class:`~repro.live.wal.WalError` until the index is reopened,
        so no op is acked into a log :meth:`open` would discard.
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
            sources = self.snapshot.sources
            delta = sources[-1]
            purged = len(self.tombstones)
            if self._wal.op_count == 0 and not purged and delta.index.tree_count == 0:
                return CompactionStats(epoch=self.epoch, noop=True)

            new_epoch = self.epoch + 1
            segment_id = self.manifest.next_segment_id
            segments: List[Source] = []  # of the new epoch, ascending in tid
            written: List[Source] = []
            # What is already indexed is merged, never indexed again: a
            # source's stored lists (the delta's held in memory) and its records
            # are written back out without its tombstoned trees, under the
            # lineage they came from -- what is cached of them stays served.
            for source in sources:
                if source.entry is not None and not source.dead:  # its file is what it holds
                    segments.append(source)
                    continue
                survivors = [tid for tid in source.store.tids() if tid not in source.dead]
                if survivors:  # else the source is dropped entirely
                    records = ((tid, source.store.record(tid)) for tid in survivors)
                    segment = write_segment(
                        self.manifest_path, segment_id, self.mss, self.coding,
                        encoded_lists(source.index, source.dead), records, time.perf_counter(),
                        fsync=self._fsync,
                    )
                    segment_id += 1
                    lineage = source.lineage
                    if lineage.trees is None:  # the delta: tagged, from now on, with all it was given
                        lineage = lineage._replace(trees=len(source.store))
                    segments.append(segment._replace(lineage=lineage))
                    written.append(segment)

            manifest = replace(
                self.manifest, epoch=new_epoch, next_tid=self._next_tid, next_segment_id=segment_id,
                segments=[segment.entry for segment in segments],
            )

            # A fresh WAL goes to a side file and is renamed over the old one
            # after the manifest swap (the commit point).  A crash between
            # the two leaves a stale-epoch WAL that open() discards.
            wal_path = wal_file_path(self.manifest_path)
            old_wal_bytes = self._wal.size_bytes()
            next_wal = WriteAheadLog.create(wal_path + ".next", new_epoch, fsync=self._fsync)
            renamed = False

            def swap_wal() -> None:  # runs once the manifest is renamed: the commit stands
                nonlocal renamed
                renamed = True
                next_wal.move_to(wal_path)

            failure: Optional[BaseException] = None
            try:
                manifest.commit(self.manifest_path, then=swap_wal)
            except BaseException as error:
                if not renamed:  # the old manifest and WAL stand
                    next_wal.close()
                    for segment in written:
                        segment.close()
                    raise
                failure = error  # the new epoch stands: raised once the index is in it
            self._wal.close()
            self._wal = next_wal
            if next_wal.path != wal_path:  # open() would discard what it logged
                next_wal.refuse(
                    f"the write-ahead log of epoch {new_epoch} could not be renamed into place "
                    f"({failure}); reopen the index to write again"
                )

            # Swap readers over to the new epoch in one rebind: new segments,
            # an empty delta and no tombstones become visible together.
            # Replaced segments are retired, not closed: a reader that took
            # its snapshot before the swap keeps valid file handles (the
            # unlinked files stay readable until the handles close).
            replaced = [segment for segment in sources[:-1] if segment.dead]
            self.manifest = manifest
            self._publish((*segments, self._new_delta(manifest)))  # every written segment keeps its lineage
            self._retire(replaced)
            if failure is not None:
                raise failure

            flushed = len(delta.store) - len(delta.dead)
            rewritten = len(written) - (flushed > 0)
            return CompactionStats(
                epoch=new_epoch,
                flushed_trees=flushed,
                purged_tombstones=purged,
                segments_rewritten=rewritten,
                segments_dropped=len(replaced) - rewritten,
                wal_bytes_truncated=old_wal_bytes,
                seconds=time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def delta(self) -> DeltaSegment:
        """The in-memory delta segment (read-only access)."""
        return self.snapshot.sources[-1].index

    @property
    def tombstones(self) -> FrozenSet[int]:
        """The deleted tids awaiting compaction."""
        return frozenset().union(*(source.dead for source in self.snapshot.sources))

    @property
    def tree_count(self) -> int:
        """Number of live (non-tombstoned) trees."""
        return len(self.store)

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log (for size/op introspection)."""
        return self._wal

    def stats_extras(self) -> Dict[str, object]:
        """The segments' rows plus the mutation-side state, under ``live``."""
        delta = self.delta
        return {
            **super().stats_extras(),
            "live": {
                "epoch": self.epoch,
                "delta_trees": delta.tree_count,
                "delta_keys": delta.key_count,
                "delta_postings": delta.posting_count,
                "tombstones": sum(len(source.dead) for source in self.snapshot.sources),
                "wal_ops": self._wal.op_count,
                "wal_bytes": os.path.getsize(self._wal.path),  # appends are flushed
                "invalidations": self._adds,
            },
        }

    def close(self) -> None:
        """Close every segment (retired ones included) and the WAL."""
        super().close()
        self._wal.close()


def _bury(sources: Tuple[Source, ...], position: int, tid: int) -> Tuple[Source, ...]:
    """*sources* with *tid* tombstoned in the source at *position*, and
    appended to its lineage's removals.

    A source's first tombstone gives it a set of its own; every later one is
    added to that set in place, so a delete costs the same whatever number
    went before it.  (Readers only ask the set ``in`` / ``isdisjoint`` /
    ``len``, one call each, and a tid that turns up early hides postings the
    next snapshot hides anyway.)
    """
    source = sources[position]
    source.lineage.removed.append(tid)
    if source.dead:
        source.dead.add(tid)
        return sources
    return (*sources[:position], source._replace(dead={tid}), *sources[position + 1:])

