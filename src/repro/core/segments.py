"""The index: one read API over any number of tid-disjoint sources.

Every index is a *set of sources* -- complete
:class:`~repro.core.index.SubtreeIndex` files over disjoint tree ids, plus,
for a live index, an in-memory delta -- read as if they were one file.  A
plain index file is the set of one; a sharded build's shards and a live
index's segments are sets of several.  :class:`SegmentSet` writes that read
API once: a key's posting list is the column-wise merge of the sources'
lists (:func:`repro.coding.postings.merge_columns`; one source's list is
handed back as it is), so every consumer (``QueryExecutor``,
``QueryService``, the CLI) runs one join over one tid-ordered list whatever
the index is made of.  :meth:`SegmentSet.open` opens any index path as what
the file says it is (:mod:`repro.core.manifest`): a plain index file; a
manifest that records a partitioner, which a sharded build wrote, as a frozen
:class:`SegmentSet`; any other manifest as a
:class:`~repro.live.live.LiveIndex`, the subclass that adds what mutates --
the delta, tombstones, the write-ahead log and compaction.

What a reader sees is one :class:`Snapshot` -- the index version and the
sources, each with the tombstoned tids it holds -- which a mutable subclass
replaces with a single rebind per mutation.  *Which* sources make up the
index never changes under a reader: a read takes the snapshot once, so a
list is never assembled from two generations of sources (a compaction's new
segment and the delta it was flushed from, say).  Within a source the only
change is growth -- a delta gains trees, a tombstone set gains tids -- and a
reader that meets it merely answers as of a little later.

A snapshot is read in parts (:class:`Part`): a frozen set is one, a live
index has one per file and one for its delta.  A later part's tids all
exceed an earlier part's, so a list -- or a query's answer -- is the parts'
end to end.  What is cached of a part is served while its tag stands, which
only an add can move; the trees removed from it since are cut from what is
served (:meth:`Part.removed_since`).  The files a manifest names are written
by one function, :func:`write_segment`, and fsynced there.
"""

from __future__ import annotations

import heapq
import os
import struct
import time
import weakref
import zlib
from bisect import bisect_left
from contextlib import ExitStack
from dataclasses import asdict
from itertools import groupby
from operator import itemgetter
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from repro import obs
from repro.coding.base import CodingScheme, get_coding
from repro.coding.postings import PostingColumns, merge_columns
from repro.core.index import IndexMetadata, SubtreeIndex
from repro.core.keys import SubtreeKey
from repro.core.manifest import (
    Manifest,
    ManifestError,
    SegmentEntry,
    fsync_path,
    is_manifest,
    segment_file_names,
)
from repro.corpus.store import Corpus, TreeStore, data_file_path
from repro.storage.bptree import ProbeStats
from repro.trees.node import Node, ParseTree

#: ``(epoch, mutation counter)``; constant on an index that cannot change.
Version = Tuple[int, int]

#: The policy a sharded build records in its manifest: :func:`hash_shard`.
HASH_PARTITIONER = "hash"


def hash_shard(tid: int, shard_count: int) -> int:
    """The shard of *shard_count* a sharded build deals *tid* to: a crc32 of
    its 8-byte encoding, stable across processes and Python versions (unlike
    the builtin ``hash``), so a reader routes a tid to the one shard that
    holds it."""
    return zlib.crc32(struct.pack("<q", tid)) % shard_count


class Lineage(NamedTuple):
    """What a live index's cached lists and results of a part belong to: a
    delta and the segment a compaction flushes it to, or a segment and every
    rewrite of it.  Each holds the same trees less the ones removed since."""

    #: A runtime id, unique within its index: the cache key of its part.
    key: int
    #: The number of trees it was written from -- a segment's constant tag;
    #: ``None`` for a delta, tagged with the trees added to it so far.
    trees: Optional[int]
    #: Every tid removed from it, in removal order: its tombstones, and those
    #: a compaction purged when it rewrote the segment.  Only ever appended to.
    removed: List[int]


class Source(NamedTuple):
    """One readable part of a segment set: a shard, a base segment or a delta."""

    #: ``lookup`` (-> ``PostingColumns``) / ``items`` over canonical key
    #: bytes: a ``SubtreeIndex`` or a live index's delta.
    index: object
    #: The source's trees by tid: a data file, a delta's records, an
    #: in-memory ``Corpus``, or ``None`` for a plain index file without one.
    store: object
    #: Its manifest entry; ``None`` for a plain index file and a delta.
    entry: object = None
    #: Tombstoned tids this source holds, dropped from everything read.  A
    #: live index grows a source's set in place (a delete is one ``add``, not
    #: a copy of every tombstone before it); readers only test or count it.
    dead: AbstractSet[int] = frozenset()
    #: What its part's cache entries belong to, on a live index.
    lineage: Optional[Lineage] = None

    def alive(self, columns: PostingColumns) -> PostingColumns:
        """*columns* of this source less its tombstoned trees' postings."""
        return columns.without_tids(self.dead) if self.dead and columns else columns

    def postings(self, key: bytes) -> PostingColumns:
        """The source's surviving posting list of *key*."""
        return self.alive(self.index.lookup(key))

    def part(self) -> "Part":
        """This source of a live index as a part of its own, keyed by its
        lineage and tagged with what only an add changes: the trees its file
        was written from, or the trees added to the delta so far.  The
        removals it counts are those made before the snapshot was taken."""
        lineage = self.lineage
        tag = len(self.store) if lineage.trees is None else lineage.trees
        return Part(lineage.key, tag, (self,), lineage.removed, len(lineage.removed))

    def close(self) -> None:
        """Close the source's files: its index and its data file, if it has one."""
        self.index.close()
        if isinstance(self.store, TreeStore):  # not a Corpus, nor a missing data file
            self.store.close()


class Part(NamedTuple):
    """Sources read, joined and cached as one, under one tag."""

    #: What its cache entries are keyed by, the same in every snapshot it is
    #: in: a lineage's id, or a fixed name for a frozen set.
    key: Hashable
    #: Equal for two reads exactly when the sources held the same trees,
    #: removals aside.
    tag: Hashable
    sources: Tuple[Source, ...]
    #: The lineage's removed tids, in removal order (shared, append-only).
    removed: Sequence[int] = ()
    #: How many of them the snapshot counted: what a read of the part serves
    #: is cut by ``removed[:cut]``, and cached with that count.
    cut: int = 0

    def removed_since(self, cut: int) -> FrozenSet[int]:
        """The tids removed after the first *cut*, up to this read's count:
        what an entry cached at *cut* still holds and must not serve."""
        return frozenset(self.removed[cut:self.cut])


class Snapshot(NamedTuple):
    """What one read sees: rebound as a whole, its tuple never edited."""

    version: Version
    sources: Tuple[Source, ...]
    parts: Tuple[Part, ...]

    @classmethod
    def of(cls, version: Version, sources: Tuple[Source, ...], delta: bool = False) -> "Snapshot":
        """*sources* at *version*: one part tagged with *version*, or with a
        *delta* last, a part per source (:meth:`Source.part`)."""
        if not delta:
            return cls(version, sources, (Part("all", version, sources),))
        return cls(version, sources, tuple(source.part() for source in sources))


def open_sources(manifest_path: str, manifest: Manifest) -> Tuple[Source, ...]:
    """Open the index and data file of every entry of *manifest*.

    Raises :class:`~repro.core.manifest.ManifestError` naming the segment
    when a file is missing or unreadable or was built with other parameters
    than the manifest's; whatever was opened before is closed again.
    """
    sources: List[Source] = []
    with ExitStack() as undo:  # closes what was opened before an entry that fails
        for entry in manifest.segments:
            name = f"segment {entry.segment_id}"
            index_path = manifest.resolve(manifest_path, entry.index_path)
            data_path = manifest.resolve(manifest_path, entry.data_path)
            for kind, path in (("index", index_path), ("data", data_path)):
                if not os.path.exists(path):
                    raise ManifestError(
                        f"{name} is missing its {kind} file {path!r} (listed in {manifest_path!r})"
                    )
            try:
                index = SubtreeIndex.open(index_path)
                undo.callback(index.close)
                store = TreeStore(data_path)
                undo.callback(store.close)
            except Exception as failure:
                raise ManifestError(f"{name} is unreadable at {index_path!r}: {failure}") from failure
            if index.mss != manifest.mss or index.coding.name != manifest.coding:
                raise ManifestError(
                    f"{name} at {index_path!r} was built with mss={index.mss} "
                    f"coding={index.coding.name}, but the manifest says "
                    f"mss={manifest.mss} coding={manifest.coding}"
                )
            sources.append(Source(index, store, entry))
        undo.pop_all()
    return tuple(sources)


def write_segment(
    manifest_path: str,
    segment_id: int,
    mss: int,
    coding: CodingScheme,
    encoded: Iterable[Tuple[bytes, bytes]],
    records: Iterable[Tuple[int, bytes]],
    started: float,
    shard_epoch: Optional[int] = None,
    fsync: bool = True,
) -> Source:
    """Write segment *segment_id* beside *manifest_path* -- the one writer of
    every file a manifest names -- and return it opened, with its entry.

    *records* are its trees' ``(tid, data-file record)`` pairs in tid order,
    copied into the data file; *encoded* their ``(key, encoded list)`` stream
    in key order, for :meth:`SubtreeIndex.write_posting_lists`.  With *fsync*
    both files are on disk before this returns.  Build times count from
    *started*; a *shard_epoch* names the files as a shard of a sharded
    build at that epoch (:func:`segment_file_names`).
    """
    directory = os.path.dirname(os.path.abspath(manifest_path))
    index_name, data_name = segment_file_names(manifest_path, segment_id, shard_epoch)
    index_path, data_path = os.path.join(directory, index_name), os.path.join(directory, data_name)
    for stale in (index_path, data_path):  # a file left there is replaced, never appended to
        if os.path.exists(stale):
            os.remove(stale)
    store = TreeStore(data_path)
    tids = []
    for tid, record in records:
        store.append_record(tid, record)
        tids.append(tid)
    store.flush()
    index = SubtreeIndex.write_posting_lists(index_path, mss, coding, len(tids), encoded, started)
    if fsync:
        fsync_path(index_path)
        fsync_path(data_path)
    counts = index.metadata
    entry = SegmentEntry(
        segment_id, index_name, data_name, counts.tree_count, counts.key_count, counts.posting_count,
        build_seconds=time.perf_counter() - started,
        min_tid=tids[0] if tids else None, max_tid=tids[-1] if tids else None,  # a shard may get none
    )
    return Source(index, store, entry)


def _max_tid(source: Source) -> int:
    return source.entry.max_tid


def _close_retired(totals: ProbeStats, counters: ProbeStats, *closers: Callable[[], None]) -> None:
    """Fold a replaced source's probe *counters* into *totals*, then close its files."""
    totals += counters
    for close in closers:
        close()


class TreeGone(KeyError):
    """No source holds a live tree with this tid (any more).

    What :meth:`SegmentTreeStore.get` raises.  A reader that took the tid
    from a posting list may meet it legitimately -- the tree was deleted
    after the list was read -- and treats it as a tree that no longer
    matches; a plain ``KeyError`` from a data file stays an error.
    """


class SegmentTreeStore:
    """Tid-routed read view over the sources' trees.

    Presents the parts of :class:`~repro.corpus.store.TreeStore` the
    filtering phase and the CLI use.  Tombstoned trees are gone: ``get``
    raises :class:`TreeGone` (a ``KeyError``) for them and iteration skips
    them.  Every call reads the index's current snapshot; a tree that is
    alive stays fetchable across a compaction (same tid, new segment, and
    the replaced segment's file stays open while a ``get`` holds it).
    """

    def __init__(self, segments: "SegmentSet"):
        self._segments = segments

    def _source_of(self, tid: int) -> Optional[Source]:
        sources = self._segments.snapshot.sources
        position = self._segments.holder(sources, tid)
        return None if position is None else sources[position]

    def get(self, tid: int) -> ParseTree:
        source = self._source_of(tid)  # held until the read is done: a replaced file stays open
        if source is None:
            raise TreeGone(f"no tree with tid {tid}")
        return source.store.get(tid)

    def __contains__(self, tid: int) -> bool:
        return self._source_of(tid) is not None

    def __len__(self) -> int:
        return sum(len(source.store) - len(source.dead) for source in self._segments.snapshot.sources)

    def tids(self) -> List[int]:
        return sorted(
            tid
            for source in self._segments.snapshot.sources
            for tid in source.store.tids()
            if tid not in source.dead
        )

    def __iter__(self) -> Iterator[ParseTree]:
        for tid in self.tids():
            yield self.get(tid)


class SegmentSet:
    """The index read API over a :class:`Snapshot` of sources.

    Used as it is, this is a *frozen* index: a plain index file, or the
    segments a sharded build wrote -- nothing adds to or deletes from either.
    """

    #: Whether the last source is an in-memory delta, read as a part of its own.
    _delta = False

    def __init__(
        self, manifest_path: Optional[str], manifest: Optional[Manifest], sources: Sequence[Source],
        version: Version = (0, 0),
    ):
        self.manifest_path = manifest_path
        #: The catalogue of a sharded or live bundle; ``None`` for a plain
        #: index file, whose one source describes itself.
        self.manifest = manifest
        described = manifest if manifest is not None else sources[0].index.metadata
        self.coding: CodingScheme = get_coding(described.coding)
        #: Maximum subtree size every source indexes.
        self.mss: int = described.mss
        #: The shards a tid is dealt over by :func:`hash_shard`; 0 when no
        #: sharded build dealt them so (a manifest naming any other policy).
        hashed = manifest is not None and manifest.partitioner == HASH_PARTITIONER
        self._hashed = len(manifest.segments) if hashed else 0
        #: What readers see.  Rebound as a whole by a subclass that mutates.
        self.snapshot = Snapshot.of(version, tuple(sources), self._delta)
        #: A finalizer per source a mutation replaced: its files stay open
        #: (they may already be unlinked) while a snapshot can reach it, so a
        #: reader holding that snapshot finishes on them; once none can, its
        #: probe counters go into ``_closed_probes`` and its files are closed
        #: (:meth:`_retire`).
        self._retired: List[weakref.finalize] = []
        self._closed_probes = ProbeStats()
        #: The trees by tid: a plain file's own store (``None`` without a data
        #: file), else a view routed over the sources'.
        self.store = SegmentTreeStore(self) if manifest is not None else sources[0].store
        #: Counters of part lookups through this object: ``gets`` counts the
        #: lists merged from the sources, whose own descents and node decodes
        #: :meth:`probe_snapshot` adds up.
        self.probe_stats = ProbeStats()

    @classmethod
    def open(cls, path: str) -> "SegmentSet":
        """Open the index *path* names, as what the file says it is: a plain
        index file (with the data file beside it, if there is one), a
        manifest recording a partitioner (frozen), or a live index.

        Raises ``FileNotFoundError`` for a missing path, creating nothing,
        and :class:`~repro.core.manifest.ManifestError` -- naming the field
        or the segment -- when a manifest is damaged or a file it lists is
        missing, unreadable or built with other parameters.
        """
        if not is_manifest(path):
            index = SubtreeIndex.open(path)
            data_path = data_file_path(path)
            return cls.of(index, TreeStore(data_path) if os.path.exists(data_path) else None)
        manifest = Manifest.load(path)
        if manifest.partitioner is None:
            from repro.live.live import LiveIndex  # local: live builds on core

            return LiveIndex.open(path)
        return cls(path, manifest, open_sources(path, manifest))

    @classmethod
    def of(cls, index: SubtreeIndex, store: Optional[TreeStore | Corpus] = None) -> "SegmentSet":
        """A plain index: the set of one open index file over the trees in
        *store* -- its data file, an in-memory ``Corpus``, or ``None``, when a
        filter-coded query cannot run its filtering phase.  :meth:`close`
        closes *index* and a data file."""
        return cls(None, None, [Source(index, store)])

    # ------------------------------------------------------------------
    # Lookup (merged across sources)
    # ------------------------------------------------------------------
    def lookup(self, key: bytes | str | SubtreeKey | Node) -> PostingColumns:
        """The posting list of *key*: its parts' lists (:meth:`part_lookup`)
        end to end.  Accepts the same key forms as :meth:`SubtreeIndex.lookup`."""
        encoded = SubtreeIndex._normalise_key(key)
        return merge_columns([self.part_lookup(part, encoded) for part in self.snapshot.parts])

    def part_lookup(self, part: Part, encoded: bytes) -> PostingColumns:
        """*part*'s list of the canonical key *encoded*: its sources' lists,
        less their tombstoned trees' postings, merged by tid."""
        self.probe_stats.gets += 1
        with obs.trace("merge", sources=len(part.sources)) as span:
            merged = merge_columns([source.postings(encoded) for source in part.sources])
            span.set(postings=len(merged))
        return merged

    def items(self) -> Iterator[Tuple[bytes, PostingColumns]]:
        """Yield ``(key bytes, merged posting list)`` in global key order.

        A key held by several sources appears once and a key whose every
        posting is tombstoned not at all -- the stream is exactly what one
        index built over the surviving trees would store.
        """
        sources = self.snapshot.sources

        def stream(position: int, source: Source) -> Iterator[Tuple[bytes, int, PostingColumns]]:
            for key, postings in source.index.items():
                yield key, position, source.alive(postings)

        by_key = heapq.merge(*(stream(position, source) for position, source in enumerate(sources)))
        for key, group in groupby(by_key, key=itemgetter(0)):
            merged = merge_columns([columns for _, _, columns in group])
            if merged:
                yield key, merged

    # ------------------------------------------------------------------
    # Probe accounting
    # ------------------------------------------------------------------
    @property
    def flavor(self) -> str:
        """What ``/healthz``, ``/stats`` and the ``query`` span call this kind of index."""
        return "plain" if self.manifest is None else "sharded"

    @property
    def segments(self) -> Tuple[Source, ...]:
        """The sources that are files (``.index`` / ``.store``): every one of
        a frozen set; a live index leaves out its delta."""
        sources = self.snapshot.sources
        return sources[:-1] if self._delta else sources

    @property
    def segment_count(self) -> int:
        """Number of those."""
        return len(self.segments)

    def reset_probe_stats(self) -> ProbeStats:
        """Zero the lookup counters (the sources' included); returns the snapshot."""
        before = self.probe_stats.snapshot()
        self.probe_stats.reset()
        self._closed_probes.reset()
        for source in self.segments:
            source.index.reset_probe_stats()
        for counters in self._retired_probes():
            counters.reset()
        return before

    def probe_snapshot(self) -> ProbeStats:
        """The lookup counters as the I/O proxy: the part lookups of this
        object as ``gets``, B+Tree descents and node decodes summed over
        every source read since the last reset (replaced ones included,
        closed or not)."""
        total = ProbeStats(self.probe_stats.gets)
        for counters in [
            *(source.index.probe_stats for source in self.segments), *self._retired_probes(), self._closed_probes,
        ]:
            total.tree_descents += counters.tree_descents
            total.node_decodes += counters.node_decodes
        return total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> Version:
        """The version of the current snapshot: it changes with every
        mutation, so whatever was read at one stays valid while it stands."""
        return self.snapshot.version

    @property
    def epoch(self) -> int:
        """Manifest generation; bumped by every compaction of a live index."""
        return self.manifest.epoch

    def locate(self, tid: int, sources: Optional[Tuple[Source, ...]] = None) -> Optional[int]:
        """Position among *sources* (default: the snapshot's) of the one that
        holds *tid* if any does, when that follows from the tid alone: a
        sharded build deals tids by :func:`hash_shard`, and a live index's files
        hold ascending tid ranges (bisected by their ``max_tid``) with the
        delta past the last.  ``None`` means ask every source."""
        if self._hashed:
            return hash_shard(tid, self._hashed)
        if not self._delta:
            return None
        sources = self.snapshot.sources if sources is None else sources
        return bisect_left(sources, tid, 0, len(sources) - 1, key=_max_tid)

    def holder(self, sources: Tuple[Source, ...], tid: int) -> Optional[int]:
        """Position among *sources* of the one holding a live tree *tid*;
        ``None`` without one (never held, or tombstoned)."""
        located = self.locate(tid, sources)
        for position in range(len(sources)) if located is None else (located,):
            source = sources[position]
            if tid in source.store:
                return None if tid in source.dead else position
        return None

    def stats_extras(self) -> Dict[str, object]:
        """What a segmented index adds to a service's ``/stats`` block and to
        ``repro stats``: one row per segment under ``sources`` -- its
        manifest entry, its size and its share of the probe counters.  A
        plain index file adds nothing."""
        if self.manifest is None:
            return {}
        return {
            "sources": [
                {
                    **asdict(source.entry),
                    "size_bytes": source.index.size_bytes(),
                    "probe_gets": source.index.probe_stats.gets,
                    "tree_descents": source.index.probe_stats.tree_descents,
                    "node_decodes": source.index.probe_stats.node_decodes,
                }
                for source in self.segments
            ],
        }

    @property
    def metadata(self) -> IndexMetadata:
        """A plain file's own metadata; else the sources' added up, so a key
        held by k sources counts k times and tombstoned postings stay in
        until a compaction drops them."""
        sources = self.snapshot.sources
        if self.manifest is None:
            return sources[0].index.metadata
        return IndexMetadata(
            mss=self.manifest.mss,
            coding=self.manifest.coding,
            tree_count=len(self.store),
            key_count=sum(source.index.key_count for source in sources),
            posting_count=sum(source.index.posting_count for source in sources),
            build_seconds=self.manifest.build_seconds,
        )

    @property
    def key_count(self) -> int:
        """Sum of per-source distinct-key counts (>= the global distinct count)."""
        return self.metadata.key_count

    @property
    def posting_count(self) -> int:
        """Total stored postings, tombstoned ones included."""
        return self.metadata.posting_count

    def size_bytes(self) -> int:
        """Total size of the sources' index files on disk."""
        return sum(source.index.size_bytes() for source in self.segments)

    def page_census(self) -> Dict[str, Dict[str, int]]:
        """The page censuses of those files, added up."""
        total: Dict[str, Dict[str, int]] = {}
        for source in self.segments:
            for name, row in source.index.page_census().items():
                seen = total.get(name, {})
                total[name] = {field: seen.get(field, 0) + value for field, value in row.items()}
        return total

    # ------------------------------------------------------------------
    def _retire(self, sources: Sequence[Source]) -> None:
        """Close each of *sources*, which a mutation replaced, once no
        snapshot can reach it -- when its index is collected -- folding its
        probe counters into the set's totals first, so
        :meth:`probe_snapshot` never goes down."""
        self._retired = [finalizer for finalizer in self._retired if finalizer.alive]
        for source in sources:
            self._retired.append(weakref.finalize(
                source.index, _close_retired, self._closed_probes, source.index.probe_stats,
                source.index.closer(), source.store.close,
            ))

    def _retired_probes(self) -> List[ProbeStats]:
        """The probe counters of the replaced sources not closed yet."""
        return [held[2][1] for held in map(weakref.finalize.peek, self._retired) if held is not None]

    def close(self) -> None:
        """Close every source's files (replaced ones included)."""
        for source in self.segments:
            source.close()
        for finalizer in self._retired:
            finalizer()  # closes what a snapshot still reaches; a no-op once it ran
        self._retired.clear()

    def __enter__(self) -> "SegmentSet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
