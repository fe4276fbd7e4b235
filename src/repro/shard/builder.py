"""Parallel construction of a sharded index.

The build partitions the corpus by tree id, hands each shard's trees to a
worker and writes one ``SubtreeIndex`` + ``TreeStore`` pair per shard through
the one segment writer (:func:`repro.core.segments.write_segment`, which
fsyncs both files), then commits them as a live index commits a compaction:
:meth:`repro.core.manifest.Manifest.commit` puts the manifest (``hash``, the
partitioner, recorded in it) over the old one in a single rename and only then
removes the files the replaced manifest listed and the new one does not.  A
rebuild bumps the epoch and names its files after it, so until that rename
the old manifest's files stay as they were; a build that fails removes what
it wrote.
Workers are separate *processes*
(:class:`concurrent.futures.ProcessPoolExecutor`): subtree enumeration and
posting encoding are pure Python and CPU-bound, so threads would serialise
on the GIL.  Trees cross the process boundary as Penn-bracket records -- the
data file's own bytes -- which are compact and picklable: the worker writes
them to its data file as they are and scans them only for extraction.

``workers=1`` (or a single shard) builds inline in the calling process with
no pool at all, which is both the degenerate-correctness path the merge
tests rely on and the sensible default on single-core machines.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Tuple

from repro.coding.base import CodingScheme, get_coding
from repro.core.index import accumulate_posting_lists, encode_posting_lists
from repro.core.manifest import (
    MANIFEST_SUFFIX, Manifest, ManifestError, SegmentEntry, UnsyncedCommit, segment_file_names,
)
from repro.core.segments import HASH_PARTITIONER, hash_shard, write_segment
from repro.trees.node import ParseTree
from repro.trees.penn import scan_penn, to_penn

#: One shard's build order: (manifest path, shard id, build epoch, mss,
#: coding name, records), where records are ``(tid, UTF-8 Penn line)`` pairs.
_ShardJob = Tuple[str, int, int, int, str, List[Tuple[int, bytes]]]


def _build_shard(job: _ShardJob) -> SegmentEntry:
    """Write one shard and return its manifest entry.

    Each record is read once (:func:`scan_penn`), as a live index reads an
    added tree: its numbering is extracted, its bytes are written as they
    are.  Module-level (not a closure) so :mod:`pickle` can ship it to the
    pool.
    """
    manifest_path, shard_id, epoch, mss, coding_name, records = job
    started = time.perf_counter()
    coding = get_coding(coding_name)
    numbered = ((tid, scan_penn(record.decode("utf-8"))[1]) for tid, record in records)
    lists, _ = accumulate_posting_lists(numbered, mss, coding)
    shard = write_segment(
        manifest_path, shard_id, mss, coding, encode_posting_lists(lists), records, started,
        shard_epoch=epoch,
    )
    shard.close()
    return shard.entry


def default_worker_count(shard_count: int) -> int:
    """One worker per shard, capped at the machine's core count."""
    return max(1, min(shard_count, os.cpu_count() or 1))


def partition_corpus(trees: Iterable[ParseTree], shards: int) -> List[List[ParseTree]]:
    """Split *trees* into per-shard lists, dealt by :func:`hash_shard`.

    Trees arrive in corpus order and each shard receives its subset in that
    same order, so per-shard posting lists stay ascending in tid -- the
    invariant the query-time merge relies on.
    """
    per_shard: List[List[ParseTree]] = [[] for _ in range(shards)]
    for tree in trees:
        per_shard[hash_shard(tree.tid, shards)].append(tree)
    return per_shard


def build_sharded(
    trees: Iterable[ParseTree],
    mss: int,
    coding: CodingScheme | str,
    path: str,
    shards: int,
    workers: Optional[int] = None,
) -> str:
    """Build a sharded index at manifest *path*; returns the manifest path.

    *path* is the manifest file; :data:`MANIFEST_SUFFIX` is appended when
    missing so ``corpus.si`` becomes ``corpus.si.manifest.json``.  Shard
    files are written next to it.  *workers* defaults to one process per
    shard capped at the core count; ``workers=1`` builds inline.  Each tree
    goes to the shard :func:`~repro.core.segments.hash_shard` deals it to.
    """
    coding_name = coding if isinstance(coding, str) else coding.name
    if shards < 1:
        raise ValueError(f"shard count must be at least 1, got {shards}")
    if workers is None:
        workers = default_worker_count(shards)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if not path.endswith(MANIFEST_SUFFIX):
        path = path + MANIFEST_SUFFIX

    started = time.perf_counter()
    try:  # a rebuild names its files after the next epoch: none the current manifest names
        epoch = Manifest.load(path).epoch + 1
    except ManifestError:
        epoch = 0
    per_shard = partition_corpus(trees, shards)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    jobs: List[_ShardJob] = [
        (path, shard_id, epoch, mss, coding_name,
         [(tree.tid, to_penn(tree.root).encode("utf-8")) for tree in trees])
        for shard_id, trees in enumerate(per_shard)
    ]
    try:
        if workers == 1 or shards == 1:
            entries = [_build_shard(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                entries = list(pool.map(_build_shard, jobs))
        manifest = Manifest(
            mss=mss,
            coding=coding_name,
            epoch=epoch,
            next_tid=max((shard[-1].tid for shard in per_shard if shard), default=-1) + 1,
            next_segment_id=shards,
            segments=entries,
            partitioner=HASH_PARTITIONER,
            build_seconds=time.perf_counter() - started,
        )
        manifest.commit(path)
    except UnsyncedCommit:  # the new manifest is in place and names the new files
        raise
    except BaseException:
        # No manifest names what this build wrote: remove it, leave the current bundle.
        for shard_id in range(shards):
            for name in segment_file_names(path, shard_id, epoch):
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:
                    pass
        raise
    return path
