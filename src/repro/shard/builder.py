"""Parallel construction of a sharded index.

The build partitions the corpus by tree id, hands each shard's trees to a
worker and writes one ``SubtreeIndex`` + ``TreeStore`` pair per shard, then
commits them as a live index commits a compaction: the manifest
(:mod:`repro.core.manifest`, the partitioner recorded in it) goes over the
old one in a single rename, and only then are files the replaced manifest
listed and the new one does not removed.  Workers are separate *processes*
(:class:`concurrent.futures.ProcessPoolExecutor`): subtree enumeration and
posting encoding are pure Python and CPU-bound, so threads would serialise
on the GIL.  Trees cross the process boundary as Penn-bracket text -- the
corpus's own serialisation -- which is compact, picklable and reparsed by
the worker into interval-numbered trees identical to the parent's.

``workers=1`` (or a single shard) builds inline in the calling process with
no pool at all, which is both the degenerate-correctness path the merge
tests rely on and the sensible default on single-core machines.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.coding.base import CodingScheme
from repro.core.index import SubtreeIndex
from repro.core.manifest import (
    MANIFEST_SUFFIX,
    Manifest,
    ManifestError,
    SegmentEntry,
    segment_file_names,
)
from repro.corpus.store import TreeStore, data_file_path
from repro.shard.partitioner import Partitioner, get_partitioner
from repro.trees.node import ParseTree
from repro.trees.penn import parse_penn, to_penn

#: One shard's build order for a *worker process*: (shard_id, index path,
#: mss, coding name, records), where records are ``(tid, penn line)`` pairs.
_ShardJob = Tuple[int, str, int, str, List[Tuple[int, str]]]


def _build_shard_trees(
    shard_id: int,
    index_path: str,
    mss: int,
    coding_name: str,
    trees: Sequence[ParseTree],
) -> Dict[str, object]:
    """Build one shard's index and data file over already-parsed trees.

    Returns the counters the manifest records for this shard.
    """
    started = time.perf_counter()
    index = SubtreeIndex.build(trees, mss=mss, coding=coding_name, path=index_path)
    TreeStore.build(data_file_path(index_path), trees).close()
    counters = {
        "segment_id": shard_id,
        "tree_count": index.metadata.tree_count,
        "key_count": index.metadata.key_count,
        "posting_count": index.metadata.posting_count,
        "build_seconds": time.perf_counter() - started,
        "min_tid": trees[0].tid if trees else None,
        "max_tid": trees[-1].tid if trees else None,
    }
    index.close()
    return counters


def _build_shard(job: _ShardJob) -> Dict[str, object]:
    """Worker-process entry point: reparse the shipped Penn lines and build.

    Module-level (not a closure) so :mod:`pickle` can ship it to the pool.
    The inline path calls :func:`_build_shard_trees` directly and never pays
    this serialise/reparse round trip.
    """
    shard_id, index_path, mss, coding_name, records = job
    trees = [ParseTree(parse_penn(text), tid=tid) for tid, text in records]
    return _build_shard_trees(shard_id, index_path, mss, coding_name, trees)


def default_worker_count(shard_count: int) -> int:
    """One worker per shard, capped at the machine's core count."""
    return max(1, min(shard_count, os.cpu_count() or 1))


def partition_corpus(
    trees: Iterable[ParseTree],
    partitioner: Partitioner,
) -> List[List[ParseTree]]:
    """Split *trees* into per-shard lists.

    Trees arrive in corpus order and each shard receives its subset in that
    same order, so per-shard posting lists stay ascending in tid -- the
    invariant the query-time merge relies on.
    """
    per_shard: List[List[ParseTree]] = [[] for _ in range(partitioner.shard_count)]
    for tree in trees:
        per_shard[partitioner.assign(tree.tid)].append(tree)
    return per_shard


def build_sharded(
    trees: Iterable[ParseTree],
    mss: int,
    coding: CodingScheme | str,
    path: str,
    shards: int,
    workers: Optional[int] = None,
    partitioner: str | Partitioner = "hash",
) -> str:
    """Build a sharded index at manifest *path*; returns the manifest path.

    *path* is the manifest file; :data:`MANIFEST_SUFFIX` is appended when
    missing so ``corpus.si`` becomes ``corpus.si.manifest.json``.  Shard
    files are written next to it.  *workers* defaults to one process per
    shard capped at the core count; ``workers=1`` builds inline.
    """
    coding_name = coding if isinstance(coding, str) else coding.name
    if isinstance(partitioner, str):
        partitioner = get_partitioner(partitioner, shards)
    elif partitioner.shard_count != shards:
        raise ValueError(
            f"partitioner is sized for {partitioner.shard_count} shards, "
            f"but {shards} shards were requested"
        )
    if workers is None:
        workers = default_worker_count(shards)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if not path.endswith(MANIFEST_SUFFIX):
        path = path + MANIFEST_SUFFIX

    started = time.perf_counter()
    per_shard = partition_corpus(trees, partitioner)
    manifest_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(manifest_dir, exist_ok=True)

    # What a build to the same path left behind, to be removed once replaced.
    try:
        replaced = Manifest.load(path).segments
    except ManifestError:  # none there, or nothing this build could have written
        replaced = []
    names = [segment_file_names(path, shard_id, frozen=True) for shard_id in range(shards)]
    shard_paths = [os.path.join(manifest_dir, index_name) for index_name, _ in names]
    for index_path in shard_paths:
        if os.path.exists(index_path):  # rebuilds must not append to old files
            os.remove(index_path)

    if workers == 1 or shards == 1:
        # Inline: hand the parsed trees straight to the builder, skipping
        # the Penn serialise/reparse round trip the pool path needs.
        counters = [
            _build_shard_trees(shard_id, shard_paths[shard_id], mss, coding_name, shard_trees)
            for shard_id, shard_trees in enumerate(per_shard)
        ]
    else:
        jobs: List[_ShardJob] = [
            (
                shard_id,
                shard_paths[shard_id],
                mss,
                coding_name,
                [(tree.tid, to_penn(tree.root)) for tree in shard_trees],
            )
            for shard_id, shard_trees in enumerate(per_shard)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counters = list(pool.map(_build_shard, jobs))

    entries = [  # both build paths return the shards' counters in shard order
        SegmentEntry(index_path=index_name, data_path=data_name, **result)
        for (index_name, data_name), result in zip(names, counters)
    ]
    manifest = Manifest(
        mss=mss,
        coding=coding_name,
        next_tid=max((shard[-1].tid for shard in per_shard if shard), default=-1) + 1,
        next_segment_id=shards,
        segments=entries,
        partitioner=partitioner.name,
        build_seconds=time.perf_counter() - started,
    )
    manifest.save_atomic(path)  # the commit point
    kept = {name for pair in names for name in pair}
    for entry in replaced:  # after the swap: best-effort cleanup
        for stale in {entry.index_path, entry.data_path} - kept:
            if os.path.basename(stale) == stale:  # only ever a file a build put beside it
                try:
                    os.remove(os.path.join(manifest_dir, stale))
                except OSError:
                    pass
    return path
