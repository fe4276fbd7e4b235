"""Horizontal partitioning of the subtree index by tree id.

:mod:`repro.shard.builder` deals the trees over the shards by a stable hash
of the tid (:func:`repro.core.segments.hash_shard`) and builds the shards in
parallel via ``ProcessPoolExecutor`` (one ``write_segment`` per shard),
published by one ``Manifest.commit``.

What a sharded build writes is a *frozen segment set*: its manifest
(:mod:`repro.core.manifest`) records the partitioner, and
``SegmentSet.open(build_sharded(...))`` opens it as a frozen
:class:`~repro.core.segments.SegmentSet` -- the index read API a plain file
gets too, with the per-shard posting lists merged column-wise.  There is no sharded index
class and no query-side fan-out: ``QueryExecutor`` and ``QueryService`` run
over it as over any other index.
"""

from repro.shard.builder import build_sharded, default_worker_count, partition_corpus

__all__ = [
    "build_sharded",
    "partition_corpus",
    "default_worker_count",
]
