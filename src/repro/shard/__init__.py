"""Horizontal partitioning of the subtree index by tree id.

* :mod:`repro.shard.partitioner` -- the tid -> shard policies
  (``round-robin`` and stable-``hash``).
* :mod:`repro.shard.manifest` -- the self-describing JSON manifest that
  ties N shard files into one openable index, and manifest sniffing.
* :mod:`repro.shard.builder` -- parallel shard construction via
  ``ProcessPoolExecutor`` (one complete ``SubtreeIndex`` + ``TreeStore``
  per shard).
* :mod:`repro.shard.sharded` -- :class:`ShardedIndex`, a
  :class:`~repro.core.segments.SegmentSet` over the shards: the plain
  index's read API with the per-shard posting lists merged column-wise.

There is no query-side fan-out: ``QueryExecutor`` and ``QueryService`` run
over a sharded index as over any other.
"""

from repro.shard.builder import build_sharded, default_worker_count, partition_corpus
from repro.shard.manifest import (
    MANIFEST_SUFFIX,
    ShardEntry,
    ShardError,
    ShardManifest,
    is_manifest,
)
from repro.shard.partitioner import (
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    get_partitioner,
    partitioner_names,
)
from repro.shard.sharded import ShardedIndex

__all__ = [
    "ShardedIndex",
    "build_sharded",
    "partition_corpus",
    "default_worker_count",
    "ShardManifest",
    "ShardEntry",
    "ShardError",
    "is_manifest",
    "MANIFEST_SUFFIX",
    "Partitioner",
    "RoundRobinPartitioner",
    "HashPartitioner",
    "get_partitioner",
    "partitioner_names",
]
