"""The sharded subtree index: N shard files behind one object.

:class:`ShardedIndex` is a :class:`~repro.core.segments.SegmentSet` whose
sources are the shards a manifest lists -- each a complete
:class:`~repro.core.index.SubtreeIndex` (+ data file) over the trees a
partitioner assigned to it.  The read API, the posting cache and the
tid-routed tree store are the base class's: a key's global posting list is
the column-wise merge of the per-shard lists, so ``QueryExecutor``,
``QueryService`` and the CLI work unchanged when pointed at a manifest and
run one join over the merged lists.  What is written here is what makes a
sharded index differ: the manifest, the partitioner and the parallel build.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.coding.base import CodingScheme
from repro.core.index import IndexMetadata
from repro.core.segments import SegmentSet, Source, open_sources
from repro.shard.builder import build_sharded
from repro.shard.manifest import ShardError, ShardManifest
from repro.shard.partitioner import Partitioner, get_partitioner


class ShardedIndex(SegmentSet):
    """A subtree index horizontally partitioned by tree id across N shards."""

    flavor = "sharded"

    def __init__(
        self,
        manifest_path: str,
        manifest: ShardManifest,
        shards: Sequence[Source],
        partitioner: Partitioner,
    ):
        super().__init__(manifest_path, manifest, shards)
        self.partitioner = partitioner
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
        shards = open_sources(
            path, manifest, sorted(manifest.shards, key=lambda entry: entry.shard_id),
            lambda entry: f"shard {entry.shard_id} of {manifest.shard_count}",
            ShardError, store_required=False,
        )
        return cls(path, manifest, shards, get_partitioner(manifest.partitioner, manifest.shard_count))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[Source, ...]:
        """The opened shards (``.index`` / ``.store`` / manifest ``.entry``), by shard id."""
        return self.snapshot.sources

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def locate(self, tid: int) -> Optional[int]:
        """The shard id (= position) holding *tid*, when the partitioner can
        derive it: a tree fetch then asks that one shard, not all of them."""
        return self.partitioner.locate(tid)

    def stats_extras(self) -> Dict[str, object]:
        """The per-shard split of the probe counters, under ``shards``."""
        return {
            "shards": [
                {
                    "shard_id": shard.entry.shard_id,
                    "probe_gets": shard.index.probe_stats.gets,
                    "tree_descents": shard.index.probe_stats.tree_descents,
                    "node_decodes": shard.index.probe_stats.node_decodes,
                }
                for shard in self.shards
            ],
        }
