"""A mutable ("live") subtree index over a growing, changing corpus.

The paper's index is immutable: any corpus change meant a full rebuild.
This package adds the standard LSM-flavoured update path behind the same
read API (cf. Clarke's *Annotative Indexing*, 2024):

* :mod:`repro.live.wal` -- the checksummed, fsynced write-ahead log every
  mutation hits before it is applied; replayed on open, truncated (and
  epoch-bumped) by compaction.
* :mod:`repro.live.delta` -- :class:`DeltaSegment`, the in-memory
  memtable over recently added trees, read like one index file.
* :mod:`repro.live.live` -- :class:`LiveIndex`: a
  :class:`~repro.core.segments.SegmentSet` over segments + delta (the one
  index read API, tombstoned trees cut per source) plus
  ``add_tree`` / ``delete_tree`` / ``compact`` and crash recovery.

The catalogue of the immutable base segments is the one epoch-stamped
manifest of :mod:`repro.core.manifest`, which every compaction publishes
with ``Manifest.commit`` over segments the one writer
(``repro.core.segments.write_segment``) put on disk; a manifest with no
partitioner recorded is a live one.

It is served by the one :class:`repro.service.QueryService`, and
``SegmentSet.open`` -- hence ``QueryService.open`` and the CLI -- opens a
live manifest as one.
"""

from repro.live.delta import DeltaSegment
from repro.live.live import CompactionStats, LiveIndex
from repro.live.wal import WalError, WalOp, WriteAheadLog

__all__ = [
    "LiveIndex",
    "CompactionStats",
    "DeltaSegment",
    "WriteAheadLog",
    "WalOp",
    "WalError",
]
