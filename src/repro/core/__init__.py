"""The paper's primary contribution: the Subtree Index (SI).

* :mod:`repro.core.enumeration` -- extracting every connected subtree of
  sizes ``1..mss`` rooted at each node of a data tree (Section 4.2,
  Figure 4), together with the interval codes of their nodes: one bottom-up
  kernel (``extract_subtrees``) and the iterators that view its output.
* :mod:`repro.core.keys` -- canonical (unordered) encoding of subtrees used
  as index keys, and the reverse decoding.
* :mod:`repro.core.index` -- building one disk-based subtree index file for
  any of the three coding schemes, and reading it.
* :mod:`repro.core.manifest` -- the one catalogue of a multi-file index
  (segment files + mss + coding, a partitioner when a sharded build wrote
  it) and the one error a damaged bundle raises.
* :mod:`repro.core.segments` -- :class:`SegmentSet`, the one index type:
  the read API over tid-disjoint sources merged column-wise -- a plain index
  file (one source) or a sharded index as it stands, and the base of the
  live index.
* :mod:`repro.core.stats` -- key and posting counts of a corpus, without
  building an index, backing the Figure 2/3/8/9/10 and Table 1 experiments.
"""

from repro.core.enumeration import (
    extract_subtrees,
    subtree_count_by_root_branching,
)
from repro.core.index import IndexMetadata, SubtreeIndex
from repro.core.keys import SubtreeKey, canonical_key, decode_key
from repro.core.manifest import Manifest, ManifestError, SegmentEntry, is_manifest
from repro.core.segments import SegmentSet, Snapshot, Source

__all__ = [
    "SubtreeIndex",
    "IndexMetadata",
    "SegmentSet",
    "Snapshot",
    "Source",
    "Manifest",
    "SegmentEntry",
    "ManifestError",
    "is_manifest",
    "SubtreeKey",
    "canonical_key",
    "decode_key",
    "extract_subtrees",
    "subtree_count_by_root_branching",
]
