"""The in-memory delta segment: a SubtreeIndex-shaped memtable.

Recently added trees live here until :meth:`repro.live.live.LiveIndex.compact`
flushes them into an immutable on-disk segment.  The delta stores exactly
what a freshly built :class:`~repro.core.index.SubtreeIndex` over the same
trees would store -- every tree goes through the *same* per-tree step as a
build (:func:`repro.core.index.accumulate_posting_lists`: one extraction
kernel, one coding scheme), over the numbering
:func:`~repro.trees.penn.scan_penn` read off the tree's Penn line where a
build numbers a node tree -- so merging delta postings with base-segment
postings by tid is byte-identical to a full rebuild, and a compaction can
write the delta's finished lists out instead of indexing its trees again.
What it holds per key is what a build holds, the stored list
(:class:`~repro.coding.base.StoredList`); a lookup hands out
:class:`~repro.coding.postings.PostingColumns`, what the join kernel reads,
decoding only the rows added since the key's last lookup
(:meth:`~repro.coding.base.CodingScheme.decode_appended`).  Its trees are
the records a data file holds (:class:`DeltaTrees`), copied out as they are.

Trees must be added in ascending tid order (the live index assigns
monotonically increasing tids and never reuses one), which keeps every
posting list tid-ascending by construction -- the invariant the column
merge and the join operators rely on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.coding.base import CodingScheme, StoredList
from repro.coding.postings import PostingColumns
from repro.core.index import accumulate_posting_lists
from repro.trees.node import ParseTree
from repro.trees.penn import Numbering, parse_penn

_EMPTY = PostingColumns(())


class DeltaTrees:
    """The delta's trees as data-file records (tid -> UTF-8 Penn line) behind
    the ``TreeStore`` surface live code reads; ``get`` parses on demand, so
    an add's node tree lives only for its extraction."""

    def __init__(self) -> None:
        self.records: Dict[int, bytes] = {}

    def record(self, tid: int) -> bytes:
        return self.records[tid]

    def get(self, tid: int) -> ParseTree:
        return ParseTree(parse_penn(self.records[tid].decode("utf-8")), tid=tid)

    def tids(self) -> List[int]:
        return list(self.records)  # ascending: the insertion order

    def __contains__(self, tid: int) -> bool:
        return tid in self.records

    def __len__(self) -> int:
        return len(self.records)


class DeltaSegment:
    """An in-memory subtree index over the trees added since the last compaction."""

    def __init__(self, mss: int, coding: CodingScheme):
        self.mss = mss
        self.coding = coding
        #: The delta's trees, in insertion (= ascending tid) order.
        self.trees = DeltaTrees()
        self._lists: Dict[str, StoredList] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_tree(self, tid: int, record: bytes, numbering: Numbering) -> None:
        """Index one tree; *tid* must exceed every tid already present.

        *record* is its data-file record (``to_penn`` of the tree, in UTF-8)
        and *numbering* the tree as :func:`~repro.trees.penn.scan_penn` read
        it from that line.  A key's list grows in place a row at a time (one
        ``+=`` each, atomic under the GIL), and a reader racing the add decodes
        it up to where :meth:`lookup` found it.  (Readers racing the *whole* add
        may still see the new tree on some keys and not yet on others; see
        :class:`repro.live.live.LiveIndex` for the visibility contract.)
        """
        if tid < 0:
            raise ValueError("delta trees need an assigned tid")
        last = next(reversed(self.trees.records), -1)
        if tid <= last:
            raise ValueError(f"delta tids must be ascending: got {tid} after {last}")
        self.trees.records[tid] = record  # the tree before its postings: a
        # posting a reader can see must always name a fetchable tree
        accumulate_posting_lists([(tid, numbering)], self.mss, self.coding, self._lists)

    # ------------------------------------------------------------------
    # The SubtreeIndex-shaped read surface
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> PostingColumns:
        """The delta's posting list of *key* (empty when absent)."""
        stored = self._lists.get(key.decode("utf-8"))
        return _EMPTY if stored is None else self.coding.decode_appended(stored)

    def items(self) -> Iterator[Tuple[bytes, PostingColumns]]:
        """Yield ``(key bytes, posting list)`` pairs in ascending key order."""
        for text in sorted(self._lists):
            key = text.encode("utf-8")
            yield key, self.lookup(key)

    def raw_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key bytes, stored list)`` in ascending key order, for a
        compaction, which no add races (:meth:`items` reads no row count)."""
        for text in sorted(self._lists):
            yield text.encode("utf-8"), self._lists[text].encoded()

    # ------------------------------------------------------------------
    @property
    def tree_count(self) -> int:
        """Number of trees in the delta (tombstoned ones included)."""
        return len(self.trees)

    @property
    def key_count(self) -> int:
        """Number of distinct keys the delta indexes."""
        return len(self._lists)

    @property
    def posting_count(self) -> int:
        """Number of postings the delta holds (tombstoned trees' included)."""
        return sum(stored.count for stored in list(self._lists.values()))
