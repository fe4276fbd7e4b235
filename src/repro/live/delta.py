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
(:class:`~repro.core.index.StoredList`); a lookup hands out
:class:`~repro.coding.postings.PostingColumns`, what the join kernel reads,
decoding only the rows added since the key's last lookup.  Its trees are
the records a data file holds (:class:`DeltaTrees`), copied out as they are.

Trees must be added in ascending tid order (the live index assigns
monotonically increasing tids and never reuses one), which keeps every
posting list tid-ascending by construction -- the invariant the column
merge and the join operators rely on.
"""

from __future__ import annotations

from itertools import accumulate
from typing import AbstractSet, Dict, Iterator, List, Sequence, Tuple

from repro.coding.base import CodingScheme
from repro.coding.postings import PostingColumns
from repro.core.index import StoredList, accumulate_posting_lists
from repro.storage.codec import decode_varint, decode_varint_run, encode_varint
from repro.trees.node import ParseTree
from repro.trees.penn import Numbering, parse_penn

_EMPTY = PostingColumns(())
_UNREAD = (0, b"", _EMPTY)  # no byte of a list decoded yet


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
        #: key -> (bytes of its list decoded, their values, their columns).
        self._decoded: Dict[str, Tuple[int, Sequence[int], PostingColumns]] = {}

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
        text = key.decode("utf-8")
        stored = self._lists.get(text)
        if stored is None:
            return _EMPTY
        start, body, columns = self._decoded.get(text, _UNREAD)
        added = stored[start:]  # whole rows: each is appended in one +=
        if added:
            # The first value, a tid gap, is the one often wide (a list's first
            # row holds its tid whole): decoded apart, the rest is one run --
            # bytes when every value is below 128 -- behind a 0 in its place.
            # The columns take no tid from the body: the tids are summed apart.
            first, offset = (added[0], 1) if added[0] < 0x80 else decode_varint(added)
            rest = decode_varint_run(added, offset)
            run = [0, *rest] if type(rest) is list else b"\x00" + rest
            width = self.coding.width(run)
            tids = list(accumulate(run[width::width], initial=first + (columns.tids[-1] if start else 0)))
            body = body + run if type(body) is type(run) else [*body, *run]  # what was handed out stays
            columns = PostingColumns.from_body(body, width, columns.tids + tids if start else tids)
            self._decoded[text] = (start + len(added), body, columns)
        return columns

    def items(self) -> Iterator[Tuple[bytes, PostingColumns]]:
        """Yield ``(key bytes, posting list)`` pairs in ascending key order."""
        for text in sorted(self._lists):
            key = text.encode("utf-8")
            yield key, self.lookup(key)

    def encoded_lists(self, dead: AbstractSet[int] = frozenset()) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, encoded posting list)`` in key order without the rows
        of the trees in *dead* -- what a compaction writes, as
        ``SubtreeIndex.encoded_lists`` yields a segment's."""
        for text in sorted(self._lists):
            stored = self._lists[text]
            kept = self.coding.cut(encode_varint(stored.count) + stored, dead)
            if kept is not None:
                yield text.encode("utf-8"), kept

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
