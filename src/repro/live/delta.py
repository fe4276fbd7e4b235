"""The in-memory delta segment: a SubtreeIndex-shaped memtable.

Recently added trees live here until :meth:`repro.live.live.LiveIndex.compact`
flushes them into an immutable on-disk segment.  The delta stores exactly
what a freshly built :class:`~repro.core.index.SubtreeIndex` over the same
trees would store -- every tree goes through the *same* per-tree step as a
build (:func:`repro.core.index.accumulate_posting_lists`: one extraction
kernel, one coding scheme) -- so merging delta postings with base-segment
postings by tid is byte-identical to a full rebuild, and a compaction can
write the delta's finished lists out instead of indexing its trees again.
A lookup hands out :class:`~repro.coding.postings.PostingColumns`, what the
join kernel reads: a key's records are converted the first time the key is
looked up after an add touched it, and the columns are kept until the next
one does -- not at ``add_tree``, where converting every key of the tree,
looked up or not, tripled the cost of an add.

Trees must be added in ascending tid order (the live index assigns
monotonically increasing tids and never reuses one), which keeps every
posting list tid-ascending by construction -- the invariant the column
merge and the join operators rely on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.coding.base import CodingScheme
from repro.coding.postings import PostingColumns
from repro.core.index import accumulate_posting_lists
from repro.corpus.store import Corpus
from repro.trees.node import ParseTree

_EMPTY = PostingColumns(())


class DeltaSegment:
    """An in-memory subtree index over the trees added since the last compaction."""

    def __init__(self, mss: int, coding: CodingScheme):
        self.mss = mss
        self.coding = coding
        #: The delta's trees, in insertion (= ascending tid) order.
        self.trees = Corpus()
        self._postings: Dict[bytes, List[object]] = {}
        #: key -> (the record list converted, its columns); good while that
        #: list is still the key's list (an add rebinds, never extends).
        self._columns: Dict[bytes, Tuple[List[object], PostingColumns]] = {}
        self.posting_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_tree(self, tree: ParseTree) -> None:
        """Index one tree; its tid must exceed every tid already present.

        Publication is copy-on-write per key: the new posting list is built
        aside and swapped in with one rebind, so a concurrent reader holding
        the list :meth:`lookup` returned sees a stable snapshot -- never a
        half-extended one.  (Readers racing the *whole* add may still see
        the new tree on some keys and not yet on others; see
        :class:`repro.live.live.LiveIndex` for the visibility contract.)
        """
        if tree.tid < 0:
            raise ValueError("delta trees need an assigned tid")
        if len(self.trees) and tree.tid <= self.trees[-1].tid:
            raise ValueError(
                f"delta tids must be ascending: got {tree.tid} after {self.trees[-1].tid}"
            )
        per_key, _ = accumulate_posting_lists([tree], self.mss, self.coding)
        self.trees.add(tree)  # the tree before its postings: a posting a
        # reader can see must always name a fetchable tree
        for key, postings in per_key.items():
            existing = self._postings.get(key)
            self._postings[key] = postings if existing is None else existing + postings
            self.posting_count += len(postings)

    # ------------------------------------------------------------------
    # The SubtreeIndex-shaped read surface
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> PostingColumns:
        """The delta's posting list of *key* (empty when absent)."""
        records = self._postings.get(key)
        if records is None:
            return _EMPTY
        converted = self._columns.get(key)
        if converted is None or converted[0] is not records:
            converted = self._columns[key] = (records, PostingColumns.from_postings(records))
        return converted[1]

    def has_key(self, key: bytes) -> bool:
        """``True`` when any delta tree contains *key*."""
        return key in self._postings

    def posting_list_length(self, key: bytes) -> int:
        """Length of the delta's posting list of *key* (0 when absent)."""
        return len(self.lookup(key))

    def items(self) -> Iterator[Tuple[bytes, List[object]]]:
        """Yield ``(key bytes, posting list)`` pairs in ascending key order --
        the record lists as built, which is what a compaction writes out."""
        for key in sorted(self._postings):
            yield key, self._postings[key]

    # ------------------------------------------------------------------
    @property
    def tree_count(self) -> int:
        """Number of trees in the delta (tombstoned ones included)."""
        return len(self.trees)

    @property
    def key_count(self) -> int:
        """Number of distinct keys the delta indexes."""
        return len(self._postings)

    def tids(self) -> List[int]:
        """All delta tids in ascending order."""
        return self.trees.tids()
