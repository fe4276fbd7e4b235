"""A key's decoded posting list as flat columns, and their merge.

A decoded posting list is a :class:`PostingColumns`: the tree ids in one
column and, per stored node, one ``(pre, post, level)`` column triple (a
*slot*).  The join kernel reads the columns directly, and a sharded or live
index merges its sources' lists column by column (:func:`merge_columns`).
The write path goes from a tree to a key's flat *body* of rows, of which
the columns are strided slices (:meth:`PostingColumns.from_body`); no
posting is ever a record object.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import AbstractSet, List, Optional, Sequence, Tuple

#: The ``(pre, post, level)`` columns of one stored node.
Slot = Tuple[Sequence[int], Sequence[int], Sequence[int]]


class PostingColumns:
    """One key's posting list as flat columns, ascending in ``tid``.

    ``slots`` holds no entry for filter postings, the root's for root-split
    and one per key node (canonical order, root first) for subtree-interval,
    whose per-node order values sit in ``orders``.  Columns are ``bytes``
    when every value fits one byte and lists otherwise; both index to ints,
    and two lists are equal when their columns hold the same values.
    """

    __slots__ = ("tids", "slots", "orders")

    def __init__(
        self,
        tids: Sequence[int],
        slots: Tuple[Slot, ...] = (),
        orders: Optional[Tuple[Sequence[int], ...]] = None,
    ):
        self.tids = tids
        self.slots = slots
        self.orders = orders

    @classmethod
    def from_postings(cls, postings: Sequence[object]) -> "PostingColumns":
        """*postings* as columns: a decoded list is passed through, and the
        ``[]`` a caller reading the B+Tree itself has for a key the index
        lacks becomes the empty list."""
        if isinstance(postings, cls):
            return postings
        if postings:
            raise TypeError(f"expected PostingColumns or [], got {type(postings).__name__}")
        return cls(())

    def without_tids(self, dead: AbstractSet[int]) -> "PostingColumns":
        """The list less every posting of a tree in *dead*; ``self`` when there is none."""
        if dead.isdisjoint(self.tids):
            return self
        keep = [tid not in dead for tid in self.tids]

        def kept(column: Sequence[int]) -> List[int]:
            return list(compress(column, keep))

        return PostingColumns(
            kept(self.tids),
            tuple((kept(pre), kept(post), kept(level)) for pre, post, level in self.slots),
            None if self.orders is None else tuple(kept(order) for order in self.orders),
        )

    @classmethod
    def from_body(cls, body: Sequence[int], width: int, tids: Sequence[int]) -> "PostingColumns":
        """Columns as strided slices of a flat body of *width*-value rows.

        The row layouts of the three codings have distinct widths: ``[tid]``,
        ``[tid, pre, post, level]`` and ``[tid, n, (pre, post, level, order)
        * n]``.  *tids* is the tid column, which the caller has (a decoder
        sums the stored gaps; a body held in memory has absolute tids).
        """
        if width == 1:
            return cls(tids)
        if width == 4:
            return cls(tids, ((body[1::4], body[2::4], body[3::4]),))
        if body[1::width].count((width - 2) // 4) != len(tids):
            raise ValueError("corrupt posting list: node counts differ within one key")
        starts = range(2, width, 4)
        return cls(
            tids,
            tuple((body[at::width], body[at + 1::width], body[at + 2::width]) for at in starts),
            tuple(body[at + 3::width] for at in starts),
        )

    def __len__(self) -> int:
        return len(self.tids)

    def _columns(self) -> tuple:
        """Every column as a list (``bytes`` and ``list`` columns of equal
        values compare equal), the slot and order structure kept.  A list
        with no postings has no structure: every empty list is equal."""
        if not self.tids:
            return [], (), None
        slots = tuple(tuple(list(column) for column in slot) for slot in self.slots)
        orders = None if self.orders is None else tuple(list(order) for order in self.orders)
        return list(self.tids), slots, orders

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingColumns):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        tids, slots, orders = self._columns()
        return f"PostingColumns(tids={tids!r}, slots={slots!r}, orders={orders!r})"


def merge_columns(parts: Sequence[PostingColumns]) -> PostingColumns:
    """One key's lists from tid-disjoint sources as one list ascending in tid.

    Every part is ascending in tid already.  When the populated parts' tid
    ranges follow one another in the order given (a live index: segments,
    then the delta) the columns are concatenated; when they interleave (the
    shards of either partitioner) one stable sort permutation of the
    concatenated tids is applied to every column, which keeps the order of
    a tree's postings.  A single populated part is returned as it is.
    """
    populated = [part for part in parts if part]
    if len(populated) < 2:
        return populated[0] if populated else PostingColumns(())
    tids = _concatenated([part.tids for part in populated])
    pick = None  # ranges in order: the concatenation is the merge
    if any(left.tids[-1] > right.tids[0] for left, right in zip(populated, populated[1:])):
        pick = itemgetter(*sorted(range(len(tids)), key=tids.__getitem__))

    def merged(columns: Sequence[Sequence[int]]) -> Sequence[int]:
        column = _concatenated(columns)
        return column if pick is None else type(column)(pick(column))

    first = populated[0]
    slots = tuple(
        tuple(merged([part.slots[node][field] for part in populated]) for field in range(3))
        for node in range(len(first.slots))
    )
    orders = None
    if first.orders is not None:
        orders = tuple(
            merged([part.orders[node] for part in populated]) for node in range(len(first.orders))
        )
    return PostingColumns(tids if pick is None else list(pick(tids)), slots, orders)


def _concatenated(columns: Sequence[Sequence[int]]) -> Sequence[int]:
    """The columns end to end: ``bytes`` when every one is, a list otherwise
    (``bytes + list`` raises, and a decoded column may be either)."""
    if all(type(column) is bytes for column in columns):
        return b"".join(columns)
    joined: List[int] = []
    for column in columns:
        joined += column
    return joined
