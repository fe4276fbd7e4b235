"""Posting lists as rows of plain ints, for tests that read a list or write
one by hand: the write path itself never builds a posting object.

A row is what a coding stores for one posting, tree id first: ``(tid,)``
for filter coding, ``(tid, pre, post, level)`` for root-split and ``(tid, n,
pre, post, level, order, ...)`` -- one quadruple per key node, root first --
for subtree-interval.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.coding import CodingScheme, PostingColumns

Row = Tuple[int, ...]


def rows(columns: PostingColumns) -> List[Row]:
    """The rows of *columns*, in list order."""
    fields = [columns.tids]
    if columns.orders is None:
        fields += [column for slot in columns.slots for column in slot]
    else:
        fields.append([len(columns.slots)] * len(columns))
        for slot, order in zip(columns.slots, columns.orders):
            fields += [*slot, order]
    return list(zip(*fields))


def body_columns(coding: CodingScheme, body: Sequence[int]) -> PostingColumns:
    """The columns of a body -- rows of plain ints end to end, tids
    absolute -- as a decoded list of the same rows has them."""
    if not body:
        return PostingColumns(())
    width = coding.width(body)
    return PostingColumns.from_body(body, width, body[0::width])


def encode_records(coding: CodingScheme, postings: Sequence[Row]) -> bytes:
    """*postings* (rows) as *coding* stores them: end to end, through
    ``encode_body``."""
    return coding.encode_body([value for row in postings for value in row])
