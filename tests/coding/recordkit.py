"""Posting lists as rows of plain ints, for tests that read a list or write
one by hand: the write path itself never builds a posting object, and
:func:`encode_body` is the reference writer the stored form is held to.

A row is what a coding stores for one posting, tree id first: ``(tid,)``
for filter coding, ``(tid, pre, post, level)`` for root-split and ``(tid, n,
pre, post, level, order, ...)`` -- one quadruple per key node, root first --
for subtree-interval.
"""

from __future__ import annotations

from itertools import chain
from operator import sub
from typing import List, Sequence, Tuple

from repro.coding import CodingScheme, PostingColumns
from repro.storage.codec import encode_varint, encode_varint_list

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


def delta_gaps(sorted_values: Sequence[int]) -> List[int]:
    """The gaps of a non-decreasing sequence, the first measured from zero."""
    gaps = list(map(sub, sorted_values, chain((0,), sorted_values)))
    if min(gaps, default=0) < 0:
        raise ValueError("delta encoding requires a non-decreasing sequence")
    return gaps


def encode_body(coding: CodingScheme, body: Sequence[int]) -> bytes:
    """A key's body -- rows of plain ints end to end, tids absolute -- as
    *coding* stores it: the row count, then the rows with the tid stride
    turned into gaps, as varints."""
    if not body:
        return encode_varint(0)
    width = coding.width(body)
    flat = list(body)
    flat[0::width] = delta_gaps(body[0::width])
    return encode_varint(len(flat) // width) + encode_varint_list(flat)


def encode_records(coding: CodingScheme, postings: Sequence[Row]) -> bytes:
    """*postings* (rows) as *coding* stores them: end to end, through
    :func:`encode_body`."""
    return encode_body(coding, [value for row in postings for value in row])
