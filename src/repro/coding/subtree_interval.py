"""Subtree interval coding (Section 4.4.2) -- the heavyweight baseline.

A posting stores, for every node of the subtree occurrence, the
``(pre, post, level, order)`` numbers.  Node codes are listed in the
canonical order of the index key (so position *i* of every posting of a key
corresponds to the same key node); ``order`` is the rank of the node within
the occurrence by data-tree pre-order, which distinguishes symmetric
instances that share the same (unordered) key.

Every distinct embedding is a distinct posting, so posting lists are both
longer and wider than for root-split coding -- the source of the index-size
gap shown in Figures 8 and 9 of the paper.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence

from repro.coding.base import Code, CodingScheme, decode_records, register_coding
from repro.coding.postings import NodeCode, PostingColumns, SubtreePosting
from repro.storage.codec import (
    decode_varint,
    decode_varint_list,
    delta_gaps,
    encode_varint,
    encode_varint_list,
)


@register_coding
class SubtreeIntervalCoding(CodingScheme):
    """Store full ``(pre, post, level, order)`` records for every node."""

    name = "subtree-interval"

    def postings_from_codes(self, tid: int, occurrences: Sequence[Sequence[Code]]) -> List[SubtreePosting]:
        unique = set()
        for codes in occurrences:
            pres = sorted(code[0] for code in codes)
            order_of = {pre: rank for rank, pre in enumerate(pres, start=1)}
            unique.add(tuple(code + (order_of[code[0]],) for code in codes))
        return [
            SubtreePosting(tid, tuple(NodeCode(*node) for node in nodes)) for nodes in sorted(unique)
        ]

    def encode_postings(self, postings: Sequence[SubtreePosting]) -> bytes:
        if not postings:
            return encode_varint(0)
        columns = PostingColumns.from_postings(postings)  # refuses mixed node counts
        width = 2 + 4 * len(columns.slots)
        body = [len(columns.slots)] * (width * len(columns))
        body[0::width] = delta_gaps(columns.tids)
        for at, slot, order in zip(range(2, width, 4), columns.slots, columns.orders):
            body[at::width], body[at + 1::width], body[at + 2::width] = slot
            body[at + 3::width] = order
        return encode_varint(len(columns)) + encode_varint_list(body)

    def decode_postings(self, data: bytes) -> PostingColumns:
        count, offset = decode_varint(data, 0)
        node_count = decode_varint_list(data, 2, offset)[0][1] if count else 0
        width = 2 + 4 * node_count
        body = decode_records(data, width)
        if body[1::width].count(node_count) != count:
            raise ValueError("corrupt posting list: node counts differ within one key")
        starts = range(2, width, 4)
        return PostingColumns(
            list(accumulate(body[0::width])),
            tuple((body[at::width], body[at + 1::width], body[at + 2::width]) for at in starts),
            tuple(body[at + 3::width] for at in starts),
        )
