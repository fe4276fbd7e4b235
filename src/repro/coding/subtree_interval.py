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

from repro.coding.base import CodingScheme, Occurrence, decode_records, register_coding
from repro.coding.postings import NodeCode, PostingColumns, SubtreePosting
from repro.storage.codec import decode_varint, decode_varint_list, encode_varint


@register_coding
class SubtreeIntervalCoding(CodingScheme):
    """Store full ``(pre, post, level, order)`` records for every node."""

    name = "subtree-interval"

    def postings_from_occurrences(self, occurrences: Sequence[Occurrence]) -> List[SubtreePosting]:
        postings = set()
        for occurrence in occurrences:
            pres = sorted(code.pre for code in occurrence.codes)
            order_of = {pre: rank + 1 for rank, pre in enumerate(pres)}
            nodes = tuple(
                NodeCode(code.pre, code.post, code.level, order_of[code.pre])
                for code in occurrence.codes
            )
            postings.add(SubtreePosting(occurrence.tid, nodes))
        return sorted(postings)

    def encode_postings(self, postings: Sequence[SubtreePosting]) -> bytes:
        if len({len(posting.nodes) for posting in postings}) > 1:
            raise ValueError("postings of one key must all have the key's node count")
        out = bytearray(encode_varint(len(postings)))
        previous_tid = 0
        for posting in postings:
            out += encode_varint(posting.tid - previous_tid)
            out += encode_varint(len(posting.nodes))
            for node in posting.nodes:
                out += encode_varint(node.pre)
                out += encode_varint(node.post)
                out += encode_varint(node.level)
                out += encode_varint(node.order)
            previous_tid = posting.tid
        return bytes(out)

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
