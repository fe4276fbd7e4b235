"""Root-split interval coding (Section 4.4.3) -- the paper's contribution.

A posting stores only the tree identifier and the ``(pre, post, level)``
interval code of the *root* of the subtree occurrence.  Two consequences:

* postings are a constant size regardless of the subtree size, and
* multiple occurrences of the same key sharing the same root (e.g. ``NP(NN)``
  under an ``NP`` with several ``NN`` children) collapse into one posting,

which together give the 50--80 % index-size reduction reported in the paper.
The price is that queries may only be decomposed into *root-split covers*
(Definition 8): joins are performed exclusively over subtree roots.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence

from repro.coding.base import CodingScheme, Occurrence, decode_records, register_coding
from repro.coding.postings import PostingColumns, RootPosting
from repro.storage.codec import encode_varint


@register_coding
class RootSplitCoding(CodingScheme):
    """Store one ``(tid, pre, post, level)`` record per distinct key root."""

    name = "root-split"

    def postings_from_occurrences(self, occurrences: Sequence[Occurrence]) -> List[RootPosting]:
        unique = {
            (occurrence.tid, occurrence.root.pre, occurrence.root.post, occurrence.root.level)
            for occurrence in occurrences
        }
        return [RootPosting(*record) for record in sorted(unique)]

    def encode_postings(self, postings: Sequence[RootPosting]) -> bytes:
        out = bytearray(encode_varint(len(postings)))
        previous_tid = 0
        for posting in postings:
            out += encode_varint(posting.tid - previous_tid)
            out += encode_varint(posting.pre)
            out += encode_varint(posting.post)
            out += encode_varint(posting.level)
            previous_tid = posting.tid
        return bytes(out)

    def decode_postings(self, data: bytes) -> PostingColumns:
        body = decode_records(data, width=4)
        return PostingColumns(list(accumulate(body[0::4])), ((body[1::4], body[2::4], body[3::4]),))
