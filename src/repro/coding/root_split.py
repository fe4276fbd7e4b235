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

from repro.coding.base import Code, CodingScheme, decode_records, register_coding
from repro.coding.postings import PostingColumns, RootPosting
from repro.storage.codec import delta_gaps, encode_varint, encode_varint_list


@register_coding
class RootSplitCoding(CodingScheme):
    """Store one ``(tid, pre, post, level)`` record per distinct key root."""

    name = "root-split"

    def postings_from_codes(self, tid: int, occurrences: Sequence[Sequence[Code]]) -> List[RootPosting]:
        roots = {codes[0] for codes in occurrences}
        return [RootPosting(tid, *root) for root in sorted(roots)]

    def encode_postings(self, postings: Sequence[RootPosting]) -> bytes:
        if not postings:
            return encode_varint(0)
        columns = PostingColumns.from_postings(postings)
        body = [0] * (4 * len(columns))
        body[0::4] = delta_gaps(columns.tids)
        body[1::4], body[2::4], body[3::4] = columns.slots[0]
        return encode_varint(len(columns)) + encode_varint_list(body)

    def decode_postings(self, data: bytes) -> PostingColumns:
        body = decode_records(data, width=4)
        return PostingColumns(list(accumulate(body[0::4])), ((body[1::4], body[2::4], body[3::4]),))
