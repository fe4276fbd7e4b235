"""Filter-based coding (Section 4.4.1).

The minimal scheme: a posting is just a tree identifier, the posting list is
a sorted list of unique tids (delta + varint compressed).  Query evaluation
intersects the posting lists of the cover subtrees and then runs a filtering
phase that fetches candidate trees from the data file and validates them with
the exact matcher.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence

from repro.coding.base import Code, CodingScheme, decode_records, register_coding
from repro.coding.postings import FilterPosting, PostingColumns
from repro.storage.codec import encode_delta_list


@register_coding
class FilterBasedCoding(CodingScheme):
    """Store only the sorted unique tree identifiers per key."""

    name = "filter"

    def postings_from_codes(self, tid: int, occurrences: Sequence[Sequence[Code]]) -> List[FilterPosting]:
        return [FilterPosting(tid)]

    def encode_postings(self, postings: Sequence[FilterPosting]) -> bytes:
        return encode_delta_list(PostingColumns.from_postings(postings).tids)

    def decode_postings(self, data: bytes) -> PostingColumns:
        return PostingColumns(list(accumulate(decode_records(data, width=1))))
