"""Filter-based coding (Section 4.4.1).

The minimal scheme: a posting is just a tree identifier, the posting list is
a sorted list of unique tids (delta + varint compressed).  Query evaluation
intersects the posting lists of the cover subtrees and then runs a filtering
phase that fetches candidate trees from the data file and validates them with
the exact matcher.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

from repro.coding.base import Code, CodingScheme, register_coding


@register_coding
class FilterBasedCoding(CodingScheme):
    """Store only the sorted unique tree identifiers per key."""

    name = "filter"

    def rows(
        self, tid: int, heads: Sequence[Code], found: Sequence[Dict[str, int]]
    ) -> List[Tuple[Tuple[int], Dict[str, None]]]:
        return [((tid,), dict.fromkeys(chain.from_iterable(found)))]  # one row, on every key of the tree

    def width(self, body: Sequence[int]) -> int:
        return 1
