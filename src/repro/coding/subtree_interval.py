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

from typing import Iterator, List, Sequence, Tuple

from repro.coding.base import Code, CodingScheme, register_coding


@register_coding
class SubtreeIntervalCoding(CodingScheme):
    """Store full ``(pre, post, level, order)`` records for every node."""

    name = "subtree-interval"
    roots_only = False

    def rows(
        self, tid: int, heads: Sequence[Code], found: Sequence[Sequence[Tuple[str, Tuple[Code, ...], int]]]
    ) -> Iterator[Tuple[str, List[int]]]:
        # ``[tid, node count, (pre, post, level, order) per node]``.  Roots
        # arrive in pre-order; a root's embeddings of one key are stored
        # ascending as rows (order values included: two embeddings may agree
        # on a node and differ in its rank).
        for subtrees in found:
            built = []
            for text, codes, size in subtrees:
                row = [tid, size]
                if size == 1:
                    row += codes[0]
                    row.append(1)
                else:
                    by_pre = sorted(codes)
                    for code in codes:
                        row += code
                        row.append(by_pre.index(code) + 1)
                built.append((text, row))
            if len(built) > 1:
                built.sort()
            yield from built

    def width(self, body: Sequence[int]) -> int:
        # The second value of every row is the key's node count.  (A body too
        # short to hold one is corrupt, which no width lets pass.)
        return 2 + 4 * body[1] if len(body) > 1 else 2
