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

from typing import Dict, List, Sequence, Tuple

from repro.coding.base import Code, CodingScheme, register_coding


@register_coding
class RootSplitCoding(CodingScheme):
    """Store one ``(tid, pre, post, level)`` record per distinct key root."""

    name = "root-split"

    def rows(
        self, tid: int, heads: Sequence[Code], found: Sequence[Dict[str, int]]
    ) -> List[Tuple[str, Tuple[int, int, int, int]]]:
        # Roots arrive in pre-order and a root's texts are distinct already.
        return [
            (text, row)
            for root, texts in zip(heads, found)
            for row in ((tid, *root),)
            for text in texts
        ]

    def width(self, body: Sequence[int]) -> int:
        return 4
