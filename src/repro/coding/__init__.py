"""Coding schemes for subtree postings (Section 4.4 of the paper).

A *coding scheme* decides what structural information is stored in the
posting list of each index key (a unique subtree), and therefore what the
join phase can and cannot do:

* :class:`~repro.coding.filter_based.FilterBasedCoding` -- tree identifiers
  only; query evaluation needs a post-validation (filtering) phase.
* :class:`~repro.coding.subtree_interval.SubtreeIntervalCoding` -- the
  ``(pre, post, level, order)`` numbers of *every* node of the subtree;
  exact matching with joins on arbitrary shared nodes.
* :class:`~repro.coding.root_split.RootSplitCoding` -- the paper's novel
  scheme: only the ``(pre, post, level)`` of the subtree *root*; exact
  matching with joins restricted to subtree roots, and a much smaller index.

Whatever the scheme, a decoded posting list is a
:class:`~repro.coding.postings.PostingColumns`: flat ``tid`` and per-node
``pre/post/level`` columns sliced straight out of the varint body, which the
join kernel reads without building a record per posting.
"""

from repro.coding.base import CodingScheme, get_coding
from repro.coding.filter_based import FilterBasedCoding
from repro.coding.postings import (
    FilterPosting,
    NodeCode,
    PostingColumns,
    RootPosting,
    SubtreePosting,
)
from repro.coding.root_split import RootSplitCoding
from repro.coding.subtree_interval import SubtreeIntervalCoding

__all__ = [
    "CodingScheme",
    "get_coding",
    "FilterBasedCoding",
    "FilterPosting",
    "RootSplitCoding",
    "RootPosting",
    "SubtreeIntervalCoding",
    "SubtreePosting",
    "NodeCode",
    "PostingColumns",
]
