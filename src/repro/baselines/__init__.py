"""Baseline systems the paper compares against.

Both baselines answer the same question as the subtree index -- "which
trees match this query, and at which nodes?" -- with different storage, and
both end in the filtering phase of the filter-based coding
(:func:`repro.exec.executor.filter_candidates`): fetch each candidate tree
and count its matches with the exact matcher.

* :mod:`repro.baselines.atreegrep` -- an ATreeGrep-style index: root-to-leaf
  paths in a suffix-array-like path index plus a node/edge pre-filter.
* :mod:`repro.baselines.frequency_based` -- the TreePi adaptation the paper
  calls the *frequency-based approach*: all single nodes plus the top-x% most
  frequent subtrees as keys.

The paper's third, the LPath-style *node approach* (Section 6.3.1), is no
module of its own: it is the subtree index at its ``mss = 1`` boundary,
``SubtreeIndex.build(trees, 1, "root-split", path)`` -- one
``(tid, pre, post, level)`` row per node under its label, and one structural
join per query edge.
"""

from repro.baselines.atreegrep import ATreeGrepIndex
from repro.baselines.frequency_based import FrequencyBasedIndex

__all__ = [
    "ATreeGrepIndex",
    "FrequencyBasedIndex",
]
