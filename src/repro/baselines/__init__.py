"""Baseline systems the paper compares against.

All three baselines answer the same question as the subtree index -- "which
trees match this query, and at which nodes?" -- with different storage and
evaluation strategies:

* :mod:`repro.baselines.node_index` -- the *node approach*: an LPath-style
  inverted index over single node labels with interval codes, evaluated with
  MPMGJN structural joins (the paper's main relational baseline, and the
  ``mss = 1`` boundary case of the subtree index).
* :mod:`repro.baselines.atreegrep` -- an ATreeGrep-style index: root-to-leaf
  paths in a suffix-array-like path index plus a node/edge pre-filter, with
  candidate post-validation.
* :mod:`repro.baselines.frequency_based` -- the TreePi adaptation the paper
  calls the *frequency-based approach*: all single nodes plus the top-x% most
  frequent subtrees as keys, with post-validation.
"""

from repro.baselines.atreegrep import ATreeGrepIndex
from repro.baselines.frequency_based import FrequencyBasedIndex
from repro.baselines.node_index import NodeIntervalIndex

__all__ = [
    "NodeIntervalIndex",
    "ATreeGrepIndex",
    "FrequencyBasedIndex",
]
