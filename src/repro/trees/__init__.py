"""Tree data model for syntactically annotated (constituency-parsed) trees.

This package provides the substrate every other layer builds on:

* :class:`~repro.trees.node.Node` / :class:`~repro.trees.node.ParseTree` --
  the in-memory representation of a syntactically annotated tree
  (Definition 1 of the paper).
* :mod:`repro.trees.penn` -- reading and writing Penn-Treebank style
  bracketed strings such as ``(S (NP (DT the) (NN agouti)) (VP (VBZ is)))``.
* :mod:`repro.trees.numbering` -- the interval (pre, post, level, order)
  numbering scheme used by the coding layers (Section 3 of the paper).
* :mod:`repro.trees.matching` -- exact tree-query matching semantics
  (Definition 3); used both for validation phases and as a reference
  implementation against which the index executors are tested.
* :mod:`repro.trees.stats` -- shape statistics (branching factors, label
  frequencies, node counts) used by the corpus generator and experiments.
"""

from repro.trees.node import Node, ParseTree
from repro.trees.penn import parse_penn, parse_penn_corpus, to_penn
from repro.trees.numbering import IntervalCode, number_tree
from repro.trees.matching import count_matches, find_matches, tree_matches_query
from repro.trees.stats import TreeShapeStats, corpus_stats, tree_stats

__all__ = [
    "Node",
    "ParseTree",
    "parse_penn",
    "parse_penn_corpus",
    "to_penn",
    "IntervalCode",
    "number_tree",
    "tree_matches_query",
    "find_matches",
    "count_matches",
    "TreeShapeStats",
    "tree_stats",
    "corpus_stats",
]
