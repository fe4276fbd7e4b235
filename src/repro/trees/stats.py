"""Shape statistics over parse trees and corpora.

Section 4.1 of the paper motivates the subtree index with shape properties of
syntactically annotated trees: a small average branching factor (about 1.5),
very few nodes with branching factor above 10, and a label alphabet that
barely grows with corpus size.  These statistics are computed here both to
validate the synthetic corpus generator against the paper's figures and to
drive the Figure 2 / Figure 3 experiments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.trees.node import Node, ParseTree


@dataclass
class TreeShapeStats:
    """Aggregate shape statistics over a collection of trees."""

    tree_count: int = 0
    node_count: int = 0
    internal_node_count: int = 0
    leaf_count: int = 0
    max_branching: int = 0
    total_branching: int = 0
    label_counts: Counter = field(default_factory=Counter)
    branching_histogram: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    @property
    def avg_branching_factor(self) -> float:
        """Average branching factor over *internal* nodes (paper: ~1.52)."""
        if not self.internal_node_count:
            return 0.0
        return self.total_branching / self.internal_node_count

    @property
    def avg_tree_size(self) -> float:
        """Average number of nodes per tree."""
        if not self.tree_count:
            return 0.0
        return self.node_count / self.tree_count

    @property
    def unique_labels(self) -> int:
        """Size of the node-label alphabet seen so far."""
        return len(self.label_counts)

    def nodes_with_branching_above(self, threshold: int) -> int:
        """Number of nodes whose branching factor exceeds *threshold*."""
        return sum(count for degree, count in self.branching_histogram.items() if degree > threshold)

    # ------------------------------------------------------------------
    def add_tree(self, tree: ParseTree | Node) -> None:
        """Fold a single tree into the running statistics."""
        root = tree.root if isinstance(tree, ParseTree) else tree
        self.tree_count += 1
        for node in root.preorder():
            self.node_count += 1
            self.label_counts[node.label] += 1
            degree = node.degree
            if degree:
                self.internal_node_count += 1
                self.total_branching += degree
                self.max_branching = max(self.max_branching, degree)
                self.branching_histogram[degree] += 1
            else:
                self.leaf_count += 1

    def merge(self, other: "TreeShapeStats") -> "TreeShapeStats":
        """Merge another statistics object into this one and return ``self``."""
        self.tree_count += other.tree_count
        self.node_count += other.node_count
        self.internal_node_count += other.internal_node_count
        self.leaf_count += other.leaf_count
        self.max_branching = max(self.max_branching, other.max_branching)
        self.total_branching += other.total_branching
        self.label_counts.update(other.label_counts)
        self.branching_histogram.update(other.branching_histogram)
        return self

    def label_frequency_classes(
        self,
        high_quantile: float = 0.10,
        low_quantile: float = 0.50,
    ) -> Dict[str, str]:
        """Partition labels into frequency classes ``H``/``M``/``L``.

        The FB query set of Section 6.1 groups query nodes by the frequency
        of their labels.  Labels whose frequency rank falls within the top
        *high_quantile* fraction are classed ``H``, the bottom *low_quantile*
        fraction ``L``, everything in between ``M``.
        """
        if not self.label_counts:
            return {}
        ranked = [label for label, _ in self.label_counts.most_common()]
        total = len(ranked)
        high_cut = max(1, int(total * high_quantile))
        low_cut = max(1, int(total * low_quantile))
        classes: Dict[str, str] = {}
        for rank, label in enumerate(ranked):
            if rank < high_cut:
                classes[label] = "H"
            elif rank >= total - low_cut:
                classes[label] = "L"
            else:
                classes[label] = "M"
        return classes


def tree_stats(tree: ParseTree | Node) -> TreeShapeStats:
    """Compute shape statistics of a single tree."""
    stats = TreeShapeStats()
    stats.add_tree(tree)
    return stats


def corpus_stats(trees: Iterable[ParseTree]) -> TreeShapeStats:
    """Compute aggregate shape statistics over a corpus of trees."""
    stats = TreeShapeStats()
    for tree in trees:
        stats.add_tree(tree)
    return stats
