"""Unit tests for tree shape statistics."""

from __future__ import annotations

from repro.corpus.store import Corpus
from repro.trees.node import ParseTree, build_tree
from repro.trees.stats import TreeShapeStats, corpus_stats, tree_stats


def _tree() -> ParseTree:
    return ParseTree(build_tree(("S", [("NP", ["DT", "NN"]), ("VP", ["VBZ"])])), tid=0)


class TestTreeShapeStats:
    def test_single_tree_counts(self) -> None:
        stats = tree_stats(_tree())
        assert stats.tree_count == 1
        assert stats.node_count == 6
        assert stats.leaf_count == 3
        assert stats.internal_node_count == 3
        assert stats.max_branching == 2

    def test_avg_branching_factor(self) -> None:
        stats = tree_stats(_tree())
        # S has 2 children, NP has 2, VP has 1 -> 5/3.
        assert abs(stats.avg_branching_factor - 5 / 3) < 1e-9

    def test_merge(self) -> None:
        a = tree_stats(_tree())
        b = tree_stats(_tree())
        merged = a.merge(b)
        assert merged.tree_count == 2
        assert merged.node_count == 12

    def test_nodes_with_branching_above(self) -> None:
        stats = tree_stats(ParseTree(build_tree(("NP", ["A", "B", "C", "D"])), tid=0))
        assert stats.nodes_with_branching_above(3) == 1
        assert stats.nodes_with_branching_above(4) == 0

    def test_label_frequency_classes_partition(self) -> None:
        stats = TreeShapeStats()
        for index in range(30):
            stats.label_counts[f"L{index}"] = 1000 // (index + 1)
        classes = stats.label_frequency_classes()
        assert set(classes.values()) == {"H", "M", "L"}
        assert classes["L0"] == "H"
        assert classes["L29"] == "L"


class TestCorpusLevelStats:
    def test_corpus_stats_accumulates(self, small_corpus: Corpus) -> None:
        stats = corpus_stats(small_corpus)
        assert stats.tree_count == len(small_corpus)
        assert stats.node_count == small_corpus.total_nodes()
        assert stats.unique_labels > 10

    def test_generated_corpus_matches_paper_shape(self, small_corpus: Corpus) -> None:
        """The synthetic corpus must reproduce the shape facts of Section 4.1."""
        stats = corpus_stats(small_corpus)
        # Paper: average internal branching factor about 1.5.
        assert 1.2 <= stats.avg_branching_factor <= 2.0
        # Paper: nodes with branching factor > 10 are extremely rare.
        assert stats.nodes_with_branching_above(10) <= stats.node_count * 0.001
