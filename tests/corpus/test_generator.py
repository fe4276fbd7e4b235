"""Unit tests for the synthetic treebank generator."""

from __future__ import annotations

import random

from repro.corpus.generator import CorpusGenerator
from repro.corpus.grammar import Grammar, Production, Vocabulary, default_grammar
from repro.trees.penn import parse_penn, to_penn
from repro.trees.stats import corpus_stats


class TestVocabulary:
    def test_sampling_is_deterministic_per_seed(self) -> None:
        vocabulary = Vocabulary()
        first = [vocabulary.sample("NN", random.Random(3)) for _ in range(5)]
        second = [vocabulary.sample("NN", random.Random(3)) for _ in range(5)]
        assert first == second

    def test_unknown_tag_falls_back_to_lowercase(self) -> None:
        vocabulary = Vocabulary()
        assert vocabulary.sample("XYZ", random.Random(0)) == "xyz"

    def test_zipf_head_is_frequent(self) -> None:
        vocabulary = Vocabulary()
        rng = random.Random(1)
        samples = [vocabulary.sample("NN", rng) for _ in range(2000)]
        head_share = samples.count("nn_0000") / len(samples)
        assert head_share > 0.05


class TestGrammar:
    def test_default_grammar_has_start_symbol(self) -> None:
        grammar = default_grammar()
        assert grammar.start_symbol == "S"
        assert grammar.is_phrase("NP")
        assert not grammar.is_phrase("NN")

    def test_missing_start_symbol_rejected(self) -> None:
        import pytest

        with pytest.raises(ValueError):
            Grammar([Production("NP", ("NN",), 1.0)], Vocabulary(), start_symbol="S")

    def test_depth_damping_prefers_flat_productions(self) -> None:
        grammar = default_grammar()
        rng = random.Random(5)
        deep_choice = grammar.choose("NP", depth=grammar.hard_depth, rng=rng)
        assert all(not grammar.is_phrase(symbol) for symbol in deep_choice.rhs)


class TestGenerator:
    def test_deterministic_for_seed(self) -> None:
        first = [to_penn(tree.root) for tree in CorpusGenerator(seed=42).generate_list(10)]
        second = [to_penn(tree.root) for tree in CorpusGenerator(seed=42).generate_list(10)]
        assert first == second

    def test_different_seeds_differ(self) -> None:
        first = [to_penn(tree.root) for tree in CorpusGenerator(seed=1).generate_list(10)]
        second = [to_penn(tree.root) for tree in CorpusGenerator(seed=2).generate_list(10)]
        assert first != second

    def test_tids_are_sequential(self) -> None:
        trees = CorpusGenerator(seed=0).generate_list(5)
        assert [tree.tid for tree in trees] == [0, 1, 2, 3, 4]

    def test_root_wrapping(self) -> None:
        generator = CorpusGenerator(seed=0, wrap_root=True)
        tree = generator.generate_tree()
        assert tree.root.label == "ROOT"
        unwrapped = CorpusGenerator(seed=0, wrap_root=False).generate_tree()
        assert unwrapped.root.label == "S"

    def test_token_bounds_respected(self) -> None:
        generator = CorpusGenerator(seed=3, min_tokens=5, max_tokens=30)
        lengths = [len(tree.tokens()) for tree in generator.generate(50)]
        assert all(4 <= length <= 60 for length in lengths)
        assert sum(5 <= length <= 30 for length in lengths) >= 45

    def test_output_is_valid_penn(self) -> None:
        for tree in CorpusGenerator(seed=9).generate_list(20):
            round_tripped = parse_penn(to_penn(tree.root))
            assert round_tripped.structurally_equal(tree.root)

    def test_shape_statistics_match_paper(self) -> None:
        stats = corpus_stats(CorpusGenerator(seed=13).generate_list(200))
        assert 1.2 <= stats.avg_branching_factor <= 2.0
        assert stats.avg_tree_size >= 15
        assert stats.max_branching <= 15
