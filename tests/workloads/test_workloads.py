"""Tests for the WH and FB query workloads and the result binning helpers."""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusGenerator
from repro.query.model import has_duplicate_siblings
from repro.workloads.binning import (
    MATCH_BINS,
    average,
    bin_for_match_count,
    group_by_query_size,
)
from repro.workloads.fb import FREQUENCY_CLASSES, generate_fb_queries
from repro.workloads.wh import WH_GROUPS, generate_wh_queries, wh_queries_by_group


class TestWHQueries:
    def test_exactly_48_queries(self) -> None:
        queries = generate_wh_queries()
        assert len(queries) == 48

    def test_twelve_per_group(self) -> None:
        grouped = wh_queries_by_group()
        assert set(grouped) == set(WH_GROUPS)
        assert all(len(items) == 12 for items in grouped.values())

    def test_queries_parse_and_have_reasonable_sizes(self) -> None:
        for item in generate_wh_queries():
            assert 4 <= item.size <= 16
            assert item.query.root.label == "S"

    def test_templates_are_unique(self) -> None:
        texts = [item.text for item in generate_wh_queries()]
        assert len(texts) == len(set(texts))

    def test_no_lexical_leaves(self) -> None:
        """Lexical material is removed: every label is an upper-case tag."""
        for item in generate_wh_queries():
            for label in item.query.labels():
                assert label.upper() == label


class TestFBQueries:
    @pytest.fixture(scope="class")
    def query_set(self):
        indexed = CorpusGenerator(seed=5).generate_list(150)
        held_out = CorpusGenerator(seed=99).generate_list(60)
        return generate_fb_queries(indexed, held_out, max_size=8, per_class=8, seed=3)

    def test_classes_are_known(self, query_set) -> None:
        assert set(query_set.classes()) <= set(FREQUENCY_CLASSES)
        # The broad classes always have candidates in a generated corpus.
        assert {"H", "HM", "HML"} & set(query_set.classes())

    def test_by_class_and_size_accessors(self, query_set) -> None:
        for frequency_class in query_set.classes():
            assert query_set.by_class(frequency_class)
        assert len({query.size for query in query_set}) >= 3

    def test_queries_have_no_duplicate_siblings(self, query_set) -> None:
        for item in query_set:
            assert not has_duplicate_siblings(item.query), item.text

    def test_queries_only_use_child_axis(self, query_set) -> None:
        for item in query_set:
            assert all(axis == "/" for _, _, axis in item.query.edges())

    def test_deterministic_for_seed(self) -> None:
        indexed = CorpusGenerator(seed=5).generate_list(60)
        held_out = CorpusGenerator(seed=99).generate_list(30)
        first = generate_fb_queries(indexed, held_out, seed=3)
        second = generate_fb_queries(indexed, held_out, seed=3)
        assert [item.text for item in first] == [item.text for item in second]


class TestBinning:
    @pytest.mark.parametrize(
        "count, expected",
        [(0, "<10"), (9, "<10"), (10, "10-100"), (99, "10-100"), (100, "100-1k"),
         (999, "100-1k"), (1_000, "1k-10k"), (9_999, "1k-10k"), (10_000, ">10k"), (10**7, ">10k")],
    )
    def test_bin_for_match_count(self, count: int, expected: str) -> None:
        assert bin_for_match_count(count) == expected

    def test_negative_count_rejected(self) -> None:
        with pytest.raises(ValueError):
            bin_for_match_count(-1)

    def test_bins_cover_all_counts(self) -> None:
        labels = [label for label, _, _ in MATCH_BINS]
        assert len(labels) == 5
        assert labels[0] == "<10" and labels[-1] == ">10k"

    def test_group_by_query_size_filters_low_match_queries(self) -> None:
        entries = [(3, 500, 0.1), (3, 5, 0.9), (7, 200, 0.3)]
        grouped = group_by_query_size(entries, min_matches=100)
        assert grouped == {3: [0.1], 7: [0.3]}

    def test_average(self) -> None:
        assert average([1.0, 2.0, 3.0]) == 2.0
        assert average([]) == 0.0
