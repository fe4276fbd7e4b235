"""Smoke tests for the declared experiments at tiny scale.

The real measurements live in ``benchmarks/``; these tests only check that
every experiment produces a well-formed table whose qualitative shape matches
the paper even at a very small corpus size, so a broken experiment is caught by
``pytest tests/`` without paying benchmark-level runtimes.  Each table is the
registered declaration run through the orchestrator with tiny levels.
"""

from __future__ import annotations

import pytest

from repro.bench.context import ExperimentContext
from repro.bench.experiments import CODINGS, figure8_index_size, table1_size_ratio
from repro.bench.results import ExperimentResult
from repro.bench.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner(tmp_path_factory) -> ExperimentRunner:
    with ExperimentRunner(workdir=str(tmp_path_factory.mktemp("bench")), seed=23, scale=1.0) as bench:
        yield bench


@pytest.fixture(scope="module")
def context(runner: ExperimentRunner) -> ExperimentContext:
    return runner.context


def table(runner: ExperimentRunner, name: str, **overrides: object) -> ExperimentResult:
    """The registered experiment's table at the given (tiny) levels: one pass, no warmup."""
    return runner.measure(runner.resolve(name, overrides))


class TestContext:
    def test_corpus_is_cached(self, context: ExperimentContext) -> None:
        assert context.corpus(30) is context.corpus(30)
        assert len(context.corpus(30)) == 30

    def test_index_is_cached(self, context: ExperimentContext) -> None:
        first = context.subtree_index(30, "filter", 2)
        assert context.subtree_index(30, "filter", 2) is first

    def test_executor_and_store(self, context: ExperimentContext) -> None:
        from repro.query.parser import parse_query

        executor = context.executor(30, "root-split", 2)
        assert executor.execute(parse_query("NP")).total_matches > 0

    def test_tree_store(self, context: ExperimentContext) -> None:
        store = context.tree_store(30)
        assert len(store) == 30
        assert context.tree_store(30) is store  # cached, closed by the context

    def test_held_out_trees_differ_from_corpus(self, context: ExperimentContext) -> None:
        from repro.trees.penn import to_penn

        corpus_texts = {to_penn(tree.root) for tree in context.corpus(30)}
        held_out_texts = {to_penn(tree.root) for tree in context.held_out_trees(10)}
        assert not corpus_texts & held_out_texts or len(held_out_texts) > 1


class TestIndexExperiments:
    def test_figure2(self, runner: ExperimentRunner) -> None:
        result = table(runner, "figure2_index_keys", sentences=(5, 20), mss_values=(1, 2, 3))
        assert len(result.rows) == 6
        for mss in (1, 2, 3):
            series = [row[2] for row in result.rows if row[1] == mss]
            assert series == sorted(series)

    def test_figure3(self, runner: ExperimentRunner) -> None:
        result = table(runner, "figure3_branching", sentences=20, sizes=(2, 3))
        assert result.columns == ["branching_factor", "subtree_size", "avg_subtrees"]
        assert result.rows

    def test_figure8_and_table1(self, runner: ExperimentRunner) -> None:
        figure8 = table(runner, "figure8_index_size", sentences=(20,), mss=(1, 3, 5))
        sizes = {(row[1], row[2]): row[3] for row in figure8.rows}
        assert sizes[("filter", 5)] <= sizes[("root-split", 5)] <= sizes[("subtree-interval", 5)]

        table1 = table(runner, "table1_size_ratio", sentences=(20,))
        assert "when mss is 5 to the index size when mss is 1" in table1.description
        ratios = {row[1]: row[2] for row in table1.rows}
        assert ratios == {coding: sizes[(coding, 5)] / sizes[(coding, 1)] for coding in CODINGS}
        assert ratios["root-split"] <= ratios["subtree-interval"]

    def test_one_cell_is_one_call(self, context: ExperimentContext) -> None:
        size, build_seconds = figure8_index_size(context, sentences=20, coding="filter", mss=3)
        assert size == context.subtree_index(20, "filter", 3).size_bytes() and build_seconds >= 0
        assert table1_size_ratio(context, sentences=20, coding="filter", mss_range=(3, 3)) == 1.0

    def test_figure9(self, runner: ExperimentRunner) -> None:
        result = table(runner, "figure9_postings", sentences=(20,), mss=(1, 3))
        assert [row[:3] for row in result.rows[:4]] == [
            [20, "filter", 1], [20, "root-split", 1], [20, "subtree-interval", 1], [20, "filter", 3],
        ]  # one enumeration per (sentences, mss) reports all three codings
        postings = {(row[1], row[2]): row[3] for row in result.rows}
        assert postings[("root-split", 1)] == postings[("subtree-interval", 1)]
        assert postings[("filter", 3)] <= postings[("root-split", 3)] <= postings[("subtree-interval", 3)]

    def test_figure10(self, runner: ExperimentRunner) -> None:
        result = table(runner, "figure10_build_time", sentences=(20,), mss=(1, 3))
        assert all(row[3] >= 0 for row in result.rows)
        assert len(result.rows) == len(CODINGS) * 2


class TestQueryExperiments:
    def test_figure11(self, runner: ExperimentRunner) -> None:
        result = table(runner, "figure11_runtime_by_matches", sentences=40, mss=(1, 2))
        assert result.rows
        assert all(row[4] >= 0 for row in result.rows)
        assert {row[0] for row in result.rows} == set(CODINGS)

    def test_figure12(self, runner: ExperimentRunner) -> None:
        result = table(
            runner, "figure12_runtime_by_size", sentences=40, mss=(1, 2), min_matches=1
        )
        assert result.rows
        assert all(isinstance(row[2], int) for row in result.rows)
        assert result.notes[0].startswith("queries with fewer than 1 matches are excluded")

    def test_figure13(self, runner: ExperimentRunner) -> None:
        result = table(runner, "figure13_scalability", sentences=(20, 40), mss=2)
        assert "(mss=2)" in result.description
        assert len(result.rows) == 2 * len(CODINGS)
        assert all(row[2] >= 0 for row in result.rows)

    def test_table2(self, runner: ExperimentRunner) -> None:
        result = table(runner, "table2_system_comparison", sentences=40, cutoffs=(0.01,))
        systems = {row[1] for row in result.rows}
        assert "RS" in systems and "ATG" in systems and "FB(0.01)" in systems

    def test_shard_scalability(self, runner: ExperimentRunner) -> None:
        result = table(runner, "shard_scalability", sentences=40, shards=(1, 2), warm_passes=1)
        rows = result.as_dicts()
        assert [row["shards"] for row in rows] == [1, 2]
        assert [row["workers"] for row in rows] == [1, 2]
        # Merged results are identical regardless of partitioning.
        assert len({row["total_matches"] for row in rows}) == 1
        for row in rows:
            assert row["build_seconds"] > 0
            assert row["build_speedup"] > 0
        assert rows[0]["build_speedup"] == 1.0
        assert result.notes[0].startswith("build_speedup is relative to the 1-shard build")

    def test_shard_scalability_baseline_without_one_shard_row(self, runner: ExperimentRunner) -> None:
        result = table(runner, "shard_scalability", sentences=40, shards=(2,), warm_passes=1)
        (row,) = result.as_dicts()
        assert row["build_speedup"] == 1.0  # the first count is its own baseline
        assert result.notes[0].startswith("build_speedup is relative to the 2-shard build")

    def test_table3(self, runner: ExperimentRunner) -> None:
        result = table(runner, "table3_join_counts", mss=(2, 5))
        assert len(result.rows) == 4 * 2
        for row in result.rows:
            group, mss, rs, si = row
            assert si <= rs + 1e-9
