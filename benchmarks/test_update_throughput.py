"""Live-index benchmark: add throughput, delta-fraction latency, compaction.

Correctness is asserted unconditionally: the workload must see identical
match totals with the delta in memory, after compaction, and against a
fresh monolithic rebuild of the final corpus.  Timing columns are recorded
(``update_throughput.txt`` among the run's artefacts) but never gated -- mutation
wall-clock on a shared 1-CPU runner is noise.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.core.index import SubtreeIndex
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.exec.executor import QueryExecutor


def test_update_throughput(runner, context) -> None:
    report = run_experiment(runner, "update_throughput")
    result = report.result
    corpus_size = report.params["sentences"]
    fractions = tuple(report.params["delta_fraction"])

    rows = {row["delta_fraction"]: row for row in result.as_dicts()}
    assert set(rows) == set(fractions)

    # Equivalence invariant: the delta-resident and compacted states answer
    # the workload identically, at every fraction.
    for row in rows.values():
        assert row["total_matches"] == row["total_matches_compacted"], row
        assert row["delta_trees"] == int(round(row["delta_fraction"] * corpus_size))

    # And against a from-scratch monolithic rebuild of the final corpus: the
    # 50%-delta configuration (base + extra trees) must see the same totals.
    extra_count = int(round(0.50 * corpus_size))
    trees = list(context.corpus(corpus_size))
    extra = CorpusGenerator(seed=context.seed + 104729).generate_list(extra_count)
    for position, tree in enumerate(extra):
        tree.tid = len(trees) + position
    trees = trees + extra
    index = SubtreeIndex.build(
        trees, mss=3, coding="root-split",
        path=context.index_path(corpus_size, "root-split-rebuilt", 3),
    )
    try:
        executor = QueryExecutor(index, store=Corpus(trees))
        rebuilt_total = sum(
            executor.execute(item.query).total_matches for item in context.wh_queries()
        )
    finally:
        index.close()
    assert rows[0.50]["total_matches"] == rebuilt_total

    # Adds must actually have gone through the WAL'd path.
    assert rows[0.50]["adds_per_sec"] > 0
    assert rows[0.50]["compact_seconds"] > 0
