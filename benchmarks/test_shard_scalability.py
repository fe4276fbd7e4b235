"""Sharding benchmark: parallel build speedup and merged-read query latency.

Records build time and WH-workload latency at 1/2/4/8 shards.  The merge-
correctness invariant (identical match totals at every shard count) is
asserted unconditionally; the two wall-clock bars -- the parallel build
speedup, and what reading eight shards may cost over reading one -- go
through the shared CI/low-core guard (process workers cannot beat a
sequential build on a single-core box).
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_experiment
from repro.bench.guard import alternating_minimums, timing_bars_enabled
from repro.service import QueryService

#: The speedup the 4-shard/4-worker build must reach over the 1-shard
#: baseline -- when at least this many physical cores are available.
SPEEDUP_BAR = 1.5
CORES_FOR_BAR = 4
#: A cold WH query over 8 shards against the same query over 1: one join
#: either way, plus eight descents and a merge per key where one shard
#: makes one descent and no merge.  Preparing the query reads no index.
COLD_8_SHARDS_BAR = 1.75
#: Alternating rounds of a cold pass over one shard, then over eight.
COLD_ROUNDS = 9


def _cold_ms_per_query(index, queries) -> float:
    """One pass of *queries* through a fresh service (empty caches)."""
    with QueryService(index) as service:
        started = time.perf_counter()
        for query in queries:
            service.run(query)
        return (time.perf_counter() - started) * 1000 / len(queries)


def test_shard_scalability(runner, context) -> None:
    report = run_experiment(runner, "shard_scalability")
    result = report.result
    rows = {row["shards"]: row for row in result.as_dicts()}
    assert set(rows) == set(report.params["shards"])

    # Merge correctness across every shard count: the WH workload must see
    # exactly the same matches no matter how the corpus is partitioned.
    totals = {row["total_matches"] for row in rows.values()}
    assert len(totals) == 1, rows

    # Every configuration must serve warm repeats faster than cold ones
    # (result cache answers identical queries outright).
    for row in rows.values():
        assert row["warm_ms_per_query"] < row["cold_ms_per_query"], row

    # The bar re-measures the two cells over the experiment's indexes, after
    # its warm-up run compiled the join kernels: a cold pass over one shard,
    # then over eight, for several rounds, each side its fastest.  A burst of
    # load on a small host slows one round of one side, not the ratio (the
    # experiment's own cells are measured one shard count after the other).
    if timing_bars_enabled() and {1, 8} <= set(rows):
        params = report.params
        queries = [item.query for item in context.wh_queries()]
        indexes = [
            context.sharded_index(params["sentences"], params["coding"], params["mss"], count, workers=count)
            for count in (1, 8)
        ]
        one, eight = alternating_minimums(
            [lambda index=index: _cold_ms_per_query(index, queries) for index in indexes], COLD_ROUNDS
        )
        ratio = eight / one
        assert ratio <= COLD_8_SHARDS_BAR, (
            f"a cold query over 8 shards costs {ratio:.2f}x the 1-shard one "
            f"(bar: {COLD_8_SHARDS_BAR}x; {eight:.3f} vs {one:.3f} ms)"
        )

    # The parallel-build bar: only meaningful with free cores to run the
    # worker processes on.  A single-core machine or shared CI runner still
    # records the numbers (shard_scalability.txt among the run's artefacts)
    # but cannot fairly be gated on a hardware-sensitive wall-clock ratio.
    if timing_bars_enabled(min_cores=CORES_FOR_BAR):
        speedup = rows[4]["build_speedup"]
        assert speedup >= SPEEDUP_BAR, (
            f"4-shard parallel build reached only {speedup:.2f}x over the "
            f"1-shard baseline (bar: {SPEEDUP_BAR}x)"
        )
