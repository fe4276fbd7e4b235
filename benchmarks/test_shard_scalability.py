"""Sharding benchmark: parallel build speedup and merged-read query latency.

Records build time and WH-workload latency at 1/2/4/8 shards.  The merge-
correctness invariant (identical match totals at every shard count) is
asserted unconditionally; the two wall-clock bars -- the parallel build
speedup, and what reading eight shards may cost over reading one -- go
through the shared CI/low-core guard (process workers cannot beat a
sequential build on a single-core box).
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.bench.guard import timing_bars_enabled

#: The speedup the 4-shard/4-worker build must reach over the 1-shard
#: baseline -- when at least this many physical cores are available.
SPEEDUP_BAR = 1.5
CORES_FOR_BAR = 4
#: A cold WH query over 8 shards against the same query over 1: one join
#: either way, so the difference is eight descents and decodes per key and
#: the column merge.  Per-shard fan-out was at 2.4x (0.96 -> 2.30 ms).
COLD_8_SHARDS_BAR = 1.75


def test_shard_scalability(runner) -> None:
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

    # Both cells are the fastest of several cold passes, measured after the
    # experiment's warm-up run compiled the join kernels (else the 1-shard
    # row, first in the process, would carry them and flatter the ratio).
    if timing_bars_enabled() and {1, 8} <= set(rows):
        ratio = rows[8]["cold_ms_per_query"] / rows[1]["cold_ms_per_query"]
        assert ratio <= COLD_8_SHARDS_BAR, (
            f"a cold query over 8 shards costs {ratio:.2f}x the 1-shard one "
            f"(bar: {COLD_8_SHARDS_BAR}x)"
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
