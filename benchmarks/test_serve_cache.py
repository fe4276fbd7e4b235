"""Serving-layer benchmark: cold vs warm vs hot cache latency through QueryService."""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.bench.guard import timing_bars_enabled


def test_serve_cold_vs_warm(runner) -> None:
    report = run_experiment(runner, "serve_cold_warm")
    result = report.result

    for row in result.as_dicts():
        # Warm passes skip parse + decomposition + B+Tree descents + posting
        # decoding, so they should beat the cold pass on every coding.  The
        # margin is ~1.15-1.2x on a quiet machine; each side is its quickest
        # of five alternating rounds, and the bar still goes through the
        # shared CI/low-core guard (with 10% scheduling-noise slack).
        if timing_bars_enabled():
            assert row["warm_ms_per_query"] < row["cold_ms_per_query"] * 1.10, row
        # Hot passes answer identical repeats from the result cache without
        # re-running joins; that layer dominates by orders of magnitude, so
        # these bounds stay strict on any machine.
        assert row["hot_ms_per_query"] < row["warm_ms_per_query"], row
        assert row["hot_speedup"] > 5.0, row
        # With caches larger than the workload's key set, the warm passes are
        # served almost entirely from memory.
        assert row["postings_hit_rate"] > 0.5, row
