"""Figure 12: average query runtime by query size (queries with enough matches)."""

from __future__ import annotations

from benchmarks.conftest import PARITY_BAND, run_experiment
from repro.bench.guard import timing_bars_enabled
from repro.workloads.binning import average


def test_figure12_runtime_by_query_size(runner) -> None:
    report = run_experiment(runner, "figure12_runtime_by_size")
    result = report.result

    # The workload contains small and larger queries with enough matches.
    sizes_present = sorted({row[2] for row in result.rows})
    assert sizes_present, "no query sizes survived the match threshold"
    assert len(sizes_present) >= 3

    # Paper shape: root-split stays at least competitive with subtree interval
    # on the larger query sizes at mss >= 2.  Both codings run the same
    # columnar kernel, so the two sit at parity (root-split / subtree-interval
    # measured 0.76-1.27 over 24 samples, ~1.1 at mss=3 where optimalCover
    # needs fewer joins than minRC), and the two workloads are timed one after
    # the other, so a host slow-down lands on one side only: the bar is the
    # same band as figure 11's, behind the shared CI / low-core guard.
    if not timing_bars_enabled():
        return
    large_sizes = [size for size in sizes_present if size >= max(sizes_present) - 2]
    for mss in (2, 3):
        rs = average(
            [row[4] for row in result.filtered(coding="root-split", mss=mss) if row[2] in large_sizes]
        )
        si = average(
            [row[4] for row in result.filtered(coding="subtree-interval", mss=mss) if row[2] in large_sizes]
        )
        if rs and si:
            assert rs <= si * PARITY_BAND
