"""Table 2: SI with root-split coding vs ATreeGrep and the frequency-based approach."""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.bench.guard import timing_bars_enabled
from repro.workloads.binning import average


def test_table2_system_comparison(runner) -> None:
    report = run_experiment(runner, "table2_system_comparison")
    result = report.result

    def avg_for(system: str) -> float:
        return average([row[2] for row in result.rows if row[1] == system])

    # Correctness of the experiment itself is asserted unconditionally:
    # every system must have been measured on every frequency class.
    classes = {row[0] for row in result.rows}
    systems = {row[1] for row in result.rows}
    assert {"RS", "ATG", "FB(0.001)", "FB(0.01)", "FB(0.1)"} <= systems
    for system in systems:
        measured = {row[0] for row in result.rows if row[1] == system}
        assert measured == classes, f"{system} missing classes {classes - measured}"
    assert all(row[2] >= 0 for row in result.rows)

    # The timing-ratio bars are hardware-sensitive: shared CI runners and
    # 1-CPU boxes are too noisy/throttled to gate a wall-clock ordering on
    # (the shared guard in repro.bench.guard).  The measured factors are
    # still recorded in the run's artefacts either way.
    if not timing_bars_enabled():
        return

    rs = avg_for("RS")
    atreegrep = avg_for("ATG")
    frequency = min(avg_for("FB(0.001)"), avg_for("FB(0.01)"), avg_for("FB(0.1)"))

    # Paper shape: the subtree index with root-split coding beats both
    # validation-based baselines on average.  The paper reports >= 10x per class
    # at 100k-1M sentences with a compiled implementation; at this scale (and
    # with per-posting costs inflated by pure Python) we assert the ordering and
    # record the measured factors in EXPERIMENTS.md.
    assert rs < atreegrep, f"RS {rs:.4f}s vs ATreeGrep {atreegrep:.4f}s"
    assert rs < frequency, f"RS {rs:.4f}s vs frequency-based {frequency:.4f}s"

    # Per-class: on the all-high-frequency class (the expensive one for
    # validation-based engines, whose candidate sets approach the whole corpus)
    # root-split clearly wins.
    rs_h = [row[2] for row in result.filtered(**{"class": "H", "system": "RS"})]
    atg_h = [row[2] for row in result.filtered(**{"class": "H", "system": "ATG"})]
    if rs_h and atg_h:
        assert rs_h[0] <= atg_h[0]
