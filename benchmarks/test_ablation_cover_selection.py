"""Ablation: the decomposition choices of ``docs/architecture.md`` (*Query path*).

Over the cached query corpus and the root-split index at mss = 3:

* **padding (max-covers)** -- Section 5.2.1 argues for covers whose subtrees
  are as large as possible; padding towards ``mss`` trades extra key length
  for shorter posting lists.

The experiment itself raises if a policy changes query answers; the
assertions here are deliberately loose (ablation results are informational),
and the measured tables land among the run's artefacts.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_ablation_padding_and_cover_selection(runner) -> None:
    report = run_experiment(runner, "ablation_cover_selection")
    result = report.result

    runtimes = {row[0]: row[1] for row in result.rows}
    # Both decomposition policies were measured.
    assert set(runtimes) == {"minRC + padding (default)", "minRC, no padding"}
    # All policies must return identical answers (checked while measuring).
    totals = {row[2] for row in result.rows}
    assert len(totals) == 1, result.rows
    # All variants complete in sane time at this scale.
    assert all(value < 5.0 for value in runtimes.values())
