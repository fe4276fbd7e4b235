"""Ablation: decomposition choices called out in DESIGN.md.

Two design knobs of the subtree index are ablated, both over the cached
query corpus and the root-split index at mss = 3:

* **padding (max-covers)** -- Section 5.2.1 argues for covers whose subtrees
  are as large as possible; padding towards ``mss`` trades extra key length
  for shorter posting lists.
* **selectivity-aware cover selection** -- the paper's future-work extension
  (implemented in :mod:`repro.query.optimizer`): pick among candidate covers
  using posting-list statistics instead of always taking the default cover.

The experiment itself raises if any policy changes query answers; the
assertions here are deliberately loose (ablation results are informational),
and the measured tables land among the run's artefacts.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_ablation_padding_and_cover_selection(runner) -> None:
    report = run_experiment(runner, "ablation_cover_selection")
    result = report.result

    runtimes = {row[0]: row[1] for row in result.rows}
    # All three decomposition policies were measured.
    assert set(runtimes) == {
        "minRC + padding (default)",
        "minRC, no padding",
        "selectivity-optimised",
    }
    # All policies must return identical answers (checked while measuring).
    totals = {row[2] for row in result.rows}
    assert len(totals) == 1, result.rows
    # The optimiser should never be dramatically worse than the default policy.
    # Its planning (candidate covers + one stored-count read per key) is a
    # fixed ~0.2 ms a query, which was 5% of an 8 ms query under the object
    # kernel and is 30-45% of a 0.56 ms one now (ratio 1.28-1.45 over 10
    # runs), so the bar allows 0.5 ms of planning on top of the 1.5x.
    assert (
        runtimes["selectivity-optimised"]
        <= runtimes["minRC + padding (default)"] * 1.5 + 0.0005
    )
    # All variants complete in sane time at this scale.
    assert all(value < 5.0 for value in runtimes.values())
