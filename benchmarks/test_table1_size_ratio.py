"""Table 1: ratio of index size at mss=5 to the size at mss=1.

Measured in the v2 page layout (``benchmarks/results/table1_size_ratio.txt``,
1 200 sentences): filter 13.8x, root-split 10.8x, subtree-interval 28.3x --
the v1 layout read 17.4x / 12.6x / 32.9x.  The orderings the paper reports
hold; root-split's growth is now *below* the paper's 12-15x band, because a
front-coded leaf stores an mss-5 key as the few bytes its neighbour does not
share while an mss-1 key (a label) shares almost nothing
(``docs/benchmarks.md``, *Index size in the v2 layout*).  So the band is
evidence about the paper's B+Tree, not a bar for ours: what is asserted is
the ordering and the >= 1.5 separation.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_table1_size_ratio(runner) -> None:
    report = run_experiment(runner, "table1_size_ratio")
    result = report.result
    sizes = tuple(report.params["sentences"])

    def ratio(count: int, coding: str) -> float:
        return result.filtered(sentences=count, coding=coding)[0][2]

    for count in sizes:
        # Paper shape: root-split shows the smallest growth when mss goes from 1
        # to 5; subtree interval the largest (paper: ~12-15x vs ~48-59x; here
        # 6.9 / 9.9 / 10.8x vs 20.3 / 26.2 / 28.3x at 100 / 400 / 1 200
        # sentences, filter 7.0 / 12.8 / 13.8x, so the 1.1 slack is only used
        # by nothing: root-split is below filter at every size).
        assert ratio(count, "root-split") <= ratio(count, "filter") * 1.1
        assert ratio(count, "root-split") < ratio(count, "subtree-interval")
        # Separation: 2.96 / 2.64 / 2.62 (v1: 1.85 / 2.40 / 2.60).
        assert ratio(count, "subtree-interval") / ratio(count, "root-split") >= 1.5
