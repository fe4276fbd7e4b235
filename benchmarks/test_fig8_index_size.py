"""Figure 8: index size for the three coding schemes.

The sizes are bytes on disk in the v2 page layout (one overflow stream,
front-coded leaf keys; ``docs/architecture.md``), in which a file is within a
few percent of the keys and values it holds.  In the v1 layout the same lists
took up to 1.96x as much (geometric mean over the 45 cells 1.40x; only the
four-page filter mss-1 file of 100 sentences did not change), and not evenly
-- 2.7% slack on a filter mss-5 file, 27% on a subtree-interval one -- so
every bar below was re-read against the regenerated table
(``benchmarks/results/figure8_index_size.txt``), not carried over.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_figure8_index_size(runner) -> None:
    report = run_experiment(runner, "figure8_index_size")
    result = report.result
    sizes = tuple(report.params["sentences"])

    def size_of(count: int, coding: str, mss: int) -> int:
        return result.filtered(sentences=count, coding=coding, mss=mss)[0][3]

    for count in sizes:
        # Paper shape 1: filter-based is the smallest index, subtree interval the largest
        # (1 200 sentences, mss 3: 160 KB <= 492 KB <= 1 184 KB; the one tie is
        # 100 sentences at mss 1, root-split == subtree-interval == 7 pages, which
        # is why mss 1 is not asserted).
        for mss in (2, 3, 4, 5):
            assert size_of(count, "filter", mss) <= size_of(count, "root-split", mss)
            assert size_of(count, "root-split", mss) <= size_of(count, "subtree-interval", mss)

        # Paper shape 2: the gap between root-split and subtree interval widens with mss
        # (subtree-interval / root-split at mss 2 -> 5: 1.50 -> 2.96, 1.72 -> 3.47 and
        # 1.83 -> 3.69 at 100 / 400 / 1 200 sentences; v1 read 1.81 -> 3.62 at 1 200).
        gap_small = size_of(count, "subtree-interval", 2) / size_of(count, "root-split", 2)
        gap_large = size_of(count, "subtree-interval", 5) / size_of(count, "root-split", 5)
        assert gap_large >= gap_small * 0.9

    # Paper shape 3 (headline claim): root-split reduces the size of the interval
    # coding index by 50-80% for larger subtree sizes.  Measured at mss 5: 66%,
    # 71% and 73% at 100 / 400 / 1 200 sentences (v1: 58%, 68%, 72% -- the slack
    # of private chains weighed on the smaller files more).
    largest = sizes[-1]
    reduction = 1 - size_of(largest, "root-split", 5) / size_of(largest, "subtree-interval", 5)
    assert reduction >= 0.4, f"root-split reduction was only {reduction:.0%}"
