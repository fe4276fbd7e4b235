"""Figure 9: total number of postings for the three coding schemes."""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_figure9_posting_counts(runner) -> None:
    report = run_experiment(runner, "figure9_postings")
    result = report.result
    sizes = tuple(report.params["sentences"])

    def postings(count: int, coding: str, mss: int) -> int:
        return result.filtered(sentences=count, coding=coding, mss=mss)[0][3]

    for count in sizes:
        # Paper shape 1: at mss=1 root-split and subtree interval store the same
        # number of postings (one per node).
        assert postings(count, "root-split", 1) == postings(count, "subtree-interval", 1)

        # Paper shape 2: filter-based has the fewest postings everywhere.
        for mss in (1, 2, 3, 4, 5):
            assert postings(count, "filter", mss) <= postings(count, "root-split", mss)
            assert postings(count, "root-split", mss) <= postings(count, "subtree-interval", mss)

        # Paper shape 3: the root-split vs subtree-interval gap widens with mss.
        gap2 = postings(count, "subtree-interval", 2) - postings(count, "root-split", 2)
        gap5 = postings(count, "subtree-interval", 5) - postings(count, "root-split", 5)
        assert gap5 >= gap2
