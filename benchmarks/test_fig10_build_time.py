"""Figure 10: index construction time for the three coding schemes."""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_figure10_build_time(runner) -> None:
    report = run_experiment(runner, "figure10_build_time")
    result = report.result
    sizes = tuple(report.params["sentences"])

    def build_time(count: int, coding: str, mss: int) -> float:
        return result.filtered(sentences=count, coding=coding, mss=mss)[0][3]

    largest = sizes[-1]
    # Paper shape 1: subtree interval takes the longest to build at large mss.
    assert build_time(largest, "subtree-interval", 5) >= build_time(largest, "root-split", 5)
    assert build_time(largest, "subtree-interval", 5) >= build_time(largest, "filter", 5)

    # Paper shape 2: construction time grows with mss for every coding.
    for coding in ("filter", "root-split", "subtree-interval"):
        assert build_time(largest, coding, 5) >= build_time(largest, coding, 1)

    # Paper shape 3: construction time grows with the corpus size.
    for coding in ("filter", "root-split", "subtree-interval"):
        assert build_time(sizes[-1], coding, 3) >= build_time(sizes[0], coding, 3)
