"""Figure 2: number of index keys (unique subtrees) vs corpus size."""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_figure2_index_keys(runner) -> None:
    report = run_experiment(runner, "figure2_index_keys")
    result = report.result
    counts = tuple(report.params["sentences"])

    # Paper shape 1: the number of keys grows monotonically with the corpus size.
    for mss in (1, 2, 3, 4, 5):
        series = [row[2] for row in result.rows if row[1] == mss]
        assert series == sorted(series)

    # Paper shape 2: growth is sub-quadratic ("almost linear") -- going from the
    # second-largest to the largest corpus multiplies keys by far less than the
    # corpus-size ratio squared.
    largest, previous = counts[-1], counts[-2]
    for mss in (3, 5):
        big = result.filtered(sentences=largest, mss=mss)[0][2]
        small = result.filtered(sentences=previous, mss=mss)[0][2]
        assert big / max(1, small) <= (largest / previous) ** 1.5

    # Paper shape 3: larger mss always yields at least as many keys.
    for count in counts:
        per_mss = [result.filtered(sentences=count, mss=mss)[0][2] for mss in (1, 2, 3, 4, 5)]
        assert per_mss == sorted(per_mss)
