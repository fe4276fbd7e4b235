"""Figure 11: average query runtime by number of matches, per coding and mss."""

from __future__ import annotations

from benchmarks.conftest import PARITY_BAND, run_experiment
from repro.bench.guard import timing_bars_enabled


def posting_bytes_fetched(context, sentence_count: int, coding: str, mss: int) -> int:
    """Encoded bytes of every posting list the workload's covers fetch."""
    index = context.subtree_index(sentence_count, coding, mss)
    executor = context.executor(sentence_count, coding, mss)
    sizes = {key: len(value) for key, value in index.raw_items()}
    queries = [item.query for item in context.wh_queries()]
    queries.extend(item.query for item in context.fb_queries(sentence_count, max_size=10))
    return sum(
        sizes.get(subtree.key_bytes(), 0)
        for query in queries
        for subtree in executor.decompose(query).subtrees
    )


def test_figure11_runtime_by_matches(runner, context) -> None:
    report = run_experiment(runner, "figure11_runtime_by_matches")
    result = report.result
    sentence_count = report.params["sentences"]

    def mean_runtime(coding: str, mss: int) -> float:
        """Mean seconds per query over the whole workload (bins weighted by size)."""
        rows = result.filtered(coding=coding, mss=mss)
        return sum(row[3] * row[4] for row in rows) / sum(row[3] for row in rows)

    # Paper shape 1, the part that does not depend on the clock: root-split
    # reads fewer posting bytes than subtree interval at every mss (the
    # paper's mechanism for its runtime lead), and fewer as mss grows.
    fetched = {
        (coding, mss): posting_bytes_fetched(context, sentence_count, coding, mss)
        for coding in ("root-split", "subtree-interval")
        for mss in (1, 2, 3)
    }
    for mss in (1, 2, 3):
        assert fetched["root-split", mss] < fetched["subtree-interval", mss]
    assert fetched["root-split", 3] < fetched["root-split", 2] < fetched["root-split", 1]

    # Paper shape 2: runtimes decrease as mss grows, for every coding.
    for coding in ("filter", "root-split", "subtree-interval"):
        assert mean_runtime(coding, 3) <= mean_runtime(coding, 1) * 1.15

    # Paper shape 3: on the bins with many matches the filtering phase dominates
    # filter-based coding, so root-split wins there at larger mss.
    bins_present = [row[2] for row in result.filtered(coding="filter", mss=3)]
    largest_bin = bins_present[-1]
    filter_rows = result.filtered(coding="filter", mss=3, match_bin=largest_bin)
    rs_rows = result.filtered(coding="root-split", mss=3, match_bin=largest_bin)
    if filter_rows and rs_rows:
        assert rs_rows[0][4] <= filter_rows[0][4] * 1.25

    # Paper shape 1, on the clock: root-split is no slower than subtree
    # interval beyond the parity band.  A ratio of two near-equal sub-ms
    # means, so it goes through the shared CI / low-core guard.
    if timing_bars_enabled():
        for mss in (1, 2, 3):
            assert mean_runtime("root-split", mss) <= mean_runtime("subtree-interval", mss) * PARITY_BAND
