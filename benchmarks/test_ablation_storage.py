"""Ablation: storage-layer choices (bulk load vs incremental inserts).

The subtree index bulk-loads its B+Tree from key-sorted posting lists
(Section 6.1 builds the index once over a static corpus).  This ablation
quantifies what that choice buys over naive per-key inserts; the experiment
itself checks both strategies produce identical lookup results.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment


def test_ablation_bulk_load_vs_inserts(runner) -> None:
    report = run_experiment(runner, "ablation_storage")
    result = report.result

    times = {row[0]: row[1] for row in result.rows}
    sizes = {row[0]: row[2] for row in result.rows}
    assert set(times) == {"bulk load (sorted)", "per-key inserts"}
    # Bulk loading is faster and packs pages at least as tightly: 143 360 vs
    # 225 280 bytes (35 vs 55 pages; v1: 200 704 vs 299 008).  Both go through
    # the one overflow stream, so the difference is all leaves: inserts in key
    # order split every full leaf in half and never touch the left half again.
    # Seconds, three runs: bulk 0.007-0.012, inserts 0.39-0.82 (an insert
    # re-encodes the leaf it changes, front coding included).
    assert times["bulk load (sorted)"] <= times["per-key inserts"]
    assert sizes["bulk load (sorted)"] <= sizes["per-key inserts"] * 1.05
