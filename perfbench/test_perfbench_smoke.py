"""Smoke test of the benchmark itself, at 60 sentences and a handful of passes.

Checks what a later change to ``perfbench/`` or ``BENCHMARK.json`` could
silently break: the names and units the contract lists are the ones the
code prints, every value is a finite number, no operation fails, the
deterministic fields are the same on every run and every seed while the
arrival order moves with the seed, and a wrong oracle entry is reported as
a failure rather than absorbed.
"""

from __future__ import annotations

import json
import math

import pytest

from perfbench import workloads
from perfbench.cli import result_line
from perfbench.oracle import Oracle
from perfbench.measure import Plan
from perfbench.runner import run_workload
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS, load_contract

#: (groups, passes per group) small enough for tier-1; a live group must
#: still hold the round that compacts.
_TINY = {
    "wh_exec_rs": (2, 1),
    "fb_point_rs": (2, 2),
    "http_hot_rs": (1, 1),
    "live_rw_rs": (1, workloads.LiveRwRs.COMPACT_EVERY),
}


def run_tiny(name: str, seed: int, trace: bool = False, passes: int = 0):
    groups, default_passes = _TINY[name]
    passes = passes or default_passes
    plan = Plan(sentences=60, legs=1, warmup_passes=1, groups=groups, passes_per_group=passes)
    return run_workload(workloads.BY_NAME[name], seed, plan, trace)


def test_contract_lists_what_the_code_reports():
    contract = load_contract()
    assert [entry["name"] for entry in contract["workloads"]] == list(WORKLOADS)
    assert set(workloads.BY_NAME) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER
    assert contract["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_reported_finite_with_no_failed_operation(name):
    report = run_tiny(name, seed=3, trace=True)
    assert report.failed == 0 and report.correct and report.attempted >= 1
    assert set(report.metrics) == set(PER_LAYER)
    assert set(report.info["end_to_end"]) == set(END_TO_END)
    for value in [*report.metrics.values(), *report.info["end_to_end"].values()]:
        assert math.isfinite(value)
    assert all(value > 0 for value in report.info["end_to_end"].values())
    line = json.loads(result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == PER_LAYER


def deterministic_fields(report) -> tuple:
    return (
        report.attempted,
        report.metrics["index_bytes_per_node"],
        report.info["index_bytes"],
        report.info["live_nodes"],
        report.info["oracle_total"],
        report.info["samples"],
    )


@pytest.mark.parametrize("name", ["wh_exec_rs", "live_rw_rs"])
def test_the_seed_draws_the_arrival_order_and_nothing_else(name):
    # Two rounds are enough here (fsync makes a live round the slow part).
    first, again, other = (run_tiny(name, seed, passes=2) for seed in (5, 5, 6))
    assert first.failed == again.failed == other.failed == 0
    assert deterministic_fields(first) == deterministic_fields(again) == deterministic_fields(other)
    assert first.info["arrival_digest"] == again.info["arrival_digest"]
    assert first.info["arrival_digest"] != other.info["arrival_digest"]
    line = json.loads(result_line(first))
    assert {n: m["unit"] for n, m in line["metrics"].items()} == END_TO_END


def test_a_corrupted_oracle_entry_is_a_failed_operation(monkeypatch):
    class OffByOne(Oracle):
        def __init__(self, queries, trees):
            super().__init__(queries, trees)
            row = next(row for row in self.table.values() if row)
            tid = next(iter(row))
            row[tid] += 1

    monkeypatch.setattr(workloads, "Oracle", OffByOne)
    report = run_tiny("wh_exec_rs", seed=5)
    assert report.failed > 0 and not report.correct
    assert report.failed < report.attempted  # only the corrupted query fails
    assert json.loads(result_line(report))["correct"] is False
