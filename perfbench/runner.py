"""One run: the oracle, then ``plan.legs`` legs one after another, then the pooling.

This process never runs the program's query or build path.  It builds the
job (inputs plus the oracle's answers, untimed), starts each leg
(:mod:`perfbench.leg`) with the hash seed fixed, takes a tick of the
reference kernel whenever the leg asks for one, and pools what the legs
hand back:

* ``setup_s`` is the median of the legs' set-ups (one each, in a fresh
  directory, in a fresh process);
* ``queries_per_s`` comes from the group wall times of all legs,
  ``query_p50_ms`` / ``query_p95_ms`` from the pooled per-query samples;
* ``peak_rss_mb`` is the median leg's; ``index_bytes`` must be the same in
  every leg;
* a per-layer metric is the median of the legs' values.

A leg draws a fresh address-space layout; pooling several is what keeps
one lucky or unlucky layout from deciding a run.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import zlib
from dataclasses import dataclass
from typing import Dict, List

from perfbench import ROOT, hostclock
from perfbench.leg import DONE, outcome_path
from perfbench.measure import Plan, group_seconds, percentile

#: Everything a run writes lives under here; ``.gitignore`` names it.
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass
class Report:
    """The outcome of one run: contract metrics plus everything else worth printing."""

    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, object]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_one_leg(job_path: str, leg: int) -> Dict[str, object]:
    """Start leg number *leg*, serve its ticks, and load what it leaves behind."""
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.leg", job_path, str(leg)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    try:
        last = hostclock.serve_ticks(child.stdout, child.stdin, hostclock.tick)
    finally:
        child.stdin.close()
        child.stdout.close()
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if child.returncode != 0 or last != DONE:
        raise RuntimeError(f"leg {leg} exited with code {child.returncode} after {last!r}")
    with open(outcome_path(job_path, leg), "rb") as handle:
        return pickle.load(handle)


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "leg_hash_seed": "0",
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def time_metrics(
    setups: List[float], walls: List[float], samples: List[float], queries_per_group: int
) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": queries_per_group / group_seconds(walls),
        "query_p50_ms": percentile(ordered, 0.50) * 1e3,
        "query_p95_ms": percentile(ordered, 0.95) * 1e3,
    }


def pooled(outcomes: List[Dict[str, object]], key: str) -> List[float]:
    return [value for outcome in outcomes for value in outcome[key]]


def run_workload(workload_class: type, seed: int, plan: Plan, trace: bool) -> Report:
    """Run one workload to completion and return its report.

    The scratch directory is created under :data:`OUT_DIR` and removed on
    the way out, whatever happened.
    """
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        job = workload_class.make_job(plan, trace)
        job.update(workload=workload_class.name, seed=seed, plan=plan, trace=trace)
        job_path = os.path.join(scratch, "job")
        with open(job_path, "wb") as handle:
            pickle.dump(job, handle)
        outcomes = []
        for leg in range(plan.legs):
            outcomes.append(run_one_leg(job_path, leg))
            shutil.rmtree(f"{job_path}.dir{leg}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sizes = {outcome["index_bytes"] for outcome in outcomes}
    if len(sizes) != 1:
        raise RuntimeError(f"the legs disagree on the index size: {sorted(sizes)}")
    index_bytes = sizes.pop()
    attempted = sum(outcome["attempted"] for outcome in outcomes)
    failed = sum(outcome["failed"] for outcome in outcomes)
    queries_per_pass = len(job["queries"]) * workload_class.CYCLES
    queries_per_group = queries_per_pass * plan.passes_per_group
    setups = [outcome["setup"] for outcome in outcomes]
    end_to_end = time_metrics(
        [setup["total_s"] for setup in setups],
        pooled(outcomes, "walls"), pooled(outcomes, "samples"), queries_per_group,
    )
    end_to_end["index_bytes_per_node"] = index_bytes / job["live_nodes"]
    end_to_end["peak_rss_mb"] = statistics.median(o["peak_rss_mb"] for o in outcomes)
    raw = time_metrics(
        [setup["raw_total_s"] for setup in setups],
        pooled(outcomes, "raw_walls"), pooled(outcomes, "raw_samples"), queries_per_group,
    )
    info: Dict[str, object] = {
        "environment": environment(),
        "plan": vars(plan),
        "samples": len(pooled(outcomes, "samples")),
        "queries_per_pass": queries_per_pass,
        "oracle_total": job["oracle_total"],
        "index_bytes": index_bytes,
        "live_nodes": job["live_nodes"],
        "arrival_digest": zlib.crc32(
            "\n".join(text for o in outcomes for text in o["first_order"]).encode("utf-8")
        ),
        "raw": raw,
        "leg_setup_s": [setup["total_s"] for setup in setups],
        "leg_queries_per_s": [
            queries_per_group / group_seconds(outcome["walls"]) for outcome in outcomes
        ],
        "failures": [message for outcome in outcomes for message in outcome["failures"]][:5],
    }
    layers: Dict[str, float] = {}
    if trace:
        info["end_to_end"] = end_to_end
        layers = {
            name: statistics.median(outcome["layers"][name] for outcome in outcomes)
            for name in outcomes[0]["layers"]
        }
        write_trace(workload_class.name, seed, outcomes)
    return Report(
        workload=workload_class.name,
        seed=seed,
        trace=trace,
        attempted=attempted,
        failed=failed,
        metrics=layers if trace else end_to_end,
        info=info,
    )


def write_trace(workload: str, seed: int, outcomes: List[Dict[str, object]]) -> None:
    """Dump every leg's spans to ``perfbench/out/TRACE_<workload>.json``."""
    document = {
        "workload": workload,
        "seed": seed,
        "columns": ["name", "start", "end", "parent", "qid", "slice"],
        "legs": [
            {"slice_host_factors": outcome["slice_host_factors"], "spans": outcome["spans"]}
            for outcome in outcomes
        ],
    }
    path = OUT_DIR / f"TRACE_{workload}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
