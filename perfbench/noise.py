"""``python -m perfbench noise``: is the benchmark steadier than its bounds?

Runs every workload ``--runs`` times back to back, run *n* with seed *n*
(as the driver does; the seed draws arrival order only, so the counts and
``index_bytes_per_node`` must come out identical), and prints per workload
x end-to-end metric the median, the quartiles, the distance between the
quartiles as a share of the median (the spread the driver computes) and
(max - min) / median, and then the same for the raw wall-clock twin of every
time metric in the same runs, which shows what host normalisation took out.
Exits 1 when a metric's (max - min) / median exceeds its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Dict, List

from perfbench import ROOT
from perfbench.spec import load_contract

_RAW_LINE = "  raw: "


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One untraced run in its own process; returns ``metric -> value``,
    the raw wall-clock twin of a time metric under ``raw <metric>``."""
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited with code {completed.returncode}:\n{completed.stderr}"
        )
    lines = completed.stdout.splitlines()
    values = {name: metric["value"] for name, metric in json.loads(lines[-1])["metrics"].items()}
    raw = json.loads(next(line for line in lines if line.startswith(_RAW_LINE))[len(_RAW_LINE):])
    values.update({f"raw {name}": value for name, value in raw.items()})
    return values


def noise_command(runs: int) -> int:
    if runs < 2:
        print("noise: need at least 2 runs to take quartiles", file=sys.stderr)
        return 2
    contract = load_contract()
    command = [sys.executable, *contract["command"][1:]]
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    exceeded = 0
    print(f"noise: {runs} runs per workload, seeds 1..{runs}, --seconds {contract['run_seconds']}")
    print(f"{'workload':12s} {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    for workload in (entry["name"] for entry in contract["workloads"]):
        series: Dict[str, List[float]] = {}
        for seed in range(1, runs + 1):
            for name, value in run_once(command, workload, seed, contract["run_seconds"]).items():
                series.setdefault(name, []).append(value)
        for name, values in series.items():
            median = statistics.median(values)
            first, _, third = statistics.quantiles(values, n=4)
            spread = (max(values) - min(values)) / median
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                exceeded += 1
                flag = "  EXCEEDS BOUND"
            print(f"{workload:12s} {name:24s} {median:12.4f} {first:12.4f} {third:12.4f} "
                  f"{(third - first) / median:8.4f} {spread:9.4f} "
                  f"{'' if bound is None else format(bound, '6.3f'):>6s}{flag}", flush=True)
    print(f"noise: {exceeded} range(s) over their bound")
    return 1 if exceeded else 0
