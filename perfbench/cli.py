"""Command line: ``python -m perfbench run ...`` and ``python -m perfbench noise ...``."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from perfbench import ROOT
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    Every workload is one closed loop: whoever works, the rest wait.  Left
    on two virtual CPUs, each hand-over (client to server, event loop to
    worker thread, leg to tick) wakes a halted one, and how long the
    hypervisor takes over that swings with the load on the host.  On one
    CPU the tick also sees exactly the host the work sees.  The
    highest-numbered CPU is the one least busy with interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def result_line(report) -> str:
    """The one JSON object the contract asks for on the last line."""
    units = PER_LAYER if report.trace else END_TO_END
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
        },
    })


def print_report(report) -> None:
    units = PER_LAYER if report.trace else END_TO_END
    print(f"perfbench {report.workload} seed={report.seed} trace={int(report.trace)}")
    for key, value in report.info.items():
        print(f"  {key}: {json.dumps(value)}")
    print(f"  operations: attempted={report.attempted} failed={report.failed}")
    for name, unit in units.items():
        print(f"  {name:32s} {report.metrics[name]:16.6f} {unit}")
    print(result_line(report))


def run_command(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program is not in this checkout ({ROOT / 'src'})", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    from perfbench.runner import run_workload
    from perfbench.workloads import BY_NAME

    workload = BY_NAME[args.workload]
    plan = workload.base_plan.scaled(args.seconds, bool(args.trace))
    report = run_workload(workload, args.seed, plan, bool(args.trace))
    print_report(report)
    return 0 if report.correct else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload and print its metrics")
    run.add_argument("--workload", choices=WORKLOADS, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=int, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)

    noise = commands.add_parser(
        "noise", help="run everything back to back and compare the spread to the bounds"
    )
    noise.add_argument("--runs", type=int, default=5)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args)
    from perfbench.noise import noise_command

    return noise_command(args.runs)
