"""One leg of a run: a fresh process that sets up once and measures.

Run by :mod:`perfbench.runner` as ``python -m perfbench.leg JOB LEG``.
The leg is the only process that runs the program (bar the server child
of ``http_hot_rs``, which it starts), so its peak RSS is the program's
and its memory layout -- drawn anew by the kernel for every leg -- is one
of the several a run averages over.  It reads its job from the pickle the
runner wrote, asks the runner for ticks on stdout/stdin, leaves its
outcome in a pickle beside the job and says ``done``.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Dict, List

from repro import obs

from perfbench.hostclock import RemoteClock
from perfbench.measure import measure
from perfbench.spans import SpanLog
from perfbench.workloads import BY_NAME

DONE = "done\n"


def outcome_path(job_path: str, leg: int) -> str:
    return f"{job_path}.leg{leg}"


def run_leg(
    job: Dict[str, object], leg: int, directory: str, clock: RemoteClock
) -> Dict[str, object]:
    """Set up -> warm up -> measure (-> measure traced) -> account."""
    if obs.enabled():
        raise RuntimeError("repro.obs tracing is enabled; the benchmark measures with it off")
    plan, trace = job["plan"], job["trace"]
    workload = BY_NAME[job["workload"]](job, leg, directory, clock)
    outcome: Dict[str, object] = {}
    try:
        setup = workload.set_up()
        workload.warm_up()
        measured = measure(plan, workload.run_pass, clock)
        if trace:
            log = SpanLog()
            traced = measure(plan, workload.run_pass, clock, log)
        outcome.update(workload.finish())
        if trace:
            outcome["layers"] = workload.layer_metrics(setup, measured, traced, log)
            outcome["spans"] = log.rows
            outcome["slice_host_factors"] = log.factors
    finally:
        workload.close()
    if obs.enabled():
        raise RuntimeError("repro.obs tracing was switched on during the leg")
    tally = workload.tally
    outcome.update(
        setup=setup,
        walls=measured.walls,
        raw_walls=measured.raw_walls,
        samples=measured.samples,
        raw_samples=measured.raw_samples,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.messages,
        first_order=workload.first_order,
    )
    return outcome


def main(argv: List[str]) -> int:
    job_path, leg = argv[0], int(argv[1])
    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    directory = f"{job_path}.dir{leg}"
    os.mkdir(directory)
    outcome = run_leg(job, leg, directory, RemoteClock(sys.stdout, sys.stdin))
    with open(outcome_path(job_path, leg), "wb") as handle:
        pickle.dump(outcome, handle)
    sys.stdout.write(DONE)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
