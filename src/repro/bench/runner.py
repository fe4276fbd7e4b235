"""The orchestrator: resolve, cross, measure, report.

One :class:`ExperimentRunner` owns a shared
:class:`~repro.bench.context.ExperimentContext` (so corpora and indexes are
built once across experiments).  It resolves a declared
:class:`~repro.bench.registry.Experiment` (scale, overrides), crosses its
independent variables row-major in declared order, calls the measure
function once per cell and assembles the rows into the result table, wraps
the measurement with warmup + environment capture, and emits two artefacts
per run into the output directory:

* ``<name>.txt`` -- the fixed-width table for humans / EXPERIMENTS.md;
* ``BENCH_<name>.json`` -- the schema-validated machine-readable document
  that ``benchmarks/conftest.py`` holds a run's non-timing cells to.
"""

from __future__ import annotations

import datetime
import gc
import inspect
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.bench.context import ExperimentContext
from repro.bench.registry import Experiment, get_experiment
from repro.bench.results import ExperimentResult
from repro.bench.schema import DOCUMENT_KIND, SCHEMA_VERSION, require_valid

#: Environment variable holding the default corpus-scale multiplier.
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


def json_filename(name: str) -> str:
    """The machine-readable artefact name of experiment *name*."""
    return f"BENCH_{name}.json"


def trace_filename(name: str) -> str:
    """The per-stage trace artefact name of experiment *name*."""
    return f"TRACE_{name}.json"


def capture_environment() -> Dict[str, object]:
    """The environment block stamped into every bench document."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "ci": bool(os.environ.get("CI")),
        "git_sha": _git_sha(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def build_document(
    experiment: Experiment,
    result: ExperimentResult,
    wall_seconds: float,
    scale: float = 1.0,
) -> Dict[str, object]:
    """Assemble and validate the bench document for one measured result.

    This is the single place the document shape is defined, so everything
    downstream of the schema -- the validator, the committed tables --
    sees one format.
    """
    document: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "experiment": experiment.name,
        "config": experiment.as_dict(scale=scale),
        "environment": capture_environment(),
        "measurement": {
            "wall_seconds": wall_seconds,
            "warmup_runs": experiment.warmup,
            "measured_runs": 1,
        },
        "result": result.to_dict(),
    }
    require_valid(json.loads(json.dumps(document)))
    return document


def write_artifacts(
    out_dir: str,
    name: str,
    result: ExperimentResult,
    document: Dict[str, object],
) -> Tuple[str, str]:
    """Write the ``<name>.txt`` and ``BENCH_<name>.json`` artefact pair."""
    os.makedirs(out_dir, exist_ok=True)
    text_path = os.path.join(out_dir, f"{name}.txt")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(result.to_text() + "\n")
    json_path = os.path.join(out_dir, json_filename(name))
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return text_path, json_path


def _git_sha() -> Optional[str]:
    """The current commit SHA, or None outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


@dataclass
class RunReport:
    """Everything one experiment run produced."""

    #: The experiment as it ran (post-scaling, overrides applied).
    experiment: Experiment
    result: ExperimentResult
    document: Dict[str, object]
    wall_seconds: float
    #: Artefact paths (None when the runner writes no files).
    json_path: Optional[str] = None
    text_path: Optional[str] = None
    #: ``TRACE_<name>.json`` path (None unless the runner traces).
    trace_path: Optional[str] = None

    @property
    def params(self) -> Dict[str, object]:
        """Fixed parameters and crossed levels the measure function saw."""
        return self.experiment.parameters()


class ExperimentRunner:
    """Runs declared experiments and reports text + JSON artefacts."""

    def __init__(
        self,
        workdir: Optional[str] = None,
        out_dir: Optional[str] = None,
        seed: int = 17,
        scale: Optional[float] = None,
        trace: bool = False,
    ) -> None:
        if scale is None:
            scale = float(os.environ.get(SCALE_ENV_VAR, "1.0"))
        if not 0 < scale < float("inf"):  # NaN too; refused before a directory is made
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if workdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
            workdir = self._tempdir.name
        else:
            self._tempdir = None
        self.workdir = workdir
        self.out_dir = out_dir
        self.seed = seed
        self.scale = scale
        self.trace = trace
        self.context = ExperimentContext(workdir=workdir, seed=seed)

    # ------------------------------------------------------------------
    def resolve(
        self,
        experiment: Union[str, Experiment],
        overrides: Optional[Dict[str, object]] = None,
    ) -> Experiment:
        """The experiment as it will run: looked up, scaled, then overridden.

        *overrides* replace a crossed variable's levels or a fixed parameter
        after scaling (the benchmark wrappers and ``repro loadtest`` use this).
        """
        if isinstance(experiment, str):
            experiment = get_experiment(experiment)
        return experiment.scaled(self.scale).with_params(**(overrides or {}))

    def measure(self, experiment: Experiment) -> ExperimentResult:
        """One pass over the design: every cell measured, rows in cross order.

        A cell's function returns one row's values (a tuple, or a bare value
        for a single column) or yields several rows, each led by the reported
        variables' values.  A row that does not fill the declared columns
        fails here, under the experiment's name.
        """
        result = ExperimentResult(
            name=experiment.title,
            description=experiment.render(experiment.description),
            columns=experiment.columns,
        )
        fixed = dict(experiment.params)
        if "levels" in inspect.signature(experiment.measure).parameters:
            fixed["levels"] = experiment.crossed
        # What a row carries: the reported variables' values, then the value columns.
        expected = [column for column in experiment.columns if column not in experiment.crossed]
        for cell in experiment.cells():
            measured = experiment.measure(self.context, **cell, **fixed)
            if not inspect.isgenerator(measured):
                measured = [measured if isinstance(measured, tuple) else (measured,)]
            for row in measured:
                if len(row) != len(expected):
                    raise ValueError(
                        f"experiment {experiment.name!r}: cell {cell} returned {len(row)} values "
                        f"{row!r}, declared {len(expected)}: {expected}"
                    )
                rest = iter(row)
                keys = [cell[name] if name in cell else next(rest) for name in experiment.variables]
                result.add_row(*keys, *rest)
        for note in experiment.notes:
            result.add_note(experiment.render(note))
        return result

    def run(
        self,
        experiment: Union[str, Experiment],
        overrides: Optional[Dict[str, object]] = None,
        write: bool = True,
    ) -> RunReport:
        """Run one experiment: warmup, measure, validate, emit artefacts.

        ``write=False`` skips the artefact files but still builds and
        validates the JSON document.
        """
        experiment = self.resolve(experiment, overrides)
        for _ in range(experiment.warmup):
            self.measure(experiment)
        # A full collection walks every resident posting column (~0.1 s with a
        # few indexes open) and would land inside whichever timed pass crosses
        # the threshold; pay for the garbage of earlier runs here instead.
        gc.collect()
        # Warmups run untraced: the trace artefact describes the measured
        # run only.  An externally enabled tracer is left alone (and its
        # ring is not dumped -- it is not ours).
        tracer: Optional[obs.Tracer] = None
        if self.trace and not obs.enabled():
            tracer = obs.enable(obs.Tracer(capacity=4096))
        started = time.perf_counter()
        try:
            result = self.measure(experiment)
        finally:
            if tracer is not None:
                obs.disable()
        wall_seconds = time.perf_counter() - started

        document = build_document(experiment, result, wall_seconds, scale=self.scale)
        report = RunReport(
            experiment=experiment, result=result, document=document, wall_seconds=wall_seconds
        )
        if write and self.out_dir is not None:
            report.text_path, report.json_path = write_artifacts(
                self.out_dir, experiment.name, result, document
            )
            if tracer is not None:
                from repro.obs.sinks import write_chrome_trace

                records = tracer.last(len(tracer.recent))
                report.trace_path = os.path.join(
                    self.out_dir, trace_filename(experiment.name)
                )
                write_chrome_trace(
                    report.trace_path,
                    records,
                    metadata={
                        "reproExperiment": experiment.name,
                        "reproTraceCount": len(records),
                        "reproStageTotals": obs.stage_totals(records),
                    },
                )
        return report

    def run_many(
        self,
        experiments: List[Union[str, Experiment]],
        write: bool = True,
    ) -> List[RunReport]:
        """Run several experiments over the shared context, in order."""
        return [self.run(experiment, write=write) for experiment in experiments]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every cached index and drop an owned temp workdir."""
        self.context.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
