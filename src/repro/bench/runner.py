"""The experiment runner: build, measure, report.

One :class:`ExperimentRunner` owns a shared
:class:`~repro.bench.context.ExperimentContext` (so corpora and indexes are
built once across experiments), resolves registered configs, wraps every
measurement with warmup + environment capture, and emits two artefacts per
run into the output directory:

* ``<name>.txt`` -- the fixed-width table for humans / EXPERIMENTS.md;
* ``BENCH_<name>.json`` -- the schema-validated machine-readable document
  the regression gate diffs across commits.
"""

from __future__ import annotations

import datetime
import gc
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.bench.config import ExperimentConfig
from repro.bench.context import ExperimentContext
from repro.bench.registry import get_config, run_config
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
    config: ExperimentConfig,
    result: ExperimentResult,
    wall_seconds: float,
    scale: float = 1.0,
    warmup_runs: int = 0,
    measured_runs: int = 1,
) -> Dict[str, object]:
    """Assemble and validate the bench document for one measured result.

    This is the single place the document shape is defined; both
    :meth:`ExperimentRunner.run` and ``repro loadtest`` (which measures
    against a user-supplied index, outside any runner context) build their
    artefacts through it, so everything downstream of the schema -- the
    validator, the regression gate, the committed baselines -- sees one
    format.
    """
    document: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "experiment": config.name,
        "config": config.as_dict(scale=scale),
        "environment": capture_environment(),
        "measurement": {
            "wall_seconds": wall_seconds,
            "warmup_runs": warmup_runs,
            "measured_runs": measured_runs,
        },
        "result": result.to_dict(),
    }
    require_valid(json.loads(json.dumps(document)))
    return document


def write_artifacts(
    out_dir: str,
    config: ExperimentConfig,
    result: ExperimentResult,
    document: Dict[str, object],
) -> Tuple[str, str]:
    """Write the ``<name>.txt`` and ``BENCH_<name>.json`` artefact pair."""
    os.makedirs(out_dir, exist_ok=True)
    text_path = os.path.join(out_dir, f"{config.name}.txt")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(result.to_text() + "\n")
    json_path = os.path.join(out_dir, json_filename(config.name))
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

    config: ExperimentConfig
    #: The parameters actually passed to the runner (post-scaling).
    params: Dict[str, object]
    result: ExperimentResult
    document: Dict[str, object]
    wall_seconds: float
    #: Artefact paths (None when the runner writes no files).
    json_path: Optional[str] = None
    text_path: Optional[str] = None
    #: ``TRACE_<name>.json`` path (None unless the runner traces).
    trace_path: Optional[str] = None


class ExperimentRunner:
    """Runs registered experiments and reports text + JSON artefacts."""

    def __init__(
        self,
        workdir: Optional[str] = None,
        out_dir: Optional[str] = None,
        seed: int = 17,
        scale: Optional[float] = None,
        trace: bool = False,
    ) -> None:
        self._owns_workdir = workdir is None
        if workdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
            workdir = self._tempdir.name
        else:
            self._tempdir = None
        self.workdir = workdir
        self.out_dir = out_dir
        self.seed = seed
        if scale is None:
            scale = float(os.environ.get(SCALE_ENV_VAR, "1.0"))
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.trace = trace
        self.context = ExperimentContext(workdir=workdir, seed=seed)

    # ------------------------------------------------------------------
    def resolve(self, experiment: Union[str, ExperimentConfig]) -> ExperimentConfig:
        """Look up a name in the registry, or pass a config through."""
        if isinstance(experiment, ExperimentConfig):
            return experiment
        return get_config(experiment)

    def run(
        self,
        experiment: Union[str, ExperimentConfig],
        overrides: Optional[Dict[str, object]] = None,
        write: bool = True,
    ) -> RunReport:
        """Run one experiment: warmup, measure, validate, emit artefacts.

        *overrides* replace individual runner parameters after scaling (the
        benchmark wrappers use this for one-off knobs); ``write=False``
        skips the artefact files but still builds and validates the JSON
        document.
        """
        config = self.resolve(experiment).scaled(self.scale)
        if overrides:
            config = config.with_params(**overrides)
        params = dict(config.params)

        for _ in range(config.warmup):
            run_config(config, self.context)
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
            result = run_config(config, self.context)
        finally:
            if tracer is not None:
                obs.disable()
        wall_seconds = time.perf_counter() - started

        document = build_document(
            config, result, wall_seconds, scale=self.scale, warmup_runs=config.warmup
        )

        report = RunReport(
            config=config,
            params=params,
            result=result,
            document=document,
            wall_seconds=wall_seconds,
        )
        if write and self.out_dir is not None:
            report.text_path, report.json_path = write_artifacts(
                self.out_dir, config, result, document
            )
            if tracer is not None:
                from repro.obs.sinks import write_chrome_trace

                records = tracer.last(len(tracer.recent))
                report.trace_path = os.path.join(
                    self.out_dir, trace_filename(config.name)
                )
                write_chrome_trace(
                    report.trace_path,
                    records,
                    metadata={
                        "reproExperiment": config.name,
                        "reproTraceCount": len(records),
                        "reproStageTotals": obs.stage_totals(records),
                    },
                )
        return report

    def run_many(
        self,
        experiments: List[Union[str, ExperimentConfig]],
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
