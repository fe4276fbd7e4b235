"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.bench.results` -- the generic tabular result container with a
  plain-text renderer and a JSON round-trip shared by all experiments.
* :mod:`repro.bench.context` -- a small laboratory object that builds and
  caches corpora, data files and indexes inside a working directory so the
  individual experiments do not repeat expensive setup.
* :mod:`repro.bench.registry` -- :class:`Experiment`, the one declaration an
  experiment has (title, description, independent variables with levels,
  value columns and their gate / timing semantics, notes), the
  :func:`experiment` decorator that puts it on a measure function, and the
  central registry every benchmark resolves through.
* :mod:`repro.bench.experiments` -- one declared *measure function* per
  table/figure of the paper's Section 6 (Figures 2, 3, 8--13 and Tables
  1--3) plus the serving/sharding/live-index experiments; each measures one
  cell of its design.
* :mod:`repro.bench.runner` -- the orchestrator: :class:`ExperimentRunner`
  scales and crosses the declared variables, calls the measure function per
  cell, builds the :class:`ExperimentResult`, and owns warmup, environment
  capture, text tables and schema-validated ``BENCH_<experiment>.json``.
* :mod:`repro.bench.gate` -- the regression gate diffing two runs'
  ``BENCH_*.json`` with tolerance bands (``repro bench gate``).
* :mod:`repro.bench.schema` -- the versioned document schema and the
  stdlib validator.

See ``docs/benchmarks.md`` for how to add an experiment, the JSON schema and
how to read a perf trajectory across commits.
"""

from repro.bench import experiments  # registers the built-in experiments
from repro.bench.context import ExperimentContext
from repro.bench.gate import GateOptions, GateReport, compare, compare_directories
from repro.bench.guard import timing_bars_enabled
from repro.bench.registry import (
    Experiment,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
    register,
)
from repro.bench.results import ExperimentResult
from repro.bench.runner import ExperimentRunner, RunReport
from repro.bench.schema import SCHEMA_VERSION, SchemaError, require_valid, validate_document

__all__ = [
    "Experiment",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentRunner",
    "RunReport",
    "GateOptions",
    "GateReport",
    "compare",
    "compare_directories",
    "SCHEMA_VERSION",
    "SchemaError",
    "require_valid",
    "validate_document",
    "experiment",
    "register",
    "get_experiment",
    "all_experiments",
    "experiment_names",
    "timing_bars_enabled",
    "experiments",
]
