"""Experiment declarations and the central registry.

An experiment is declared once, on its *measure function*
(:mod:`repro.bench.experiments`), with the :func:`experiment` decorator::

    @experiment(
        title="Figure 8",
        description="Subtree index size (bytes) for the three codings",
        variables={"sentences": (100, 400, 1_200), "coding": CODINGS, "mss": (1, 2, 3, 4, 5)},
        values={"size_bytes": "lower", "build_seconds": "timing:lower"},
    )
    def figure8_index_size(context, sentences, coding, mss):
        index = context.subtree_index(sentences, coding, mss)
        return index.size_bytes(), index.metadata.build_seconds

* **variables** -- the independent variables, in column order.  One with
  levels is *crossed* by the orchestrator
  (:class:`~repro.bench.runner.ExperimentRunner`), row-major in declared
  order, and reaches the function as a keyword; one declared
  :data:`REPORTED` is reported by the function itself, which then ``yield``s
  several rows per cell, each starting with the reported variables' values
  (Figure 11's match bins, Table 2's classes and systems).  The variables are
  the row identity (``key_columns``).
* **values** -- the measured columns, each with its direction:
  ``"lower"`` / ``"higher"`` is better that way, ``"exact"`` must not move, ``"timing"`` marks a wall-clock cell (masked by determinism
  checks, never compared for equality), ``"timing:lower"`` both, ``None``
  only reports it.  The table header is variables + values.
* **fixed parameters** are the function's keyword defaults; ``sentences``
  -- variable or parameter -- is the corpus size the scale factor multiplies.
  ``description`` and ``notes`` are templates over the parameters and the
  crossed variables' level tuples (``"{coding}, mss={mss}"``,
  ``"{shards[0]}-shard"``).

The name is the function's.  The ``benchmarks/test_*`` files, the ``repro
bench`` CLI and ``repro loadtest`` all resolve experiments through this
registry, so corpus sizes, row identities and metric directions live in
exactly one place.  Default levels are the laptop-scale sizes
the committed numbers in ``benchmarks/results/`` were measured at; pass a
scale factor (or set ``REPRO_BENCH_SCALE``) to shrink or grow every corpus
proportionally.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.bench.schema import METRIC_DIRECTIONS

#: Levels of a variable the measure function reports itself (see module doc).
REPORTED = None

#: The corpus-size variable / parameter; ``scaled()`` multiplies it.
SIZE = "sentences"

#: Marks a wall-clock value column (``"timing"``, ``"timing:lower"``).
TIMING = "timing"

#: Everything a value column may be declared as.
_VALUE_SPECS = (None, TIMING, *METRIC_DIRECTIONS, *(f"{TIMING}:{d}" for d in METRIC_DIRECTIONS))

#: ``warmup`` of the experiments that time every query *once*: the join runs a
#: kernel generated per plan shape (:mod:`repro.exec.codegen`) and the first
#: execution of a shape in a process pays ~0.5 ms to compile it -- more than
#: the query.  One discarded run leaves every shape compiled, so the measured
#: run is steady state, like ``perfbench``'s (``docs/benchmarks.md``).
STEADY_STATE = 1


class UnknownExperimentError(KeyError):
    """No experiment with the requested name is registered."""


@dataclass(frozen=True)
class Experiment:
    """One declared experiment: measure function + design + column semantics."""

    #: ``measure(context, **cell)`` -> one row's values, or a generator of rows.
    measure: Callable[..., object]
    #: Human title, e.g. ``"Figure 8"`` (the result table's name).
    title: str
    #: What the experiment measures; a template over :meth:`parameters`.
    description: str
    #: Independent variable -> levels (crossed) or :data:`REPORTED`.
    variables: Mapping[str, Optional[Tuple[object, ...]]] = field(default_factory=dict)
    #: Value column -> ``None`` / direction / ``"timing"`` / ``"timing:<direction>"``.
    values: Mapping[str, Optional[str]] = field(default_factory=dict)
    #: Fixed keyword arguments of *measure* (its signature's defaults).
    params: Mapping[str, object] = field(default_factory=dict)
    #: Free-text notes rendered below the table; templates like *description*.
    notes: Tuple[str, ...] = ()
    #: Seed of the experiment context (corpora are functions of (seed, size)).
    seed: int = 17
    #: Discarded runs of the whole experiment before the measured one.
    warmup: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", {
            name: levels if levels is REPORTED else tuple(levels)
            for name, levels in self.variables.items()
        })
        object.__setattr__(self, "values", dict(self.values))
        object.__setattr__(self, "params", dict(self.params))
        for column, spec in self.values.items():
            if spec not in _VALUE_SPECS:
                raise ValueError(
                    f"experiment {self.name!r}: value column {column!r} is declared {spec!r}, "
                    f"expected one of {_VALUE_SPECS}"
                )
        if self.warmup < 0:
            raise ValueError(f"experiment {self.name!r}: warmup must be >= 0")
        self._check_signature()

    def _check_signature(self) -> None:
        """The design must be callable: fail at declaration, not mid-run."""
        _context, *parameters = inspect.signature(self.measure).parameters.values()
        named = [p for p in parameters if p.kind is not p.VAR_KEYWORD]
        required = {p.name for p in named if p.default is p.empty}
        problems = [
            f"column {name!r} is both a variable and a value"
            for name in self.variables if name in self.values
        ] + [
            f"argument {name!r} has no default and is not a crossed variable"
            for name in sorted(required - set(self.crossed) - {"levels"})
        ]
        if len(named) == len(parameters):  # no **kwargs to take whatever is passed
            accepted = {p.name for p in named}
            problems += [
                f"the function takes no argument {name!r}"
                for name in (*self.crossed, *self.params) if name not in accepted
            ]
        if len(self.crossed) < len(self.variables) and not inspect.isgeneratorfunction(self.measure):
            problems.append("a reported variable needs a generator function (one yield per row)")
        if problems:
            raise ValueError(f"experiment {self.name!r}: " + "; ".join(problems))

    # ------------------------------------------------------------------
    # What the declaration implies
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Registry name; also the stem of ``BENCH_<name>.json`` / ``<name>.txt``."""
        return self.measure.__name__

    @property
    def crossed(self) -> Dict[str, Tuple[object, ...]]:
        """The variables the orchestrator crosses, with their levels."""
        return {name: levels for name, levels in self.variables.items() if levels is not REPORTED}

    @property
    def columns(self) -> List[str]:
        """The table header: variables, then value columns."""
        return [*self.variables, *self.values]

    @property
    def metrics(self) -> Dict[str, str]:
        """Gated value columns -> direction (``lower`` / ``higher`` / ``exact``)."""
        directions = {column: (spec or "").rpartition(":")[2] for column, spec in self.values.items()}
        return {column: way for column, way in directions.items() if way in METRIC_DIRECTIONS}

    @property
    def timing_columns(self) -> List[str]:
        """Value columns holding wall-clock measurements."""
        return [column for column, spec in self.values.items() if (spec or "").startswith(TIMING)]

    def parameters(self) -> Dict[str, object]:
        """What ``description`` / ``notes`` templates and the document's
        ``params`` block see: fixed parameters plus each crossed variable's levels."""
        return {**self.params, **self.crossed}

    def render(self, template: str) -> str:
        """*template* (the description, a note) filled in from :meth:`parameters`."""
        return template.format(**self.parameters())

    def cells(self) -> Iterator[Dict[str, object]]:
        """The cross of the crossed variables, row-major in declared order."""
        names = list(self.crossed)
        for combination in itertools.product(*self.crossed.values()):
            yield dict(zip(names, combination))

    # ------------------------------------------------------------------
    # Derived copies (a registry entry is never mutated)
    # ------------------------------------------------------------------
    def with_params(self, **overrides: object) -> "Experiment":
        """A copy with a crossed variable's levels or a fixed parameter replaced."""
        variables, params = dict(self.variables), dict(self.params)
        for name, value in overrides.items():
            if name in self.crossed:
                variables[name] = value  # type: ignore[assignment]
            elif name in params:
                params[name] = value
            else:
                raise ValueError(
                    f"experiment {self.name!r} has no variable or parameter {name!r} "
                    f"(known: {', '.join(self.parameters())})"
                )
        return replace(self, variables=variables, params=params)

    def scaled(self, factor: float) -> "Experiment":
        """A copy whose corpus size (:data:`SIZE`) is multiplied by *factor*.

        Every scaled size is clamped to at least one sentence; levels that
        collapse onto one size are kept once, in order, so no two cells (and
        no two rows) share a key.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        if factor == 1.0 or SIZE not in self.parameters():
            return self

        def scale(size: int) -> int:
            return max(1, int(size * factor))

        if SIZE in self.params:
            return self.with_params(**{SIZE: scale(self.params[SIZE])})  # type: ignore[arg-type]
        levels = tuple(dict.fromkeys(scale(size) for size in self.crossed[SIZE]))  # type: ignore[arg-type]
        return self.with_params(**{SIZE: levels})

    def without(self, *columns: str) -> "Experiment":
        """A copy that does not report the given value columns."""
        return replace(self, values={c: s for c, s in self.values.items() if c not in columns})

    # ------------------------------------------------------------------
    def as_dict(self, scale: float = 1.0) -> Dict[str, object]:
        """The JSON form embedded in a bench document (its ``config`` block)."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.render(self.description),
            "runner": self.name,
            "seed": self.seed,
            "scale": float(scale),
            "params": self.parameters(),
            "key_columns": list(self.variables),
            "metrics": self.metrics,
            "timing_columns": self.timing_columns,
        }


_REGISTRY: Dict[str, Experiment] = {}


def register(declared: Experiment, replace: bool = False) -> Experiment:
    """Add *declared* to the registry (``replace=True`` to overwrite)."""
    if declared.name in _REGISTRY and not replace:
        raise ValueError(f"experiment {declared.name!r} is already registered")
    _REGISTRY[declared.name] = declared
    return declared


def experiment(**declaration: object) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Declare and register the decorated measure function (see module doc).

    The function's keyword defaults become the fixed parameters; the
    function itself is returned unchanged, so one cell can be measured by
    calling it.
    """

    def declare(measure: Callable[..., object]) -> Callable[..., object]:
        defaults = {
            parameter.name: parameter.default
            for parameter in inspect.signature(measure).parameters.values()
            if parameter.default is not parameter.empty
        }
        register(Experiment(measure=measure, params=defaults, **declaration))  # type: ignore[arg-type]
        return measure

    return declare


def get_experiment(name: str) -> Experiment:
    """The registered experiment named *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownExperimentError(f"unknown experiment {name!r} (known: {known})") from None


def experiment_names() -> List[str]:
    """All registered experiment names, in registration order."""
    return list(_REGISTRY)


def all_experiments() -> List[Experiment]:
    """All registered experiments, in registration order."""
    return list(_REGISTRY.values())
