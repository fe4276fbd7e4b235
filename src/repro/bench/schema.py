"""Schema of the machine-readable ``BENCH_<experiment>.json`` documents.

Every experiment run emits one JSON document describing *what* was measured
(the resolved config), *where* (the captured environment), and *what came
out* (the result table plus notes).  The schema is validated with plain
stdlib code -- no ``jsonschema`` dependency -- and is versioned so a
reader can refuse documents it does not understand.

Volatile fields (wall-clock measurements, timestamps) are declared here so
the determinism tests and ``benchmarks/conftest.py`` -- which holds every
non-timing cell of a run to the committed table -- agree on what "the same
result" means across two runs.
"""

from __future__ import annotations

import copy
from typing import Dict, List

#: Bumped whenever the document layout changes incompatibly.
SCHEMA_VERSION = 1

#: The ``kind`` discriminator of every bench document.
DOCUMENT_KIND = "repro-bench-result"

#: Allowed metric directions (see :mod:`repro.bench.registry`).
METRIC_DIRECTIONS = ("lower", "higher", "exact")


class SchemaError(ValueError):
    """A bench JSON document does not conform to the declared schema."""


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def _check(errors: List[str], mapping: object, path: str, fields: Dict[str, type]) -> bool:
    """Require *mapping* to be a dict carrying typed *fields*; collect errors."""
    if not isinstance(mapping, dict):
        errors.append(f"{path}: expected an object, got {type(mapping).__name__}")
        return False
    for name, expected in fields.items():
        if name not in mapping:
            errors.append(f"{path}.{name}: missing required field")
        elif expected is float:
            if not isinstance(mapping[name], (int, float)) or isinstance(mapping[name], bool):
                errors.append(f"{path}.{name}: expected a number")
        elif expected is int:
            if not isinstance(mapping[name], int) or isinstance(mapping[name], bool):
                errors.append(f"{path}.{name}: expected an integer")
        elif not isinstance(mapping[name], expected):
            errors.append(f"{path}.{name}: expected {expected.__name__}")
    return True


def validate_document(document: object) -> List[str]:
    """All schema violations of *document* (empty when it is valid)."""
    errors: List[str] = []
    if not _check(
        errors,
        document,
        "$",
        {
            "schema_version": int,
            "kind": str,
            "experiment": str,
            "config": dict,
            "environment": dict,
            "measurement": dict,
            "result": dict,
        },
    ):
        return errors
    assert isinstance(document, dict)

    if document.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"$.schema_version: expected {SCHEMA_VERSION}, got {document.get('schema_version')!r}"
        )
    if document.get("kind") != DOCUMENT_KIND:
        errors.append(f"$.kind: expected {DOCUMENT_KIND!r}, got {document.get('kind')!r}")

    config = document.get("config", {})
    if _check(
        errors,
        config,
        "$.config",
        {
            "name": str,
            "title": str,
            "description": str,
            "runner": str,
            "seed": int,
            "scale": float,
            "params": dict,
            "key_columns": list,
            "metrics": dict,
            "timing_columns": list,
        },
    ):
        if document.get("experiment") != config.get("name"):
            errors.append("$.experiment: must equal $.config.name")
        for direction in config.get("metrics", {}).values():
            if direction not in METRIC_DIRECTIONS:
                errors.append(
                    f"$.config.metrics: direction {direction!r} not in {METRIC_DIRECTIONS}"
                )

    _check(
        errors,
        document.get("environment", {}),
        "$.environment",
        {
            "python": str,
            "implementation": str,
            "platform": str,
            "cpu_count": int,
            "ci": bool,
            "generated_at": str,
        },
    )
    # git_sha is required but nullable (a source tarball has no repository).
    environment = document.get("environment", {})
    if isinstance(environment, dict):
        if "git_sha" not in environment:
            errors.append("$.environment.git_sha: missing required field")
        elif environment["git_sha"] is not None and not isinstance(environment["git_sha"], str):
            errors.append("$.environment.git_sha: expected a string or null")

    _check(
        errors,
        document.get("measurement", {}),
        "$.measurement",
        {"wall_seconds": float, "warmup_runs": int, "measured_runs": int},
    )

    result = document.get("result", {})
    if _check(
        errors,
        result,
        "$.result",
        {"name": str, "description": str, "columns": list, "rows": list, "notes": list},
    ):
        columns = result.get("columns", [])
        if not all(isinstance(column, str) for column in columns):
            errors.append("$.result.columns: every column name must be a string")
        for position, row in enumerate(result.get("rows", [])):
            if not isinstance(row, list):
                errors.append(f"$.result.rows[{position}]: expected a list")
            elif len(row) != len(columns):
                errors.append(
                    f"$.result.rows[{position}]: has {len(row)} cells, expected {len(columns)}"
                )
            elif not all(_is_scalar(cell) for cell in row):
                errors.append(f"$.result.rows[{position}]: cells must be JSON scalars")
        if not all(isinstance(note, str) for note in result.get("notes", [])):
            errors.append("$.result.notes: every note must be a string")

        config_columns = set(columns)
        if isinstance(config, dict) and isinstance(config.get("metrics"), dict):
            for column in config["metrics"]:
                if column not in config_columns:
                    errors.append(f"$.config.metrics: {column!r} is not a result column")
            for column in config.get("key_columns", []):
                if column not in config_columns:
                    errors.append(f"$.config.key_columns: {column!r} is not a result column")
            for column in config.get("timing_columns", []):
                if column not in config_columns:
                    errors.append(f"$.config.timing_columns: {column!r} is not a result column")
    return errors


def require_valid(document: object) -> None:
    """Raise :class:`SchemaError` when *document* violates the schema."""
    errors = validate_document(document)
    if errors:
        raise SchemaError("invalid bench document:\n  " + "\n  ".join(errors))


# Only ``benchmarks/conftest.py`` calls this, to compare a run with its committed table.
def strip_volatile(document: dict) -> dict:
    """A deep copy of *document* with every run-to-run volatile field masked.

    Two runs of the same config and seed on the same commit must produce
    identical stripped documents: the measurement block and the generation
    timestamp are dropped, and every cell of a column named in
    ``config.timing_columns`` is replaced by ``None``.
    """
    stripped = copy.deepcopy(document)
    stripped.pop("measurement", None)
    stripped.get("environment", {}).pop("generated_at", None)
    timing = set(stripped.get("config", {}).get("timing_columns", []))
    result = stripped.get("result", {})
    columns = result.get("columns", [])
    masked = [position for position, column in enumerate(columns) if column in timing]
    for row in result.get("rows", []):
        for position in masked:
            if position < len(row):
                row[position] = None
    return stripped
