"""The committed tables under ``benchmarks/results/``.

``benchmarks/`` holds every non-timing cell of a fresh run to these files, so
each must stay a valid document of a registered experiment, and the text
table beside it must be its rendering.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import experiment_names
from repro.bench.results import ExperimentResult
from repro.bench.schema import validate_document

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
COMMITTED = sorted(RESULTS.glob("BENCH_*.json"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_registered_experiment_has_a_committed_table() -> None:
    assert sorted(path.name for path in COMMITTED) == sorted(
        f"BENCH_{name}.json" for name in experiment_names()
    )


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.stem)
def test_a_committed_table_is_a_valid_document(path: Path) -> None:
    document = _load(path)
    assert validate_document(document) == []
    assert path.name == f"BENCH_{document['experiment']}.json"


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.stem)
def test_a_committed_text_table_renders_its_document(path: Path) -> None:
    data = _load(path)["result"]
    result = ExperimentResult(name=data["name"], description=data["description"], columns=data["columns"])
    for row in data["rows"]:
        result.add_row(*row)
    for note in data["notes"]:
        result.add_note(note)
    text = (RESULTS / f"{path.stem[len('BENCH_'):]}.txt").read_text(encoding="utf-8")
    assert text == result.to_text() + "\n"
