"""Unit tests for the experiment result container."""

from __future__ import annotations

import pytest

from repro.bench.results import ExperimentResult


@pytest.fixture()
def result() -> ExperimentResult:
    result = ExperimentResult(
        name="Figure X",
        description="a demo table",
        columns=["size", "coding", "value"],
    )
    result.add_row(100, "filter", 1.5)
    result.add_row(100, "root-split", 2.5)
    result.add_row(200, "filter", 3.0)
    return result


class TestExperimentResult:
    def test_add_row_checks_arity(self, result: ExperimentResult) -> None:
        with pytest.raises(ValueError):
            result.add_row(1, 2)

    def test_column(self, result: ExperimentResult) -> None:
        assert result.column("size") == [100, 100, 200]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_filtered(self, result: ExperimentResult) -> None:
        rows = result.filtered(size=100, coding="filter")
        assert rows == [[100, "filter", 1.5]]
        assert result.filtered(size=999) == []

    def test_as_dicts(self, result: ExperimentResult) -> None:
        dicts = result.as_dicts()
        assert dicts[0] == {"size": 100, "coding": "filter", "value": 1.5}

    def test_to_text_contains_everything(self, result: ExperimentResult) -> None:
        result.add_note("a note")
        text = result.to_text()
        assert "Figure X" in text
        assert "root-split" in text
        assert "note: a note" in text
        # header + separator + three rows + title/description/blank + note
        assert len(text.splitlines()) == 3 + 2 + 3 + 1

    def test_to_text_on_empty_result(self) -> None:
        empty = ExperimentResult("Empty", "no rows", ["a", "b"])
        assert "Empty" in empty.to_text()

    def test_value_formatting(self) -> None:
        result = ExperimentResult("F", "d", ["v"])
        result.add_row(1_234_567)
        result.add_row(0.00012)
        result.add_row(12.3456)
        text = result.to_text()
        assert "1,234,567" in text
        assert "0.00012" in text
        assert "12.346" in text


class TestRoundTrip:
    def test_to_dict_shape(self, result: ExperimentResult) -> None:
        result.add_note("a note")
        payload = result.to_dict()
        assert payload == {
            "name": "Figure X",
            "description": "a demo table",
            "columns": ["size", "coding", "value"],
            "rows": [[100, "filter", 1.5], [100, "root-split", 2.5], [200, "filter", 3.0]],
            "notes": ["a note"],
        }

    def test_to_dict_copies_rows(self, result: ExperimentResult) -> None:
        payload = result.to_dict()
        payload["rows"][0][0] = 999
        assert result.rows[0][0] == 100
