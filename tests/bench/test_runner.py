"""Unit tests of the orchestrator (cross, rows, artefacts, env capture, warmup, scale)."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench.registry import REPORTED, Experiment, UnknownExperimentError, all_experiments
from repro.bench.runner import (
    SCALE_ENV_VAR,
    ExperimentRunner,
    capture_environment,
    json_filename,
)
from repro.bench.schema import validate_document

CALLS: list = []


def counting(context, value=2.0, sentences=100):
    CALLS.append({"value": value, "sentences": sentences})
    return len(CALLS), float(value)


@pytest.fixture()
def counting_experiment():
    CALLS.clear()
    return Experiment(
        measure=counting,
        title="Counting",
        description="records how often it ran",
        values={"run": None, "value": "lower"},
        params={"value": 2.0, "sentences": 100},
    )


def crossed(context, letter, digit):
    CALLS.append((letter, digit))
    return f"{letter}{digit}"


def binned(context, letter, bins=2):
    for bin_number in range(bins):
        yield bin_number, f"{letter}{bin_number}"


def design(measure, variables, values, **fields) -> Experiment:
    return Experiment(
        measure=measure, title="T", description="d", variables=variables, values=values, **fields
    )


class TestCaptureEnvironment:
    def test_environment_block_shape(self) -> None:
        environment = capture_environment()
        assert isinstance(environment["python"], str)
        assert isinstance(environment["cpu_count"], int) and environment["cpu_count"] >= 1
        assert isinstance(environment["ci"], bool)
        assert environment["git_sha"] is None or isinstance(environment["git_sha"], str)
        assert "T" in environment["generated_at"]  # ISO timestamp

    def test_json_filename(self) -> None:
        assert json_filename("figure8_index_size") == "BENCH_figure8_index_size.json"


class TestOrchestration:
    def test_cells_are_measured_row_major_in_declared_order(self) -> None:
        CALLS.clear()
        experiment = design(crossed, {"letter": ("a", "b"), "digit": (1, 2, 3)}, {"cell": None})
        with ExperimentRunner() as runner:
            result = runner.measure(experiment)
        assert CALLS == [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)]
        assert result.columns == ["letter", "digit", "cell"]
        assert result.rows == [
            ["a", 1, "a1"], ["a", 2, "a2"], ["a", 3, "a3"],
            ["b", 1, "b1"], ["b", 2, "b2"], ["b", 3, "b3"],
        ]

    def test_a_cell_may_yield_several_rows_led_by_the_reported_variable(self) -> None:
        experiment = design(
            binned, {"letter": ("a", "b"), "bin": REPORTED}, {"cell": None}, params={"bins": 2}
        )
        with ExperimentRunner() as runner:
            result = runner.measure(experiment)
        assert result.rows == [["a", 0, "a0"], ["a", 1, "a1"], ["b", 0, "b0"], ["b", 1, "b1"]]

    def test_a_reported_variable_lands_in_its_declared_column(self) -> None:
        # Figure 9's shape: the middle key column is the reported one.
        experiment = design(
            binned, {"bin": REPORTED, "letter": ("a",)}, {"cell": None}, params={"bins": 2}
        )
        with ExperimentRunner() as runner:
            result = runner.measure(experiment)
        assert result.columns == ["bin", "letter", "cell"]
        assert result.rows == [[0, "a", "a0"], [1, "a", "a1"]]

    @pytest.mark.parametrize("values", [{}, {"cell": None, "extra": "exact"}])
    def test_a_row_that_does_not_fill_the_declared_columns_fails_by_name(self, values) -> None:
        experiment = design(crossed, {"letter": ("a",), "digit": (1,)}, values)
        with ExperimentRunner() as runner:
            with pytest.raises(ValueError, match=r"experiment 'crossed'.*returned 1 values"):
                runner.run(experiment, write=False)

    def test_templates_see_parameters_and_levels(self) -> None:
        experiment = design(
            binned, {"letter": ("x", "y"), "bin": REPORTED}, {"cell": None}, params={"bins": 1},
            notes=("first letter {letter[0]}, {bins} bin(s)",),
        )
        experiment = dataclasses.replace(experiment, description="letters {letter}")
        with ExperimentRunner() as runner:
            report = runner.run(experiment, overrides={"letter": ("q", "r")}, write=False)
        assert report.result.description == "letters ('q', 'r')"
        assert report.result.notes == ["first letter q, 1 bin(s)"]
        assert report.document["config"]["description"] == report.result.description

    def test_levels_reach_a_function_that_asks_for_them(self) -> None:
        def relative(context, digit, levels):
            return digit - levels["digit"][0]

        with ExperimentRunner() as runner:
            result = runner.measure(design(relative, {"digit": (5, 7, 9)}, {"above_first": None}))
        assert result.column("above_first") == [0, 2, 4]

    @pytest.mark.parametrize("scale", [0.05, 1.0])
    def test_no_two_rows_share_a_key(self, scale) -> None:
        # At 0.05 figure 2's (1, 10, 100, 1000) sentences used to scale to
        # (1, 1, 5, 50) and measure the one-sentence cells twice.
        with ExperimentRunner(scale=scale) as runner:
            document = runner.run("figure2_index_keys", write=False).document
        columns = document["result"]["columns"]
        positions = [columns.index(key) for key in document["config"]["key_columns"]]
        keys = [tuple(row[position] for position in positions) for row in document["result"]["rows"]]
        assert len(keys) == len(set(keys)) == (15 if scale == 0.05 else 20)

    def test_every_registered_design_keeps_distinct_levels_when_scaled_down(self) -> None:
        for experiment in all_experiments():
            for name, levels in experiment.scaled(0.05).crossed.items():
                assert len(levels) == len(set(levels)), (experiment.name, name, levels)


class TestExperimentRunner:
    def test_writes_text_and_json_artefacts(self, tmp_path, counting_experiment) -> None:
        with ExperimentRunner(out_dir=str(tmp_path / "out")) as runner:
            report = runner.run(counting_experiment)
        assert report.text_path.endswith("counting.txt")
        assert report.json_path.endswith("BENCH_counting.json")
        assert os.path.exists(report.text_path) and os.path.exists(report.json_path)
        with open(report.json_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert validate_document(document) == []
        assert document == json.loads(json.dumps(report.document))
        assert document["config"]["runner"] == "counting"
        assert "Counting" in open(report.text_path, encoding="utf-8").read()

    def test_write_false_skips_artefacts(self, tmp_path, counting_experiment) -> None:
        with ExperimentRunner(out_dir=str(tmp_path / "out")) as runner:
            report = runner.run(counting_experiment, write=False)
        assert report.json_path is None and report.text_path is None
        assert not os.path.exists(str(tmp_path / "out" / "BENCH_counting.json"))
        assert validate_document(json.loads(json.dumps(report.document))) == []

    def test_no_out_dir_means_no_artefacts(self, counting_experiment) -> None:
        with ExperimentRunner() as runner:
            report = runner.run(counting_experiment)
        assert report.json_path is None and report.text_path is None

    def test_warmup_runs_are_not_measured(self, counting_experiment) -> None:
        experiment = dataclasses.replace(counting_experiment, warmup=2)
        with ExperimentRunner() as runner:
            report = runner.run(experiment, write=False)
        assert len(CALLS) == 3  # two warmups + one measured
        assert report.document["measurement"]["warmup_runs"] == 2
        assert report.document["measurement"]["measured_runs"] == 1

    def test_overrides_reach_the_function_and_the_document(self, counting_experiment) -> None:
        with ExperimentRunner() as runner:
            report = runner.run(counting_experiment, overrides={"value": 7.5}, write=False)
        assert CALLS[-1]["value"] == 7.5
        assert report.params["value"] == 7.5
        assert report.document["config"]["params"]["value"] == 7.5

    def test_an_unknown_override_is_refused_by_name(self, counting_experiment) -> None:
        with ExperimentRunner() as runner:
            with pytest.raises(ValueError, match="'counting' has no variable or parameter 'nope'"):
                runner.run(counting_experiment, overrides={"nope": 1}, write=False)

    def test_scale_env_var_is_honoured(self, monkeypatch, counting_experiment) -> None:
        monkeypatch.setenv(SCALE_ENV_VAR, "0.25")
        with ExperimentRunner() as runner:
            assert runner.scale == 0.25
            report = runner.run(counting_experiment, write=False)
        assert CALLS[-1]["sentences"] == 25
        assert report.document["config"]["scale"] == 0.25

    def test_explicit_scale_beats_env_var(self, monkeypatch, counting_experiment) -> None:
        monkeypatch.setenv(SCALE_ENV_VAR, "0.25")
        with ExperimentRunner(scale=0.5) as runner:
            report = runner.run(counting_experiment, write=False)
        assert report.params["sentences"] == 50

    def test_non_positive_scale_rejected(self) -> None:
        with pytest.raises(ValueError):
            ExperimentRunner(scale=0.0)

    def test_run_many_shares_one_context(self, counting_experiment) -> None:
        with ExperimentRunner() as runner:
            context = runner.context
            reports = runner.run_many([counting_experiment, counting_experiment], write=False)
            assert runner.context is context
        assert [r.result.rows[0][0] for r in reports] == [1, 2]

    def test_unknown_name_raises(self) -> None:
        with ExperimentRunner() as runner:
            with pytest.raises(UnknownExperimentError):
                runner.run("no_such_experiment")
