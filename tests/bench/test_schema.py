"""Schema validation and run-to-run determinism of bench documents."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import ExperimentRunner
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    require_valid,
    strip_volatile,
    validate_document,
)
from tests.bench.conftest import make_document


class TestValidateDocument:
    def test_valid_document_has_no_errors(self) -> None:
        assert validate_document(make_document()) == []
        require_valid(make_document())  # must not raise

    def test_non_dict_is_rejected(self) -> None:
        assert validate_document([1, 2]) != []
        assert validate_document(None) != []

    def test_missing_top_level_field(self) -> None:
        document = make_document()
        del document["environment"]
        assert any("environment" in error for error in validate_document(document))

    def test_wrong_schema_version(self) -> None:
        document = make_document(schema_version=SCHEMA_VERSION + 1)
        assert any("schema_version" in error for error in validate_document(document))

    def test_wrong_kind(self) -> None:
        document = make_document(kind="something-else")
        assert any("kind" in error for error in validate_document(document))

    def test_experiment_must_equal_config_name(self) -> None:
        document = make_document(experiment="other")
        assert any("must equal" in error for error in validate_document(document))

    def test_bad_metric_direction(self) -> None:
        document = make_document()
        document["config"]["metrics"]["value"] = "sideways"
        assert any("direction" in error for error in validate_document(document))

    def test_metric_must_be_a_result_column(self) -> None:
        document = make_document()
        document["config"]["metrics"]["missing_col"] = "lower"
        assert any("missing_col" in error for error in validate_document(document))

    def test_key_and_timing_columns_must_exist(self) -> None:
        document = make_document()
        document["config"]["key_columns"] = ["nope"]
        assert any("key_columns" in error for error in validate_document(document))
        document = make_document()
        document["config"]["timing_columns"] = ["nope"]
        assert any("timing_columns" in error for error in validate_document(document))

    def test_row_arity_is_checked(self) -> None:
        document = make_document()
        document["result"]["rows"].append([1, 2])
        assert any("cells" in error for error in validate_document(document))

    def test_row_cells_must_be_scalars(self) -> None:
        document = make_document()
        document["result"]["rows"][0] = [100, {"nested": 1}, 5]
        assert any("scalars" in error for error in validate_document(document))

    def test_git_sha_nullable_but_required(self) -> None:
        document = make_document()
        del document["environment"]["git_sha"]
        assert any("git_sha" in error for error in validate_document(document))
        document = make_document()
        document["environment"]["git_sha"] = 123
        assert any("git_sha" in error for error in validate_document(document))

    def test_require_valid_raises_with_all_errors(self) -> None:
        document = make_document(kind="bad")
        del document["measurement"]
        with pytest.raises(SchemaError) as excinfo:
            require_valid(document)
        assert "kind" in str(excinfo.value)
        assert "measurement" in str(excinfo.value)


class TestStripVolatile:
    def test_drops_measurement_and_timestamp(self) -> None:
        stripped = strip_volatile(make_document())
        assert "measurement" not in stripped
        assert "generated_at" not in stripped["environment"]

    def test_masks_timing_columns_only(self) -> None:
        stripped = strip_volatile(make_document())
        # "value" is a timing column, "size" and "count" are not.
        assert stripped["result"]["rows"] == [[100, None, 5], [200, None, 9]]

    def test_does_not_mutate_the_original(self) -> None:
        document = make_document()
        strip_volatile(document)
        assert document["measurement"]["wall_seconds"] == 0.5
        assert document["result"]["rows"][0][1] == 1.0


class TestDeterminism:
    """Two runs of the same config + seed must agree on every non-timing field."""

    def _run_fresh(self, name: str, **overrides: object) -> dict:
        # A fresh runner per call: new workdir, new context, new corpora.
        with ExperimentRunner(seed=17) as runner:
            report = runner.run(name, overrides=overrides, write=False)
        # Round-trip through JSON so comparisons see what lands on disk.
        return strip_volatile(json.loads(json.dumps(report.document)))

    def test_pure_computation_experiment_is_deterministic(self) -> None:
        first = self._run_fresh("table3_join_counts")
        second = self._run_fresh("table3_join_counts")
        assert first == second

    def test_index_build_experiment_is_deterministic(self) -> None:
        # figure8 measures index *file sizes*: this regression-tests that
        # index construction (including the fixed-width metadata record) is
        # byte-deterministic across fresh contexts.
        first = self._run_fresh("figure8_index_size", sentences=(10, 30))
        second = self._run_fresh("figure8_index_size", sentences=(10, 30))
        assert first == second
        sizes = [row for row in first["result"]["rows"]]
        assert sizes, "figure8 must produce rows"
