"""Unit tests of the experiment declaration and the central registry."""

from __future__ import annotations

import pytest

from repro.bench.registry import (
    REPORTED,
    SIZE,
    Experiment,
    UnknownExperimentError,
    _REGISTRY,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
    register,
)


def demo(context, sentences, mss, factor=2.0):
    return sentences * mss * factor


def demo_rows(context, sentences, mss_values=(1, 2)):
    for mss in mss_values:
        yield mss, sentences * mss


def declared(measure=demo, **overrides) -> Experiment:
    fields = dict(
        measure=measure,
        title="Demo",
        description="a demo at factor {factor}",
        variables={"sentences": (100, 400), "mss": (1, 2, 3)},
        values={"product": "exact"},
        params={"factor": 2.0},
    )
    fields.update(overrides)
    return Experiment(**fields)


class TestDeclaration:
    def test_columns_keys_metrics_and_timing_are_derived(self) -> None:
        experiment = declared(values={"product": "exact", "seconds": "timing:lower", "note": None})
        assert experiment.name == "demo"
        assert experiment.columns == ["sentences", "mss", "product", "seconds", "note"]
        assert experiment.metrics == {"product": "exact", "seconds": "lower"}
        assert experiment.timing_columns == ["seconds"]
        payload = experiment.as_dict(scale=0.5)
        assert payload["name"] == payload["runner"] == "demo"
        assert payload["scale"] == 0.5
        assert payload["description"] == "a demo at factor 2.0"
        assert payload["key_columns"] == ["sentences", "mss"]
        assert payload["params"] == {"factor": 2.0, "sentences": (100, 400), "mss": (1, 2, 3)}

    def test_cells_cross_row_major_in_declared_order(self) -> None:
        cells = list(declared().cells())
        assert cells[:4] == [
            {"sentences": 100, "mss": 1},
            {"sentences": 100, "mss": 2},
            {"sentences": 100, "mss": 3},
            {"sentences": 400, "mss": 1},
        ]
        assert len(cells) == 6

    def test_a_reported_variable_is_a_key_column_but_not_crossed(self) -> None:
        experiment = declared(
            demo_rows,
            description="a demo over mss {mss_values}",
            variables={"sentences": (5, 20), "mss": REPORTED},
            params={"mss_values": (1, 2)},
        )
        assert experiment.as_dict()["key_columns"] == ["sentences", "mss"]
        assert list(experiment.cells()) == [{"sentences": 5}, {"sentences": 20}]

    def test_no_variables_is_one_cell(self) -> None:
        def single(context, sentences=7):
            return sentences

        assert list(declared(single, variables={}, params={"sentences": 7}).cells()) == [{}]

    def test_bad_value_spec_rejected_with_the_experiments_name(self) -> None:
        with pytest.raises(ValueError, match=r"'demo'.*'product'.*'sideways'"):
            declared(values={"product": "sideways"})

    def test_negative_warmup_rejected(self) -> None:
        with pytest.raises(ValueError, match="warmup"):
            declared(warmup=-1)

    @pytest.mark.parametrize(
        "fields, complaint",
        [
            (dict(variables={"sentences": (1,), "mss": (1,), "shards": (2,)}), "no argument 'shards'"),
            (dict(variables={"sentences": (1,)}), "'mss' has no default"),
            (dict(params={"factor": 2.0, "depth": 3}), "no argument 'depth'"),
            (dict(values={"mss": "exact"}), "both a variable and a value"),
            (dict(variables={"sentences": (1,), "mss": (1,), "bin": REPORTED}), "generator function"),
        ],
    )
    def test_a_design_the_function_cannot_run_fails_at_declaration(self, fields, complaint) -> None:
        with pytest.raises(ValueError, match=complaint) as raised:
            declared(**fields)
        assert "'demo'" in str(raised.value)

    def test_with_params_replaces_levels_or_a_fixed_parameter(self) -> None:
        experiment = declared()
        derived = experiment.with_params(mss=[5], factor=3.0)
        assert derived.crossed == {"sentences": (100, 400), "mss": (5,)}
        assert derived.params == {"factor": 3.0}
        assert experiment.crossed["mss"] == (1, 2, 3)  # unchanged
        with pytest.raises(ValueError, match="no variable or parameter 'depth'"):
            experiment.with_params(depth=2)

    def test_without_drops_value_columns_and_their_semantics(self) -> None:
        experiment = declared(values={"product": "exact", "seconds": "timing:lower"})
        trimmed = experiment.without("seconds")
        assert trimmed.columns == ["sentences", "mss", "product"]
        assert trimmed.metrics == {"product": "exact"} and trimmed.timing_columns == []


class TestScaling:
    def test_scales_the_size_variable_only(self) -> None:
        scaled = declared().scaled(0.5)
        assert scaled.crossed == {"sentences": (50, 200), "mss": (1, 2, 3)}

    def test_scales_a_fixed_size_parameter(self) -> None:
        def fixed(context, mss, sentences=1_000):
            return mss

        experiment = declared(fixed, variables={"mss": (1, 2)}, params={"sentences": 1_000})
        assert experiment.scaled(0.25).params == {"sentences": 250}

    def test_levels_that_collapse_are_kept_once_in_order(self) -> None:
        experiment = declared(variables={"sentences": (1, 10, 100, 1_000), "mss": (1,)})
        assert experiment.scaled(0.05).crossed[SIZE] == (1, 5, 50)
        assert experiment.scaled(0.001).crossed[SIZE] == (1,)

    def test_scale_one_is_identity(self) -> None:
        experiment = declared()
        assert experiment.scaled(1.0) is experiment

    def test_non_positive_scale_rejected(self) -> None:
        with pytest.raises(ValueError):
            declared().scaled(0.0)
        with pytest.raises(ValueError):
            declared().scaled(-2.0)


class TestRegistry:
    def test_all_builtin_experiments_registered(self) -> None:
        names = experiment_names()
        assert len(names) == len(set(names)) == 18
        for expected in (
            "figure2_index_keys",
            "figure8_index_size",
            "table1_size_ratio",
            "figure9_postings",
            "figure12_runtime_by_size",
            "figure13_scalability",
            "table2_system_comparison",
            "table3_join_counts",
            "serve_cold_warm",
            "serve_http_throughput",
            "shard_scalability",
            "update_throughput",
            "ablation_cover_selection",
        ):
            assert expected in names

    def test_every_experiment_is_named_after_its_measure_function(self) -> None:
        from repro.bench import experiments

        for declaration in all_experiments():
            assert getattr(experiments, declaration.name) is declaration.measure

    def test_get_experiment_unknown_name(self) -> None:
        with pytest.raises(UnknownExperimentError, match="no_such_experiment"):
            get_experiment("no_such_experiment")

    def test_register_duplicate_rejected_unless_replace(self) -> None:
        def registry_test_dup(context, sentences=3):
            return sentences

        declaration = declared(registry_test_dup, variables={}, params={"sentences": 3})
        try:
            register(declaration)
            with pytest.raises(ValueError, match="already registered"):
                register(declaration)
            replaced = register(declaration.with_params(sentences=9), replace=True)
            assert get_experiment("registry_test_dup") is replaced
        finally:
            _REGISTRY.pop("registry_test_dup", None)

    def test_decorator_takes_fixed_parameters_from_the_signature(self) -> None:
        try:
            @experiment(
                title="Decorated",
                description="mss={mss}",
                variables={"sentences": (10, 20)},
                values={"value": "exact"},
            )
            def registry_test_decorated(context, sentences, mss=3, coding="root-split"):
                return sentences * mss

            declaration = get_experiment("registry_test_decorated")
            assert declaration.params == {"mss": 3, "coding": "root-split"}
            assert declaration.measure is registry_test_decorated
            assert registry_test_decorated(None, sentences=2) == 6  # returned unchanged
        finally:
            _REGISTRY.pop("registry_test_decorated", None)

    def test_a_bad_declaration_registers_nothing(self) -> None:
        with pytest.raises(ValueError, match="registry_test_bad"):
            @experiment(title="Bad", description="", variables={"shards": (1,)}, values={})
            def registry_test_bad(context, sentences=1):
                return ()

        assert "registry_test_bad" not in experiment_names()

    def test_corpus_sizes_are_spelled_so_that_scaling_finds_them(self) -> None:
        # A corpus-size knob under another name would be missed by
        # REPRO_BENCH_SCALE without anyone noticing.
        for declaration in all_experiments():
            for name in declaration.parameters():
                if name.startswith("sentence"):
                    assert name == SIZE, (declaration.name, name)
            assert SIZE in declaration.parameters() or declaration.name == "table3_join_counts"
