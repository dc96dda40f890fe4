"""Tests for the declarative experiment API (repro.api)."""

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import run_axis_sweep
from repro.api import (
    BENCHMARKS,
    LAYOUTS,
    SCHEDULERS,
    SWEEP_AXES,
    DuplicateEntryError,
    ExperimentSpec,
    Registry,
    ResultSet,
    SpecValidationError,
    UnknownEntryError,
    build_engine,
    run_experiment,
)
from repro.api.axes import get_axis
from repro.exec import ExecutionEngine, ParallelExecutor
from repro.scheduling import RescqScheduler
from repro.sim import SimulationConfig
from repro.sim.runner import aggregate_comparison
from repro.workloads import BenchmarkSpec, register_benchmark
from repro.workloads.qft import qft_circuit


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry and "b" not in registry

    def test_decorator_form_returns_object(self):
        registry = Registry("widget")

        @registry.register("cls")
        class Widget:
            pass

        assert registry.get("cls") is Widget
        assert Widget.__name__ == "Widget"

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(DuplicateEntryError) as excinfo:
            registry.register("a", 2)
        assert "duplicate widget name 'a'" in str(excinfo.value)

    def test_unknown_name_lists_known(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownEntryError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "gamma" in message and "alpha" in message and "beta" in message

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            Registry("widget").get("missing")

    def test_names_sorted(self):
        registry = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, name)
        assert registry.names() == ["alpha", "mid", "zeta"]
        assert [name for name, _entry in registry.items()] == registry.names()

    def test_invalid_name_rejected(self):
        with pytest.raises(Exception):
            Registry("widget").register("", 1)

    def test_create_calls_factory(self):
        registry = Registry("factory")
        registry.register("list", list)
        assert registry.create("list", "ab") == ["a", "b"]


class TestBuiltinRegistries:
    def test_schedulers_registered(self):
        assert SCHEDULERS.names() == ["autobraid", "greedy", "rescq"]
        assert isinstance(SCHEDULERS.create("rescq"), RescqScheduler)

    def test_benchmarks_cover_table3(self):
        assert len(BENCHMARKS) >= 23
        assert "qft_n18" in BENCHMARKS and "VQE_n13" in BENCHMARKS

    def test_layouts_cover_star_variants(self):
        assert LAYOUTS.names() == ["compact", "compressed", "star"]

    def test_sweep_axes_registered(self):
        assert SWEEP_AXES.names() == ["compression", "distance", "error-rate",
                                      "mst-period"]

    def test_get_axis_by_parameter_name(self):
        assert get_axis("physical_error_rate").name == "error-rate"
        assert get_axis("distance").parameter == "distance"
        with pytest.raises(UnknownEntryError):
            get_axis("no_such_axis")

    def test_register_custom_benchmark_and_duplicate(self):
        name = "unit_test_bench_n4"
        if name not in BENCHMARKS:
            register_benchmark(BenchmarkSpec(
                name=name, suite="test", num_qubits=4, paper_rz=0,
                paper_cnot=0, builder=lambda: qft_circuit(4)))
        assert BENCHMARKS.get(name).build().num_qubits == 4
        with pytest.raises(DuplicateEntryError):
            register_benchmark(BenchmarkSpec(
                name=name, suite="test", num_qubits=4, paper_rz=0,
                paper_cnot=0, builder=lambda: qft_circuit(4)))


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------

def small_spec(**overrides):
    payload = dict(name="unit", benchmarks=("VQE_n13",),
                   schedulers=("autobraid", "rescq"), seeds=1)
    payload.update(overrides)
    return ExperimentSpec(**payload)


class TestExperimentSpec:
    def test_round_trip_dict(self):
        spec = small_spec(config={"distance": 9},
                          grid={"mst_period": (25, 50)},
                          compression=0.25, layout_seed=13)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_json(self):
        spec = small_spec(grid={"physical_error_rate": (1e-3, 1e-4)})
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_round_trip_file(self, tmp_path):
        spec = small_spec(seeds=(3, 7))
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json() + "\n", encoding="utf-8")
        assert ExperimentSpec.load(path) == spec

    def test_seed_count_normalises_to_range(self):
        assert small_spec(seeds=3).seeds == (0, 1, 2)
        assert small_spec(seeds=[5, 2]).seeds == (5, 2)

    def test_list_vs_tuple_spelling_is_equal(self):
        assert small_spec() == ExperimentSpec(
            name="unit", benchmarks=["VQE_n13"],
            schedulers=["autobraid", "rescq"], seeds=[0])

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict({"benchmarks": ["VQE_n13"],
                                      "shedulers": ["rescq"]})
        assert "shedulers" in str(excinfo.value)

    def test_from_dict_requires_benchmarks(self):
        with pytest.raises(SpecValidationError):
            ExperimentSpec.from_dict({"schedulers": ["rescq"]})

    @pytest.mark.parametrize("overrides,needle", [
        (dict(benchmarks=()), "no benchmarks"),
        (dict(benchmarks=("nope_n99",)), "nope_n99"),
        (dict(schedulers=("warp",)), "warp"),
        (dict(layout="donut"), "donut"),
        (dict(config={"quux": 1}), "quux"),
        (dict(grid={"distance": ()}), "no values"),
        (dict(config={"distance": 9}, grid={"distance": (5, 7)}), "both"),
        (dict(compression=1.5), "compression"),
        (dict(compression="lots"), "number"),
        (dict(grid={"distance": ("seven",)}), "non-numeric"),
        (dict(layout_seed="x"), "layout_seed"),
        (dict(config={"distance": 4}), "SimulationConfig"),
        (dict(config={"max_cycles": 0}), "max_cycles"),
    ])
    def test_validation_errors_are_actionable(self, overrides, needle):
        with pytest.raises(SpecValidationError) as excinfo:
            small_spec(**overrides).validate()
        assert needle in str(excinfo.value)

    def test_seeds_must_be_integers(self):
        with pytest.raises(SpecValidationError):
            small_spec(seeds=(1, "two")).validate()

    def test_grid_points_product_order(self):
        spec = small_spec(grid={"distance": (5, 7), "mst_period": (25, 50)})
        points = spec.grid_points()
        assert points == [
            {"distance": 5, "mst_period": 25},
            {"distance": 5, "mst_period": 50},
            {"distance": 7, "mst_period": 25},
            {"distance": 7, "mst_period": 50},
        ]

    def test_config_for_casts_axis_values(self):
        spec = small_spec(grid={"distance": (5.0,)})
        config = spec.config_for({"distance": 5.0})
        assert config.distance == 5 and isinstance(config.distance, int)

    def test_expand_tags_and_count(self):
        spec = small_spec(grid={"mst_period": (25, 50)}, seeds=2)
        jobs = spec.expand()
        assert len(jobs) == spec.job_count() == 1 * 2 * 2 * 2
        assert jobs[0].tags == {"mst_period": 25}
        assert jobs[-1].tags == {"mst_period": 50}
        # scheduler-major within a point, seeds ascending
        assert [job.seed for job in jobs[:4]] == [0, 1, 0, 1]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_benchmarks=st.integers(min_value=1, max_value=3),
        schedulers=st.lists(st.sampled_from(["greedy", "autobraid", "rescq"]),
                            min_size=1, max_size=3, unique=True),
        axis_sizes=st.lists(st.integers(min_value=1, max_value=3),
                            min_size=0, max_size=2),
        n_seeds=st.integers(min_value=1, max_value=4),
    )
    def test_expansion_count_property(self, n_benchmarks, schedulers,
                                      axis_sizes, n_seeds):
        """len(expand()) == benchmarks x grid product x schedulers x seeds."""
        axis_names = ["mst_period", "distance"]
        grid = {}
        if axis_sizes and axis_sizes[0]:
            grid["mst_period"] = tuple((25, 50, 100)[:axis_sizes[0]])
        if len(axis_sizes) > 1 and axis_sizes[1]:
            grid["distance"] = tuple((5, 7, 9)[:axis_sizes[1]])
        benchmarks = ("VQE_n13", "qft_n18", "wstate_n27")[:n_benchmarks]
        spec = ExperimentSpec(benchmarks=benchmarks,
                              schedulers=tuple(schedulers),
                              grid=grid, seeds=n_seeds)
        expected = n_benchmarks * len(schedulers) * n_seeds
        for values in grid.values():
            expected *= len(values)
        jobs = spec.expand()
        assert len(jobs) == expected == spec.job_count()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_describe_mentions_job_count(self):
        spec = small_spec(grid={"distance": (5, 7)})
        assert str(spec.job_count()) in spec.describe()


# ---------------------------------------------------------------------------
# ResultSet
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_results():
    spec = ExperimentSpec(name="rs", benchmarks=("VQE_n13",),
                          schedulers=("autobraid", "rescq"),
                          grid={"mst_period": (25, 50)}, seeds=2)
    return spec, run_experiment(spec)


class TestResultSet:
    def test_lengths_and_fields(self, sweep_results):
        spec, results = sweep_results
        assert len(results) == spec.job_count() == 8
        assert results.benchmarks() == ["VQE_n13"]
        assert results.parameters() == ["mst_period"]
        assert all(row.total_cycles > 0 for row in results)

    def test_filter_by_field_and_param(self, sweep_results):
        _spec, results = sweep_results
        rescq = results.filter(scheduler="rescq")
        assert len(rescq) == 4
        point = results.filter(scheduler="rescq", mst_period=25)
        assert len(point) == 2
        assert point.mean_cycles() > 0
        assert len(results.filter(lambda row: row.seed == 0)) == 4
        assert len(results.filter(scheduler="nope")) == 0

    def test_group_by_and_aggregate(self, sweep_results):
        _spec, results = sweep_results
        groups = results.group_by("scheduler", "mst_period")
        assert len(groups) == 4
        assert all(len(group) == 2 for group in groups.values())
        summary = results.aggregate("scheduler")
        assert [row["scheduler"] for row in summary] == ["autobraid", "rescq"]
        assert all(row["runs"] == 4 for row in summary)
        assert all(row["min_cycles"] <= row["mean_cycles"] <= row["max_cycles"]
                   for row in summary)

    def test_comparison_rows_match_legacy_aggregation(self):
        spec = small_spec(seeds=2)
        jobs = spec.expand()
        results = ExecutionEngine().run(jobs)
        legacy = aggregate_comparison(jobs, results)
        modern = ResultSet.from_jobs(jobs, results).comparison_rows()
        assert list(legacy) == list(modern)
        for name in legacy:
            assert legacy[name].mean_cycles == modern[name].mean_cycles
            assert legacy[name].min_cycles == modern[name].min_cycles
            assert legacy[name].max_cycles == modern[name].max_cycles
            assert legacy[name].runs == modern[name].runs

    def test_sweep_rows_order_and_values(self, sweep_results):
        _spec, results = sweep_results
        rows = results.sweep_rows("mst_period")
        assert [(row.value, row.scheduler) for row in rows] == [
            (25, "autobraid"), (25, "rescq"), (50, "autobraid"), (50, "rescq")]
        assert all(row.parameter == "mst_period" for row in rows)

    def test_grid_rows_round_like_sweep_rows(self, sweep_results):
        _spec, results = sweep_results
        grid = results.grid_rows(["mst_period"])
        sweep = [row.as_dict() for row in results.sweep_rows("mst_period")]
        assert grid == sweep

    def test_to_csv_and_json(self, sweep_results):
        _spec, results = sweep_results
        csv_text = results.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == ("benchmark,scheduler,seed,mst_period,"
                            "total_cycles,idle_fraction")
        assert len(lines) == len(results) + 1
        rows = json.loads(results.to_json())
        assert len(rows) == len(results)
        assert rows[0]["benchmark"] == "VQE_n13"
        traced = json.loads(results.to_json(include_traces=True))
        assert "traces" in traced[0]["result"]

    def test_concatenation(self, sweep_results):
        _spec, results = sweep_results
        doubled = results + results
        assert len(doubled) == 2 * len(results)

    def test_unknown_key_is_actionable(self, sweep_results):
        _spec, results = sweep_results
        with pytest.raises(ValueError):
            results.group_by()
        with pytest.raises(KeyError) as excinfo:
            results.group_by("nope")
        assert "benchmark" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Engines: serial, parallel and cached runs agree
# ---------------------------------------------------------------------------

class TestEngines:
    def test_build_engine_shapes(self, tmp_path):
        serial = build_engine()
        assert serial.cache is None
        cached = build_engine(jobs=1, cache=str(tmp_path / "cache"))
        assert cached.cache is not None
        parallel = build_engine(jobs=4)
        assert isinstance(parallel.executor, ParallelExecutor)
        with pytest.raises(ValueError):
            build_engine(jobs=-1)

    def test_parallel_run_matches_serial(self):
        spec = small_spec(seeds=2)
        serial = run_experiment(spec)
        parallel = run_experiment(
            spec, ExecutionEngine(executor=ParallelExecutor(max_workers=4)))
        assert [row.summary() for row in serial] == \
               [row.summary() for row in parallel]

    def test_cached_rerun_executes_nothing(self, tmp_path):
        spec = small_spec()
        engine = build_engine(cache=str(tmp_path / "cache"))
        first = run_experiment(spec, engine)
        assert engine.stats.executed == len(first)
        second = run_experiment(spec, engine)
        assert engine.stats.executed == len(first)  # unchanged: all hits
        assert [row.summary() for row in first] == \
               [row.summary() for row in second]


class TestNoDeprecationNoise:
    def test_run_axis_sweep_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = run_axis_sweep("mst-period", [RescqScheduler()],
                                  [qft_circuit(6)], values=(25,), seeds=1)
        assert len(rows) == 1

    def test_run_experiment_does_not_warn(self):
        spec = ExperimentSpec(benchmarks=("VQE_n13",), schedulers=("rescq",),
                              seeds=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = run_experiment(spec)
        assert len(results.rows) == 1
