"""Tests for simulation configuration, results and runner helpers."""

import pytest

from repro import SimulationConfig, default_layout
from repro.exec import plan_jobs
from repro.scheduling import AutoBraidScheduler, RescqScheduler
from repro.service import ExperimentService
from repro.sim import (
    GateTrace,
    SimulationResult,
    aggregate_comparison,
    aggregate_results,
    geometric_mean,
)
from repro.workloads import qft_circuit


class TestConfig:
    def test_defaults_match_headline_configuration(self):
        config = SimulationConfig()
        assert config.distance == 7
        assert config.physical_error_rate == 1e-4
        assert config.activity_window == 100
        assert config.mst_period == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(distance=6)
        with pytest.raises(ValueError):
            SimulationConfig(physical_error_rate=0.7)
        with pytest.raises(ValueError):
            SimulationConfig(mst_period=0)
        with pytest.raises(ValueError):
            SimulationConfig(mst_latency=-5)
        with pytest.raises(ValueError):
            SimulationConfig(max_parallel_preparations=0)
        with pytest.raises(ValueError, match="max_cycles"):
            SimulationConfig(max_cycles=-5)

    def test_with_updates_returns_new_object(self):
        config = SimulationConfig()
        updated = config.with_updates(distance=9)
        assert updated.distance == 9
        assert config.distance == 7

    def test_preparation_model_uses_config_values(self):
        config = SimulationConfig(distance=9, physical_error_rate=1e-3)
        model = config.preparation_model()
        assert model.distance == 9
        assert model.physical_error_rate == 1e-3

    def test_describe_mentions_key_parameters(self):
        text = SimulationConfig(distance=9, mst_period=50).describe()
        assert "d=9" in text and "k=50" in text


class TestResults:
    def make_result(self):
        traces = [
            GateTrace(0, "cnot", (0, 1), scheduled_cycle=0, start_cycle=0,
                      end_cycle=2),
            GateTrace(1, "rz", (0,), scheduled_cycle=2, start_cycle=3,
                      end_cycle=8, injections=2, preparation_attempts=3),
            GateTrace(2, "cnot", (1, 2), scheduled_cycle=2, start_cycle=5,
                      end_cycle=10, edge_rotations=1),
        ]
        return SimulationResult("bench", "rescq", seed=0, total_cycles=10,
                                num_qubits=3, traces=traces,
                                data_busy_cycles={0: 7, 1: 7, 2: 5})

    def test_trace_derived_quantities(self):
        trace = self.make_result().traces[1]
        assert trace.latency_after_schedule == 6

    def test_latency_filters_by_kind(self):
        result = self.make_result()
        assert result.latencies("cnot") == [2, 8]
        assert result.latencies("rz") == [6]
        assert result.mean_latency("cnot") == 5.0

    def test_latency_histogram_clamps(self):
        result = self.make_result()
        histogram = result.latency_histogram("cnot", max_cycles=5)
        assert histogram == {2: 1, 5: 1}

    def test_idle_fraction(self):
        result = self.make_result()
        expected = 1 - (7 + 7 + 5) / (3 * 10)
        assert result.idle_fraction() == pytest.approx(expected)

    def test_counters(self):
        assert self.make_result().num_gates == 3

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)

    def test_aggregate_results(self):
        results = [self.make_result() for _ in range(3)]
        results[1].total_cycles = 20
        aggregate = aggregate_results(results)
        assert aggregate["runs"] == 3
        assert aggregate["min"] == 10 and aggregate["max"] == 20


class TestRunner:
    def test_default_layout_is_star_grid(self):
        circuit = qft_circuit(5)
        layout = default_layout(circuit)
        assert layout.num_data_qubits == 5
        # Non-square qubit counts leave whole-ancilla filler blocks, so the
        # ratio is at least the STAR block's 3 ancilla per data qubit.
        assert layout.ancilla_per_data >= 3.0

    def test_default_layout_with_compression(self):
        circuit = qft_circuit(5)
        layout = default_layout(circuit, compression=1.0)
        assert layout.num_ancilla < default_layout(circuit).num_ancilla

    def _comparison(self, seeds):
        circuit = qft_circuit(5)
        config = SimulationConfig(mst_period=10, mst_latency=10)
        jobs = plan_jobs([AutoBraidScheduler(), RescqScheduler()], circuit,
                         config, default_layout(circuit), seeds)
        return aggregate_comparison(jobs, ExperimentService().run(jobs))

    def test_comparison_shares_layout_and_seeds(self):
        rows = self._comparison(seeds=2)
        assert set(rows) == {"autobraid", "rescq"}
        for row in rows.values():
            assert row.runs == 2
            assert row.min_cycles <= row.mean_cycles <= row.max_cycles
            assert 0.0 <= row.mean_idle_fraction <= 1.0

    def test_normalised_to_reference(self):
        rows = self._comparison(seeds=1)
        ratio = rows["rescq"].mean_cycles / rows["autobraid"].mean_cycles
        assert 0.0 < ratio <= 1.5
