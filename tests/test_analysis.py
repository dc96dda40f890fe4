"""Tests for the analysis layer: fidelity model, sweeps, experiments, reports."""

import math

import pytest

from repro import SimulationConfig
from repro.analysis import (
    ExecutionSummary,
    LogicalErrorModel,
    figure3_series,
    format_histogram,
    format_normalised_summary,
    format_table,
    latency_histograms,
    max_rotations,
    run_axis_sweep,
    run_execution_comparison,
)
from repro.scheduling import AutoBraidScheduler, RescqScheduler
from repro.workloads import dnn_circuit, qft_circuit

FAST = SimulationConfig(mst_period=10, mst_latency=10)


class TestFidelityModel:
    def test_logical_error_rate_decreases_with_distance(self):
        rates = [LogicalErrorModel(1e-3, d).logical_error_rate()
                 for d in (3, 5, 7, 9)]
        assert rates == sorted(rates, reverse=True)

    def test_max_rotations_monotone_in_error(self):
        assert max_rotations(0.9, 1e-5) > max_rotations(0.9, 1e-3)

    def test_max_rotations_validation(self):
        with pytest.raises(ValueError):
            max_rotations(1.5, 1e-3)
        assert max_rotations(0.9, 0.0) == math.inf
        assert max_rotations(0.9, 1.0) == 0.0

    def test_figure3_clifford_rz_beats_clifford_t(self):
        """Figure 3: Clifford+Rz admits far more rotations at every target."""
        for row in figure3_series():
            assert (row["max_rotations_clifford_rz"]
                    > row["max_rotations_clifford_t"])

    def test_figure3_rows_cover_all_combinations(self):
        rows = figure3_series(distances=(5, 7), target_fidelities=(0.5, 0.9))
        assert len(rows) == 4


class TestSweeps:
    def circuits(self):
        return [qft_circuit(5)]

    def schedulers(self):
        return [AutoBraidScheduler(), RescqScheduler()]

    def test_distance_sweep_rows(self):
        results = run_axis_sweep("distance", self.schedulers(),
                                 self.circuits(), values=(5, 7), seeds=1)
        assert results.parameters() == ["distance"]
        rows = results.grid_rows()
        assert len(rows) == 4
        assert all("distance" in row for row in rows)
        assert all(row["mean_cycles"] > 0 for row in rows)

    def test_error_rate_sweep_rows(self):
        results = run_axis_sweep("error-rate", self.schedulers(),
                                 self.circuits(), values=(1e-3, 1e-4),
                                 seeds=1)
        rows = results.grid_rows()
        assert len(rows) == 4
        assert {row["physical_error_rate"] for row in rows} == {1e-3, 1e-4}

    def test_mst_period_sweep_rows(self):
        results = run_axis_sweep("mst-period", [RescqScheduler()],
                                 self.circuits(), values=(25, 100), seeds=1)
        rows = results.grid_rows()
        assert len(rows) == 2
        assert all(row["scheduler"] == "rescq" for row in rows)

    def test_compression_sweep_rescq_still_wins_when_constrained(self):
        """Figure 14 / contribution 3: even in the most constrained grids
        RESCQ keeps a clear advantage over the static baseline."""
        circuit = dnn_circuit(8, layers=2)
        results = run_axis_sweep("compression", self.schedulers(), [circuit],
                                 values=(0.0, 1.0), seeds=2)
        by_key = {(row["scheduler"], row["compression"]): row["mean_cycles"]
                  for row in results.aggregate("scheduler", "compression")}
        assert by_key[("rescq", 0.0)] < by_key[("autobraid", 0.0)]
        assert (by_key[("autobraid", 1.0)] / by_key[("rescq", 1.0)]) > 1.2
        # Compression costs both schedulers cycles (reduced ancilla budget).
        assert by_key[("rescq", 1.0)] >= by_key[("rescq", 0.0)]

    def test_sweep_row_as_dict(self):
        results = run_axis_sweep("distance", ["rescq"], self.circuits(),
                                 values=(7,), seeds=1)
        payload = results.grid_rows()[0]
        assert payload["benchmark"] == "qft_n5"
        assert list(payload) == ["benchmark", "scheduler", "distance",
                                 "mean_cycles", "min_cycles", "max_cycles",
                                 "idle_fraction"]
        assert payload["distance"] == 7


class TestExperiments:
    def test_execution_comparison_produces_speedup(self):
        circuits = [qft_circuit(5), dnn_circuit(6, layers=2)]
        summary = run_execution_comparison(circuits, config=FAST, seeds=2)
        assert set(summary.cycles) == {"qft_n5", "dnn_n6"}
        speedup = summary.geomean_speedup("rescq", over="autobraid")
        assert speedup > 1.0

    def test_normalised_table_reference_is_one(self):
        summary = run_execution_comparison([qft_circuit(5)], config=FAST,
                                            seeds=1)
        normalised = summary.normalised()
        assert normalised["qft_n5"]["autobraid"] == pytest.approx(1.0)

    def test_latency_histograms_shape(self):
        histograms = latency_histograms([qft_circuit(5)], config=FAST, seeds=1)
        assert set(histograms) == {"greedy", "autobraid", "rescq"}
        for per_kind in histograms.values():
            assert set(per_kind) == {"cnot", "rz"}
            assert sum(per_kind["cnot"].values()) > 0

    def test_rescq_latencies_smaller_than_baseline(self):
        """Figure 5's qualitative claim: RESCQ's CNOT latency distribution is
        concentrated at fewer cycles than the baseline's."""
        histograms = latency_histograms([dnn_circuit(6, layers=2)],
                                        config=FAST, seeds=2)

        def mean_of(hist):
            total = sum(hist.values())
            return sum(k * v for k, v in hist.items()) / total

        assert (mean_of(histograms["rescq"]["rz"])
                < mean_of(histograms["autobraid"]["rz"]))

    def test_summary_handles_missing_baseline(self):
        summary = ExecutionSummary(baseline="autobraid")
        summary.cycles["x"] = {"rescq": 10.0}
        assert summary.normalised() == {}
        assert summary.geomean_speedup("rescq") == 0.0


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="T")

    def test_format_histogram(self):
        text = format_histogram({2: 10, 5: 1}, title="H")
        assert "2 cycles" in text and "#" in text

    def test_format_histogram_empty(self):
        assert "(empty)" in format_histogram({})

    def test_format_normalised_summary(self):
        summary = ExecutionSummary(baseline="autobraid")
        summary.cycles["bench"] = {"autobraid": 100.0, "rescq": 50.0}
        text = format_normalised_summary(summary)
        assert "bench" in text
        assert "2.00x" in text
