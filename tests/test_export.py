"""Tests for JSON result export (the artifact's log-file equivalent)."""

import json

import pytest

from repro import SimulationConfig, default_layout
from repro.analysis.export import result_from_dict, result_to_dict
from repro.scheduling import RescqScheduler
from repro.workloads import vqe_circuit


@pytest.fixture(scope="module")
def sample_result():
    circuit = vqe_circuit(6)
    config = SimulationConfig(mst_period=10, mst_latency=10)
    return RescqScheduler().run(circuit, default_layout(circuit), config, seed=4)


class TestJsonRoundTrip:
    def test_dict_round_trip_preserves_everything(self, sample_result):
        restored = result_from_dict(result_to_dict(sample_result))
        assert restored.benchmark == sample_result.benchmark
        assert restored.total_cycles == sample_result.total_cycles
        assert restored.num_qubits == sample_result.num_qubits
        assert len(restored.traces) == len(sample_result.traces)
        assert restored.traces[0] == sample_result.traces[0]
        assert restored.data_busy_cycles == sample_result.data_busy_cycles

    def test_json_round_trip(self, sample_result):
        # Tuple qubits and int-keyed busy cycles survive JSON's lists and
        # string keys (the cache and the service ship result dicts as JSON).
        text = json.dumps(result_to_dict(sample_result))
        restored = result_from_dict(json.loads(text))
        assert restored.total_cycles == sample_result.total_cycles
        assert restored.traces == sample_result.traces
        assert restored.data_busy_cycles == sample_result.data_busy_cycles

    def test_derived_metrics_survive_round_trip(self, sample_result):
        restored = result_from_dict(result_to_dict(sample_result))
        assert restored.idle_fraction() == pytest.approx(
            sample_result.idle_fraction())
        assert restored.latency_histogram("rz") == sample_result.latency_histogram("rz")
