"""Unit tests for the Circuit container and its analyses."""

import math

import pytest

from repro.circuits import Circuit, GateType, barrier, cnot, rz


class TestConstruction:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_rejects_out_of_range_operands(self):
        circuit = Circuit(2)
        with pytest.raises(ValueError):
            circuit.append(cnot(0, 5))

    def test_builder_methods_chain(self):
        circuit = Circuit(2).h(0).rz(0, 0.3).cnot(0, 1)
        assert len(circuit) == 3
        assert [g.gate_type for g in circuit] == [GateType.H, GateType.RZ,
                                                  GateType.CNOT]

    def test_equality(self):
        a = Circuit(2).h(0).cnot(0, 1)
        b = Circuit(2).h(0).cnot(0, 1)
        c = Circuit(2).h(1).cnot(0, 1)
        assert a == b
        assert a != c

    def test_copy_is_independent(self):
        a = Circuit(2).h(0)
        b = a.copy()
        b.cnot(0, 1)
        assert len(a) == 1
        assert len(b) == 2


class TestDepthAndLayers:
    def test_depth_of_sequential_chain(self):
        circuit = Circuit(1).h(0).rz(0, 0.2).h(0)
        assert circuit.depth() == 3

    def test_depth_of_parallel_gates(self):
        circuit = Circuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        assert circuit.depth() == 1

    def test_layers_respect_dependencies(self):
        circuit = Circuit(3).h(0).h(1).cnot(0, 1).rz(2, 0.5)
        layers = circuit.layers()
        assert layers[0] == [0, 1, 3]
        assert layers[1] == [2]

    def test_barrier_forces_synchronisation(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.append(barrier())
        circuit.h(1)
        layers = circuit.layers()
        assert len(layers) == 2


class TestStats:
    def test_counts_only_non_clifford_rz(self):
        circuit = Circuit(2).rz(0, 0.3).rz(0, math.pi / 2).cnot(0, 1)
        stats = circuit.stats()
        assert stats.num_rz == 1
        assert stats.num_cnot == 1

    def test_rz_to_cnot_ratio(self):
        circuit = Circuit(2).rz(0, 0.1).rz(1, 0.2).rz(0, 0.3).cnot(0, 1)
        assert circuit.stats().rz_to_cnot_ratio == pytest.approx(3.0)

    def test_ratio_with_no_cnots_is_infinite(self):
        circuit = Circuit(1).rz(0, 0.1)
        assert circuit.stats().rz_to_cnot_ratio == math.inf

    def test_as_row_has_expected_keys(self):
        row = Circuit(2).h(0).cnot(0, 1).stats().as_row()
        assert set(row) == {"qubits", "rz", "cnot", "total", "depth",
                            "rz_per_cnot"}


class TestTransformations:
    def test_without_free_gates_drops_paulis_and_clifford_rz(self):
        circuit = Circuit(2).x(0).rz(0, math.pi).rz(0, 0.4).cnot(0, 1)
        filtered = circuit.without_free_gates()
        assert len(filtered) == 2
        assert filtered[0].gate_type is GateType.RZ
        assert filtered[1].gate_type is GateType.CNOT
