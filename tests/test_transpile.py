"""Tests for lowering circuits into the Clifford+Rz scheduler basis."""

import math

import pytest

from repro.circuits import (
    BASIS,
    Circuit,
    Gate,
    GateType,
    decompose_gate,
    transpile_to_clifford_rz,
)


def _types(gates):
    return [gate.gate_type for gate in gates]


class TestSingleGateDecompositions:
    def test_basis_gates_pass_through(self):
        for gate in (Gate(GateType.RZ, (0,), angle=0.5), Gate(GateType.H, (0,)),
                     Gate(GateType.X, (0,)), Gate(GateType.CNOT, (0, 1))):
            assert decompose_gate(gate) == [gate]

    @pytest.mark.parametrize("gtype,angle", [
        (GateType.Z, math.pi), (GateType.S, math.pi / 2),
        (GateType.SDG, -math.pi / 2), (GateType.T, math.pi / 4),
        (GateType.TDG, -math.pi / 4)])
    def test_phase_gates_become_rz(self, gtype, angle):
        lowered = decompose_gate(Gate(gtype, (0,)))
        assert len(lowered) == 1
        assert lowered[0].gate_type is GateType.RZ
        assert lowered[0].angle == pytest.approx(angle)

    def test_rx_decomposition(self):
        lowered = decompose_gate(Gate(GateType.RX, (0,), angle=0.7))
        assert _types(lowered) == [GateType.H, GateType.RZ, GateType.H]
        assert lowered[1].angle == pytest.approx(0.7)

    def test_ry_decomposition_contains_one_arbitrary_rz(self):
        lowered = decompose_gate(Gate(GateType.RY, (0,), angle=0.7))
        arbitrary = [g for g in lowered if g.gate_type is GateType.RZ
                     and abs(abs(g.angle) - math.pi / 2) > 1e-9]
        assert len(arbitrary) == 1

    def test_cz_decomposition(self):
        lowered = decompose_gate(Gate(GateType.CZ, (0, 1)))
        assert _types(lowered) == [GateType.H, GateType.CNOT, GateType.H]

    def test_swap_is_three_cnots(self):
        lowered = decompose_gate(Gate(GateType.SWAP, (0, 1)))
        assert _types(lowered) == [GateType.CNOT] * 3

    def test_rzz_decomposition(self):
        lowered = decompose_gate(Gate(GateType.RZZ, (0, 1), angle=0.9))
        assert _types(lowered) == [GateType.CNOT, GateType.RZ, GateType.CNOT]
        assert lowered[1].qubits == (1,)

    def test_toffoli_decomposition_counts(self):
        lowered = decompose_gate(Gate(GateType.CCX, (0, 1, 2)))
        counts = {gtype: _types(lowered).count(gtype) for gtype in set(_types(lowered))}
        assert counts[GateType.CNOT] == 6
        assert counts[GateType.H] == 2
        assert counts[GateType.RZ] == 7

    def test_unknown_gate_rejected(self):
        class Fake:
            gate_type = "nope"
        with pytest.raises((ValueError, AttributeError)):
            decompose_gate(Fake())  # type: ignore[arg-type]


class TestCircuitTranspilation:
    def test_output_only_contains_basis(self):
        circuit = Circuit(3)
        circuit.append(Gate(GateType.RY, (0,), angle=0.4))
        circuit.append(Gate(GateType.CZ, (0, 1)))
        circuit.append(Gate(GateType.SWAP, (1, 2)))
        circuit.append(Gate(GateType.CCX, (0, 1, 2)))
        lowered = transpile_to_clifford_rz(circuit)
        assert all(g.gate_type in BASIS or g.gate_type is GateType.RZ
                   for g in lowered)

    def test_identity_rotations_dropped(self):
        circuit = Circuit(1)
        circuit.append(Gate(GateType.RZ, (0,), angle=2 * math.pi))
        circuit.append(Gate(GateType.RZ, (0,), angle=0.5))
        lowered = transpile_to_clifford_rz(circuit)
        assert len(lowered) == 1
        assert lowered[0].angle == pytest.approx(0.5)

    def test_qubit_count_preserved(self):
        circuit = Circuit(5)
        circuit.append(Gate(GateType.SWAP, (0, 4)))
        assert transpile_to_clifford_rz(circuit).num_qubits == 5
