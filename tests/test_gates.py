"""Unit tests for the gate IR."""

import math

import pytest

from repro.circuits import (
    Gate,
    GateType,
    cnot,
    doublings_until_clifford,
    h,
    is_clifford_angle,
    rz,
    x,
)


class TestGateConstruction:
    def test_rz_requires_angle(self):
        with pytest.raises(ValueError):
            Gate(GateType.RZ, (0,))

    def test_rz_constructor(self):
        gate = rz(2, 0.5)
        assert gate.gate_type is GateType.RZ
        assert gate.qubits == (2,)
        assert gate.angle == 0.5

    def test_cnot_control_target(self):
        gate = cnot(3, 5)
        assert gate.control == 3
        assert gate.target == 5
        assert gate.is_two_qubit

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateType.CNOT, (1,))
        with pytest.raises(ValueError):
            Gate(GateType.H, (1, 2))

    def test_duplicate_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateType.CNOT, (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateType.H, (-1,))

    def test_single_qubit_gate_has_no_control(self):
        with pytest.raises(AttributeError):
            _ = h(0).control

    def test_qubits_normalised_to_tuple(self):
        gate = Gate(GateType.CNOT, [0, 1])
        assert isinstance(gate.qubits, tuple)

    def test_gates_are_hashable_value_objects(self):
        assert rz(0, 0.5) == rz(0, 0.5)
        assert rz(0, 0.5) != rz(0, 0.6)
        assert len({cnot(0, 1), cnot(0, 1), cnot(1, 0)}) == 2


class TestCliffordClassification:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, -math.pi / 2,
                                       2 * math.pi, 3 * math.pi / 2])
    def test_clifford_angles(self, theta):
        assert is_clifford_angle(theta)

    @pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 1.0, math.pi / 3])
    def test_non_clifford_angles(self, theta):
        assert not is_clifford_angle(theta)

    def test_t_gate_needs_one_doubling(self):
        # T = Rz(pi/4); one doubling gives Rz(pi/2) = S, a Clifford.
        assert doublings_until_clifford(math.pi / 4) == 1

    def test_sqrt_t_needs_two_doublings(self):
        assert doublings_until_clifford(math.pi / 8) == 2

    def test_generic_angle_hits_horizon(self):
        assert doublings_until_clifford(0.3, max_doublings=40) == 40

    def test_clifford_angle_needs_zero_doublings(self):
        assert doublings_until_clifford(math.pi / 2) == 0

    def test_rz_is_rotation_only_when_non_clifford(self):
        assert rz(0, 0.3).is_rotation
        assert not rz(0, math.pi).is_rotation

    def test_clifford_rz_is_free(self):
        assert rz(0, math.pi / 2).is_free
        assert not rz(0, 0.4).is_free

    def test_pauli_gates_are_free(self):
        assert x(0).is_free
        assert not h(0).is_free
        assert not cnot(0, 1).is_free
