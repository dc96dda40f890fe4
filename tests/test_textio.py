"""Tests for the artifact text format and the OpenQASM subset."""

import math

import pytest

from repro.circuits import (
    Circuit,
    GateType,
    from_artifact_format,
    parse_qasm,
    to_artifact_format,
    to_qasm,
)


def sample_circuit() -> Circuit:
    circuit = Circuit(3, name="sample")
    circuit.h(0)
    circuit.rz(0, 0.375)
    circuit.cnot(0, 1)
    circuit.x(2)
    circuit.rz(2, -1.25)
    return circuit


class TestArtifactFormat:
    def test_round_trip(self):
        original = sample_circuit()
        text = to_artifact_format(original)
        parsed = from_artifact_format(text, num_qubits=3)
        assert len(parsed) == len(original)
        for a, b in zip(parsed, original):
            assert a.gate_type is b.gate_type
            assert a.qubits == b.qubits
            if a.angle is not None:
                assert a.angle == pytest.approx(b.angle)

    def test_first_line_is_gate_count(self):
        text = to_artifact_format(sample_circuit())
        assert text.splitlines()[0] == "5"

    def test_declared_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_artifact_format("2\nh 0\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            from_artifact_format("1\nfoo 0\n")

    def test_rz_without_angle_rejected(self):
        with pytest.raises(ValueError):
            from_artifact_format("1\nrz 0\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            from_artifact_format("   \n")

    def test_qubit_count_inferred_when_not_given(self):
        parsed = from_artifact_format("1\ncx 2 5\n")
        assert parsed.num_qubits == 6


class TestQasm:
    def test_round_trip(self):
        original = sample_circuit()
        parsed = parse_qasm(to_qasm(original))
        assert parsed.num_qubits == 3
        assert [g.gate_type for g in parsed] == [g.gate_type for g in original]
        assert parsed[1].angle == pytest.approx(0.375)

    def test_parses_pi_expressions(self):
        text = 'OPENQASM 2.0;\nqreg q[1];\nrz(pi/4) q[0];\n'
        parsed = parse_qasm(text)
        assert parsed[0].angle == pytest.approx(math.pi / 4)

    def test_measure_and_barrier(self):
        text = ('OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n'
                'h q[0];\nbarrier q;\nmeasure q[0] -> c[0];\n')
        parsed = parse_qasm(text)
        kinds = [g.gate_type for g in parsed]
        assert GateType.BARRIER in kinds
        assert GateType.MEASURE in kinds

    def test_missing_qreg_rejected(self):
        with pytest.raises(ValueError):
            parse_qasm("OPENQASM 2.0;\nh q[0];\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nmystery q[0];\n")

    def test_comments_ignored(self):
        text = 'OPENQASM 2.0;\nqreg q[1];\n// a comment\nh q[0]; // trailing\n'
        parsed = parse_qasm(text)
        assert len(parsed) == 1
