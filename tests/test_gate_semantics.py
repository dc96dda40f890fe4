"""Unitary oracle for the gate vocabulary: QASM builtins and ``decompose_gate``.

Every qelib1 builtin the importer accepts and every :class:`GateType` that
:func:`decompose_gate` lowers is compared, as a matrix on up to three
qubits, with a reference written here from the textbook definitions.  The
simulator below knows only the scheduler basis ``{Rz, H, X, CNOT}``, so a
lowered sequence is checked end to end: a wrong angle, a dropped parameter
or a swapped operand changes the matrix.  Equality is up to global phase.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    Gate,
    GateType,
    decompose_gate,
    parse_qasm,
    to_qasm,
    transpile_to_clifford_rz,
)
from repro.circuits.gates import _PARAMETERISED
from repro.circuits.qasm import _GATE_TYPES, _prelude
from test_qasm_lowering_pin import BUILTINS

NUM_QUBITS = 3

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def phase(angle):
    return np.diag([1, cmath.exp(1j * angle)])


def rot(pauli, angle):
    """``exp(-i angle P / 2)`` for a Pauli matrix ``P``."""
    return math.cos(angle / 2) * np.eye(len(pauli)) - 1j * math.sin(angle / 2) * pauli


def u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def controlled(unitary):
    """Control on the first operand, ``unitary`` on the remaining ones."""
    size = len(unitary)
    out = np.eye(2 * size, dtype=complex)
    out[size:, size:] = unitary
    return out


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

#: QASM gate name -> reference matrix builder (operands in call order).
REFERENCE = {
    "U": u3,
    "u3": u3,
    "u": u3,
    "u2": lambda phi, lam: u3(math.pi / 2, phi, lam),
    "u1": phase,
    "p": phase,
    "id": lambda: I2,
    "x": lambda: X,
    "y": lambda: Y,
    "z": lambda: Z,
    "h": lambda: H,
    "s": lambda: phase(math.pi / 2),
    "sdg": lambda: phase(-math.pi / 2),
    "t": lambda: phase(math.pi / 4),
    "tdg": lambda: phase(-math.pi / 4),
    "rx": lambda theta: rot(X, theta),
    "ry": lambda theta: rot(Y, theta),
    "rz": lambda theta: rot(Z, theta),
    "CX": lambda: controlled(X),
    "cx": lambda: controlled(X),
    "cy": lambda: controlled(Y),
    "cz": lambda: controlled(Z),
    "ch": lambda: controlled(H),
    "crz": lambda lam: controlled(rot(Z, lam)),
    "cu1": lambda lam: controlled(phase(lam)),
    "cp": lambda lam: controlled(phase(lam)),
    "cu3": lambda theta, phi, lam: controlled(u3(theta, phi, lam)),
    "swap": lambda: SWAP,
    "rzz": lambda theta: rot(np.kron(Z, Z), theta),
    "ccx": lambda: controlled(controlled(X)),
    "cswap": lambda: controlled(SWAP),
}

#: The scheduler basis: the only gates the simulator below can apply.
BASIS_MATRICES = {
    GateType.RZ: lambda gate: rot(Z, gate.angle),
    GateType.H: lambda gate: H,
    GateType.X: lambda gate: X,
    GateType.CNOT: lambda gate: controlled(X),
}

UNITARY_TYPES = [
    gate_type
    for gate_type in GateType
    if gate_type not in (GateType.MEASURE, GateType.BARRIER)
]


def apply(unitary, matrix, qubits):
    """Left-multiply ``unitary`` by ``matrix`` acting on ``qubits`` (qubit 0 MSB)."""
    k = len(qubits)
    tensor = unitary.reshape((2,) * NUM_QUBITS + (-1,))
    gate = matrix.reshape((2,) * (2 * k))
    tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    tensor = np.moveaxis(tensor, list(range(k)), list(qubits))
    return tensor.reshape(2**NUM_QUBITS, -1)


def reference(name, params, qubits):
    matrix = REFERENCE[name](*params)
    return apply(np.eye(2**NUM_QUBITS, dtype=complex), matrix, qubits)


def simulate(gates):
    unitary = np.eye(2**NUM_QUBITS, dtype=complex)
    for gate in gates:
        assert gate.gate_type in BASIS_MATRICES, f"{gate} is not in the basis"
        unitary = apply(unitary, BASIS_MATRICES[gate.gate_type](gate), gate.qubits)
    return unitary


def assert_equal_up_to_phase(actual, expected):
    index = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    ratio = actual[index] / expected[index]
    assert abs(abs(ratio) - 1) < 1e-9
    np.testing.assert_allclose(actual, ratio * expected, atol=1e-9)


angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
operand_orders = st.permutations(range(NUM_QUBITS))


def test_oracle_covers_every_builtin_and_gate_type():
    assert set(REFERENCE) == set(BUILTINS) == set(_prelude()) | set(_GATE_TYPES)
    assert {gate_type.value for gate_type in UNITARY_TYPES} <= set(REFERENCE)


@pytest.mark.parametrize("name", sorted(REFERENCE))
@seed(23)
@settings(max_examples=25, deadline=2_000, derandomize=True, database=None)
@given(params=st.lists(angles, min_size=3, max_size=3), order=operand_orders)
def test_qasm_builtin_matches_reference(name, params, order):
    num_params, num_qubits = BUILTINS[name]
    params, qubits = params[:num_params], tuple(order[:num_qubits])
    call = f"{name}({','.join(map(repr, params))})" if num_params else name
    operands = ",".join(f"q[{qubit}]" for qubit in qubits)
    circuit = parse_qasm(f"OPENQASM 2.0;\nqreg q[{NUM_QUBITS}];\n{call} {operands};\n")
    lowered = transpile_to_clifford_rz(circuit)
    assert_equal_up_to_phase(simulate(lowered), reference(name, params, qubits))


@pytest.mark.parametrize("gate_type", UNITARY_TYPES, ids=lambda t: t.value)
@seed(23)
@settings(max_examples=25, deadline=2_000, derandomize=True, database=None)
@given(angle=angles, order=operand_orders)
def test_decompose_gate_matches_reference(gate_type, angle, order):
    qubits = tuple(order[: gate_type.num_qubits])
    parameterised = gate_type in _PARAMETERISED
    gate = Gate(gate_type, qubits, angle=angle if parameterised else None)
    expected = reference(gate_type.value, [angle] if parameterised else [], qubits)
    assert_equal_up_to_phase(simulate(decompose_gate(gate)), expected)


@pytest.mark.parametrize("gate_type", UNITARY_TYPES, ids=lambda t: t.value)
def test_gate_type_round_trips_through_qasm(gate_type):
    qubits = tuple(range(gate_type.num_qubits))
    angle = 0.375 if gate_type in _PARAMETERISED else None
    gates = [Gate(gate_type, qubits, angle)]
    original = Circuit(NUM_QUBITS, name="circuit", gates=gates)
    assert parse_qasm(to_qasm(original)) == original
