"""Lowering the gate vocabulary into the Clifford+Rz scheduler basis.

The paper compiles every benchmark into the basis ``{Rz, H, X, CNOT}`` with
Qiskit (Section 5.1).  We do not depend on Qiskit.  The lowering has two
stages here, each written once:

* the QASM importer's prelude (:mod:`repro.circuits.qasm`) writes every other
  ``qelib1.inc`` gate as a body over :class:`GateType` names;
* :func:`decompose_gate` lowers each :class:`GateType` into the basis with the
  standard textbook decompositions.

``tests/test_gate_semantics.py`` checks both stages against reference
unitaries, up to global phase.
"""

from __future__ import annotations

import math
from typing import List

from .circuit import Circuit
from .gates import Gate, GateType

__all__ = ["transpile_to_clifford_rz", "decompose_gate", "BASIS"]

#: Scheduler basis (Section 3).  MEASURE and BARRIER pass through: they are
#: free from the scheduler's point of view.
BASIS = (
    GateType.RZ,
    GateType.H,
    GateType.X,
    GateType.CNOT,
    GateType.MEASURE,
    GateType.BARRIER,
)

#: Diagonal single-qubit Cliffords and T gates, as Rz angles.
_PHASES = {
    GateType.Z: math.pi,
    GateType.S: math.pi / 2,
    GateType.SDG: -math.pi / 2,
    GateType.T: math.pi / 4,
    GateType.TDG: -math.pi / 4,
}


def _rz(qubit: int, theta: float) -> Gate:
    return Gate(GateType.RZ, (qubit,), angle=theta)


def _h(qubit: int) -> Gate:
    return Gate(GateType.H, (qubit,))


def _cx(control: int, target: int) -> Gate:
    return Gate(GateType.CNOT, (control, target))


def decompose_gate(gate: Gate) -> List[Gate]:
    """Decompose a single gate into the ``{Rz, H, X, CNOT}`` basis.

    Decompositions are exact up to global phase.  Gates already in the basis
    are returned unchanged (as a single-element list).
    """
    gtype = gate.gate_type
    if gtype in BASIS:
        return [gate]
    if gtype in _PHASES:
        return [_rz(gate.qubits[0], _PHASES[gtype])]
    if gtype is GateType.Y:
        # Y = Z X (up to global phase)
        return [_rz(gate.qubits[0], math.pi), Gate(GateType.X, gate.qubits)]
    if gtype is GateType.RX:
        # Rx(t) = H Rz(t) H
        (q,) = gate.qubits
        return [_h(q), _rz(q, gate.angle), _h(q)]
    if gtype is GateType.RY:
        # Ry(t) = Sdg H Rz(t) H S  (i.e. Rz(-pi/2) H Rz(t) H Rz(pi/2))
        (q,) = gate.qubits
        s = math.pi / 2
        return [_rz(q, -s), _h(q), _rz(q, gate.angle), _h(q), _rz(q, s)]
    if gtype is GateType.CZ:
        control, target = gate.qubits
        return [_h(target), _cx(control, target), _h(target)]
    if gtype is GateType.SWAP:
        a, b = gate.qubits
        return [_cx(a, b), _cx(b, a), _cx(a, b)]
    if gtype is GateType.RZZ:
        # Rzz(t) = CX . Rz(t) on target . CX
        control, target = gate.qubits
        return [_cx(control, target), _rz(target, gate.angle), _cx(control, target)]
    if gtype is GateType.CCX:
        # Standard 6-CNOT Toffoli decomposition with T gates expressed as Rz.
        a, b, c = gate.qubits
        t = math.pi / 4
        return [
            _h(c),
            _cx(b, c),
            _rz(c, -t),
            _cx(a, c),
            _rz(c, t),
            _cx(b, c),
            _rz(c, -t),
            _cx(a, c),
            _rz(b, t),
            _rz(c, t),
            _cx(a, b),
            _h(c),
            _rz(a, t),
            _rz(b, -t),
            _cx(a, b),
        ]
    raise ValueError(f"no decomposition registered for gate type {gtype!r}")


def transpile_to_clifford_rz(circuit: Circuit) -> Circuit:
    """Lower every gate of ``circuit`` into the Clifford+Rz basis.

    ``circuit`` may hold any :class:`GateType` (CZ, SWAP, RX, RY, RZZ, CCX,
    ...).  Rz rotations by an exact multiple of ``2*pi`` are the identity and
    are dropped.
    """
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        for lowered in decompose_gate(gate):
            if lowered.gate_type is GateType.RZ and _is_identity_angle(lowered.angle):
                continue
            out.append(lowered)
    return out


def _is_identity_angle(theta: float) -> bool:
    ratio = theta / (2 * math.pi)
    return abs(ratio - round(ratio)) < 1e-12
