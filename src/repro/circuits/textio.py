"""Text serialisation of circuits.

Two formats are supported:

* the **artifact format** from the paper's appendix B.7 — first line is the
  number of gates, then one gate per line as
  ``<gate name> <qubit(s)> <rotation angle for Rz gates>``;
* **OpenQASM 2.0** — emission lives here (:func:`to_qasm`); the inverse is
  the full lexer/parser :func:`repro.circuits.qasm.parse_qasm`, which also
  accepts gate macros, register broadcasting, qelib1 gates, angle
  expressions, ...
"""

from __future__ import annotations

from typing import List, Optional

from .circuit import Circuit
from .gates import Gate, GateType

__all__ = [
    "to_artifact_format",
    "from_artifact_format",
    "to_qasm",
]


# ---------------------------------------------------------------------------
# Artifact format (appendix B.7)
# ---------------------------------------------------------------------------

def to_artifact_format(circuit: Circuit, include_barriers: bool = False) -> str:
    """Serialise ``circuit`` in the simulator input format from appendix B.7.

    The appendix format omits barriers (they cost no lattice-surgery cycles);
    pass ``include_barriers=True`` for a lossless gate listing — the form the
    execution engine hashes into job fingerprints, where a barrier *does*
    change scheduling behaviour and must change the cache key.
    """
    lines: List[str] = []
    emitted = 0
    for gate in circuit:
        if gate.gate_type is GateType.BARRIER and not include_barriers:
            continue
        qubits = " ".join(str(q) for q in gate.qubits)
        if gate.gate_type is GateType.RZ:
            lines.append(f"rz {qubits} {gate.angle!r}")
        else:
            lines.append(f"{gate.gate_type.value} {qubits}")
        emitted += 1
    return "\n".join([str(emitted)] + lines) + "\n"


def from_artifact_format(text: str, name: str = "circuit",
                         num_qubits: Optional[int] = None) -> Circuit:
    """Parse the appendix B.7 format back into a :class:`Circuit`."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty circuit text")
    try:
        declared = int(lines[0])
    except ValueError as exc:
        raise ValueError("first line must be the total number of gates") from exc
    body = lines[1:]
    if len(body) != declared:
        raise ValueError(
            f"declared {declared} gates but found {len(body)} gate lines")

    gates: List[Gate] = []
    max_qubit = -1
    for line in body:
        parts = line.split()
        gate_name = parts[0].lower()
        try:
            gate_type = GateType(gate_name)
        except ValueError as exc:
            raise ValueError(f"unknown gate {gate_name!r}") from exc
        operand_count = gate_type.num_qubits
        qubits = tuple(int(tok) for tok in parts[1:1 + operand_count])
        angle = None
        if gate_type is GateType.RZ:
            if len(parts) < operand_count + 2:
                raise ValueError(f"rz line missing angle: {line!r}")
            angle = float(parts[operand_count + 1])
        gates.append(Gate(gate_type, qubits, angle=angle))
        if qubits:
            max_qubit = max(max_qubit, max(qubits))

    size = num_qubits if num_qubits is not None else max_qubit + 1
    return Circuit(max(size, 1), name=name, gates=gates)


# ---------------------------------------------------------------------------
# OpenQASM 2.0
# ---------------------------------------------------------------------------

_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def to_qasm(circuit: Circuit) -> str:
    """Serialise ``circuit`` as OpenQASM 2.0 text."""
    lines = [_QASM_HEADER.rstrip("\n"), f"qreg q[{circuit.num_qubits}];",
             f"creg c[{circuit.num_qubits}];"]
    for gate in circuit:
        if gate.gate_type is GateType.BARRIER:
            lines.append("barrier q;")
            continue
        operands = ",".join(f"q[{q}]" for q in gate.qubits)
        if gate.gate_type is GateType.MEASURE:
            qubit = gate.qubits[0]
            lines.append(f"measure q[{qubit}] -> c[{qubit}];")
        elif gate.angle is not None:
            lines.append(f"{gate.gate_type.value}({gate.angle!r}) {operands};")
        else:
            lines.append(f"{gate.gate_type.value} {operands};")
    return "\n".join(lines) + "\n"

