"""The :class:`Circuit` container used throughout the reproduction.

A circuit is an ordered list of :class:`~repro.circuits.gates.Gate` objects on
``num_qubits`` logical qubits.  It intentionally mirrors the minimal text
format described in the paper's artifact appendix (Section B.7): the total
number of gates on the first line followed by one gate per line.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .gates import Gate, GateType, cnot, h, rz, x

__all__ = ["Circuit", "CircuitStats"]


class CircuitStats:
    """Summary statistics of a circuit (the columns of Table 3)."""

    def __init__(self, circuit: "Circuit") -> None:
        self.num_qubits = circuit.num_qubits
        self.total_gates = len(circuit)
        counts: Dict[GateType, int] = {}
        rotation_count = 0
        for gate in circuit:
            counts[gate.gate_type] = counts.get(gate.gate_type, 0) + 1
            if gate.is_rotation:
                rotation_count += 1
        self.gate_counts = counts
        #: Continuous-angle Rz rotations requiring |m_theta> injection.
        self.num_rz = rotation_count
        self.num_cnot = counts.get(GateType.CNOT, 0)
        self.num_h = counts.get(GateType.H, 0)
        self.depth = circuit.depth()

    @property
    def rz_to_cnot_ratio(self) -> float:
        """Ratio of Rz gates to CNOT gates (the axis Table 3 spans, ~1 to ~6.5)."""
        if self.num_cnot == 0:
            return math.inf if self.num_rz else 0.0
        return self.num_rz / self.num_cnot

    def as_row(self) -> Dict[str, object]:
        """Return the Table 3 row for this circuit."""
        return {
            "qubits": self.num_qubits,
            "rz": self.num_rz,
            "cnot": self.num_cnot,
            "total": self.total_gates,
            "depth": self.depth,
            "rz_per_cnot": round(self.rz_to_cnot_ratio, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitStats(qubits={self.num_qubits}, rz={self.num_rz}, "
            f"cnot={self.num_cnot}, depth={self.depth})"
        )


class Circuit:
    """An ordered sequence of gates over ``num_qubits`` logical qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit",
                 gates: Optional[Iterable[Gate]] = None) -> None:
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # -- construction ----------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append ``gate``, validating that its operands are in range."""
        for qubit in gate.qubits:
            if qubit >= self.num_qubits:
                raise ValueError(
                    f"gate {gate} references qubit {qubit} but the circuit "
                    f"has only {self.num_qubits} qubits"
                )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    # Convenience builders mirroring Qiskit's imperative style --------------

    def rz(self, qubit: int, theta: float) -> "Circuit":
        return self.append(rz(qubit, theta))

    def h(self, qubit: int) -> "Circuit":
        return self.append(h(qubit))

    def x(self, qubit: int) -> "Circuit":
        return self.append(x(qubit))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.append(cnot(control, target))

    cx = cnot

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self._gates == other._gates)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    # -- analysis ----------------------------------------------------------------

    def stats(self) -> CircuitStats:
        return CircuitStats(self)

    def count(self, gate_type: GateType) -> int:
        return sum(1 for gate in self._gates if gate.gate_type is gate_type)

    def depth(self) -> int:
        """Logical circuit depth counting every non-barrier gate as one layer unit."""
        frontier = [0] * self.num_qubits
        for gate in self._gates:
            if gate.gate_type is GateType.BARRIER:
                level = max(frontier) if frontier else 0
                frontier = [level] * self.num_qubits
                continue
            level = max(frontier[q] for q in gate.qubits) + 1
            for qubit in gate.qubits:
                frontier[qubit] = level
        return max(frontier) if frontier else 0

    def layers(self) -> List[List[int]]:
        """Greedy ASAP layering; returns lists of gate indices per layer.

        Barriers force synchronisation across all qubits and are not emitted
        as gates themselves.  This layering is what the *static* baseline
        schedulers consume (Section 3.1: "execution of the next layer is
        stalled until the gate with the highest execution time of the current
        layer is completed").
        """
        frontier = [0] * self.num_qubits
        layers: Dict[int, List[int]] = {}
        for index, gate in enumerate(self._gates):
            if gate.gate_type is GateType.BARRIER:
                level = max(frontier) if frontier else 0
                frontier = [level] * self.num_qubits
                continue
            level = max(frontier[q] for q in gate.qubits)
            layers.setdefault(level, []).append(index)
            for qubit in gate.qubits:
                frontier[qubit] = level + 1
        return [layers[level] for level in sorted(layers)]

    # -- transformation ---------------------------------------------------------

    def without_free_gates(self) -> "Circuit":
        """Return a copy with zero-cost gates (Pauli frame updates) removed."""
        kept = [gate for gate in self._gates if not gate.is_free]
        return Circuit(self.num_qubits, name=self.name, gates=kept)

    def copy(self, name: Optional[str] = None) -> "Circuit":
        return Circuit(self.num_qubits, name=name or self.name,
                       gates=list(self._gates))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
                f"gates={len(self._gates)})")
