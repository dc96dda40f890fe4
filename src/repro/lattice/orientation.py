"""Tracking which Pauli boundary each data patch currently exposes.

In the default orientation a data patch exposes its **Z** edge on the
horizontal boundaries (NORTH/SOUTH) and its **X** edge on the vertical
boundaries (EAST/WEST) — Figure 2.  An edge-rotation gate (3 cycles) swaps
the two, which the scheduler inserts when a CNOT or injection needs an edge
that currently faces the wrong way (Figure 4).
"""

from __future__ import annotations

from typing import Dict

from ..fabric import Edge

__all__ = ["OrientationTracker"]


class OrientationTracker:
    """Runtime record of each data qubit's boundary orientation."""

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self._flipped: Dict[int, bool] = {qubit: False for qubit in range(num_qubits)}

    def is_flipped(self, qubit: int) -> bool:
        """True when the qubit's Z edge currently faces EAST/WEST."""
        return self._flipped[qubit]

    def rotate(self, qubit: int) -> None:
        """Apply an edge rotation: swap which boundaries expose Z and X."""
        self._flipped[qubit] = not self._flipped[qubit]

    # -- queries -------------------------------------------------------------------

    def edge_pauli(self, qubit: int, edge: Edge) -> str:
        """Pauli ('Z' or 'X') exposed by ``qubit`` on boundary ``edge``."""
        horizontal_is_z = not self._flipped[qubit]
        if edge.is_horizontal_boundary:
            return "Z" if horizontal_is_z else "X"
        return "X" if horizontal_is_z else "Z"

    def exposes(self, qubit: int, edge: Edge, pauli: str) -> bool:
        """True when boundary ``edge`` of ``qubit`` exposes ``pauli``."""
        return self.edge_pauli(qubit, edge) == pauli
