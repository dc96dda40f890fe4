"""Runtime fabric occupancy shared by every scheduling policy.

The :class:`~repro.fabric.layout.GridLayout` is static; everything that
changes while a circuit executes on it lives here: which ancilla tile is busy
until when, which tile is holding a prepared state for which gate, when each
data qubit frees up and how many cycles it has spent busy, and which Pauli
boundary each data patch currently exposes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..fabric import GridLayout, Position
from ..lattice import OrientationTracker
from .activity import ActivityTracker

__all__ = ["FabricState"]


class FabricState:
    """Occupancy, reservations and orientation state of the tile grid.

    Parameters
    ----------
    layout:
        The static tile grid.
    num_qubits:
        Number of program qubits (sizes the per-data-qubit arrays).
    activity_window:
        When given, an :class:`~repro.kernel.activity.ActivityTracker`
        over that window records every busy interval (RESCQ's MST routing
        metric), numbering tiles in :attr:`ancillas` order;
        layer-synchronous policies pass ``None`` and skip the bookkeeping
        entirely.
    """

    def __init__(self, layout: GridLayout, num_qubits: int,
                 activity_window: Optional[int] = None) -> None:
        self.layout = layout
        #: Ancilla positions, cached once (sorted row-major, stable order):
        #: the slot order of activity snapshots and of the layout's FlatGrid.
        self.ancillas: List[Position] = layout.ancilla_positions()
        #: Cycle until which each ancilla tile is busy (exclusive).
        self.anc_free: Dict[Position, int] = {pos: 0 for pos in self.ancillas}
        #: Ancilla -> gate index whose prepared state it is holding.
        self.anc_holding: Dict[Position, int] = {}
        #: Cycle until which each data qubit is busy (exclusive).
        self.data_free: List[int] = [0] * num_qubits
        #: Total cycles each data qubit has spent occupied by an operation.
        self.data_busy: Dict[int, int] = {q: 0 for q in range(num_qubits)}
        self.orientation = OrientationTracker(num_qubits)
        self.activity: Optional[ActivityTracker] = (
            ActivityTracker(self.ancillas, activity_window)
            if activity_window else None)

    # -- ancilla occupancy -------------------------------------------------------

    def occupy_ancilla(self, position: Position, start: int, end: int) -> None:
        """Mark the tile busy during ``[start, end)`` (and record activity)."""
        self.anc_free[position] = end
        if self.activity is not None:
            self.activity.record_busy(position, start, end)

    def truncate_ancilla(self, position: Position, now: int) -> None:
        """Free the tile at ``now`` if its scheduled work ends later.

        Used when in-flight work is cancelled (e.g. a preparation terminated
        because its Rz gate completed).  Activity already recorded for the
        cancelled interval is deliberately kept — the paper's activity metric
        counts scheduled occupancy.
        """
        if self.anc_free[position] > now:
            self.anc_free[position] = now

    # -- held states -------------------------------------------------------------

    def hold(self, position: Position, gate_index: int) -> None:
        self.anc_holding[position] = gate_index

    def release_hold(self, position: Position) -> None:
        self.anc_holding.pop(position, None)

    # -- data-qubit occupancy ------------------------------------------------------

    def occupy_data(self, qubit: int, start: int, end: int) -> None:
        """Mark the data qubit busy during ``[start, end)`` and account it."""
        self.data_free[qubit] = end
        self.data_busy[qubit] += end - start

    # -- synchronisation -----------------------------------------------------------

    def layer_barrier(self, cycle: int) -> None:
        """Layer-synchronous release rule: nothing is free before ``cycle``."""
        for position in self.anc_free:
            if self.anc_free[position] < cycle:
                self.anc_free[position] = cycle
        for qubit in range(len(self.data_free)):
            if self.data_free[qubit] < cycle:
                self.data_free[qubit] = cycle

    def activity_snapshot(self, now: int) -> np.ndarray:
        """Activity at ``now`` per ancilla, in :attr:`ancillas` order
        (requires an activity window)."""
        if self.activity is None:
            raise RuntimeError("this FabricState tracks no activity")
        return self.activity.snapshot(now)
