"""Runtime fabric occupancy shared by every scheduling policy.

The :class:`~repro.fabric.layout.GridLayout` is static; everything that
changes while a circuit executes on it lives here: which ancilla tile is busy
until when, which tile is holding a prepared state for which gate, when each
data qubit frees up and how many cycles it has spent busy, and which Pauli
boundary each data patch currently exposes.

Ancilla tiles are numbered by their :class:`~repro.fabric.flat.FlatGrid`
slot, the one tile identity inside a run: occupancy and held states are
slot-indexed lists, and every method takes a slot.  :attr:`FabricState.flat`
converts to and from positions where a layout is read.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..fabric import GridLayout
from ..fabric.flat import FlatGrid
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
        metric); layer-synchronous policies pass ``None`` and skip the
        bookkeeping entirely.
    """

    def __init__(self, layout: GridLayout, num_qubits: int,
                 activity_window: Optional[int] = None) -> None:
        self.layout = layout
        #: The layout's slot numbering (slot <-> position).
        self.flat = FlatGrid.for_layout(layout)
        num_ancilla = self.flat.num_ancilla
        #: Per slot: cycle until which the tile is busy (exclusive).
        self.anc_free: List[int] = [0] * num_ancilla
        #: Per slot: gate index whose prepared state the tile is holding.
        self.anc_holding: List[Optional[int]] = [None] * num_ancilla
        #: Cycle until which each data qubit is busy (exclusive).
        self.data_free: List[int] = [0] * num_qubits
        #: Total cycles each data qubit has spent occupied by an operation.
        self.data_busy: Dict[int, int] = {q: 0 for q in range(num_qubits)}
        self.orientation = OrientationTracker(num_qubits)
        self.activity: Optional[ActivityTracker] = (
            ActivityTracker(num_ancilla, activity_window)
            if activity_window else None)

    # -- ancilla occupancy -------------------------------------------------------

    def occupy_ancilla(self, slot: int, start: int, end: int) -> None:
        """Mark the tile busy during ``[start, end)`` (and record activity)."""
        self.anc_free[slot] = end
        if self.activity is not None:
            self.activity.record_busy(slot, start, end)

    def truncate_ancilla(self, slot: int, now: int) -> None:
        """Free the tile at ``now`` if its scheduled work ends later.

        Used when in-flight work is cancelled (e.g. a preparation terminated
        because its Rz gate completed).  Activity already recorded for the
        cancelled interval is deliberately kept — the paper's activity metric
        counts scheduled occupancy.
        """
        if self.anc_free[slot] > now:
            self.anc_free[slot] = now

    # -- held states -------------------------------------------------------------

    def hold(self, slot: int, gate_index: int) -> None:
        self.anc_holding[slot] = gate_index

    def release_hold(self, slot: int) -> None:
        self.anc_holding[slot] = None

    # -- data-qubit occupancy ------------------------------------------------------

    def occupy_data(self, qubit: int, start: int, end: int) -> None:
        """Mark the data qubit busy during ``[start, end)`` and account it."""
        self.data_free[qubit] = end
        self.data_busy[qubit] += end - start

    # -- synchronisation -----------------------------------------------------------

    def layer_barrier(self, cycle: int) -> None:
        """Layer-synchronous release rule: nothing is free before ``cycle``."""
        self.anc_free[:] = [free if free > cycle else cycle
                            for free in self.anc_free]
        for qubit in range(len(self.data_free)):
            if self.data_free[qubit] < cycle:
                self.data_free[qubit] = cycle

    def activity_snapshot(self, now: int) -> np.ndarray:
        """Activity at ``now`` per ancilla slot (requires an activity
        window)."""
        if self.activity is None:
            raise RuntimeError("this FabricState tracks no activity")
        return self.activity.snapshot(now)
