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

Every operation of every policy claims its tiles and data qubits with one
:meth:`FabricState.book` call.  Besides it, only the cancellation and
barrier rules (:meth:`~FabricState.truncate_ancilla`,
:meth:`~FabricState.layer_barrier`) write the busy-until times; policies
write ``anc_holding`` directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fabric import GridLayout
from ..fabric.flat import FlatGrid
from ..lattice import OrientationTracker
from .activity import ActivityTracker
from .profiler import KernelProfile

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
    profile:
        The run's profile, if any: :meth:`book` adds each operation's
        cycles to it.
    """

    def __init__(self, layout: GridLayout, num_qubits: int,
                 activity_window: Optional[int] = None,
                 profile: Optional[KernelProfile] = None) -> None:
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
        self.profile = profile

    # -- booking --------------------------------------------------------------

    def book(self, kind: str, tiles: Sequence[int], qubits: Sequence[int],
             not_before: int, duration: int) -> Tuple[int, int]:
        """Claim ``tiles`` and data ``qubits`` for one operation of
        ``duration`` cycles; returns its ``(start, end)``.

        ``start`` is the first cycle at or after ``not_before`` at which
        every tile and qubit is free.  The operation records one activity
        interval for all its tiles and, when profiling, adds ``duration``
        to ``sim_<kind>_cycles`` (``prep``, ``injection``, ``cnot`` or
        ``hadamard``).
        """
        anc_free = self.anc_free
        data_free = self.data_free
        start = not_before
        for slot in tiles:
            if anc_free[slot] > start:
                start = anc_free[slot]
        for qubit in qubits:
            if data_free[qubit] > start:
                start = data_free[qubit]
        end = start + duration
        for slot in tiles:
            anc_free[slot] = end
        data_busy = self.data_busy
        for qubit in qubits:
            data_free[qubit] = end
            data_busy[qubit] += duration
        if self.activity is not None:
            self.activity.record(tiles, start, end)
        if self.profile is not None:
            self.profile.add(f"sim_{kind}_cycles", float(duration))
        return start, end

    def truncate_ancilla(self, slot: int, now: int) -> None:
        """Free the tile at ``now`` if its booked work ends later.

        Used when in-flight work is cancelled (e.g. a preparation terminated
        because its Rz gate completed).  Activity already recorded for the
        cancelled interval is deliberately kept — the paper's activity metric
        counts scheduled occupancy.
        """
        if self.anc_free[slot] > now:
            self.anc_free[slot] = now

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
