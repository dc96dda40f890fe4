"""Sliding-window ancilla activity tracking (Section 4.2).

RESCQ's routing metric is the *activity* of each ancilla qubit: the fraction
of the last ``c`` cycles during which the ancilla was busy.  The tracker
records busy intervals as they are scheduled and answers window queries at MST
(re)computation time; old intervals are pruned lazily.

Tiles are numbered by their **slot**: the index of the position in the
ancilla list the tracker is built over.  :class:`~repro.kernel.FabricState`
passes its ``ancillas`` (``GridLayout.ancilla_positions()``, row-major),
which is exactly the :class:`~repro.fabric.flat.FlatGrid` slot order the MST
consumes, so a snapshot goes from here to Kruskal without any per-position
translation.  Intervals are stored struct-of-arrays style — three parallel
flat lists ``(slot, start, end)`` — and :meth:`ActivityTracker.snapshot` is
one vectorised clip-and-bincount.  The clipping is integer arithmetic and
``busy / effective_window`` is one IEEE division per slot, so every value
equals the per-position ``min(1, busy / effective_window)`` of the
historical scalar scan bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..fabric import Position

__all__ = ["ActivityTracker"]


class ActivityTracker:
    """Records per-ancilla busy intervals and answers windowed activity queries.

    ``ancillas`` fixes the slot numbering: slot ``i`` is ``ancillas[i]``,
    and :meth:`snapshot` returns one value per slot in that order.
    """

    def __init__(self, ancillas: Sequence[Position], window: int = 100) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        #: Position -> slot (index into ``ancillas``).
        self._slots: Dict[Position, int] = {
            position: slot for slot, position in enumerate(ancillas)}
        self._num_slots = len(ancillas)
        # Parallel interval arrays: interval i is slot _slot_list[i] busy
        # during [_start_list[i], _end_list[i]).
        self._slot_list: List[int] = []
        self._start_list: List[int] = []
        self._end_list: List[int] = []

    def record_busy(self, position: Position, start: int, end: int) -> None:
        """Record that ancilla ``position`` is busy during ``[start, end)``."""
        if end <= start:
            return
        self._slot_list.append(self._slots[position])
        self._start_list.append(start)
        self._end_list.append(end)

    def snapshot(self, now: int) -> np.ndarray:
        """Activity of every slot at cycle ``now``: a fresh float64 array."""
        if now <= 0 or not self._slot_list:
            return np.zeros(self._num_slots, dtype=np.float64)
        horizon = now - self.window
        slots = np.asarray(self._slot_list, dtype=np.int64)
        starts = np.asarray(self._start_list, dtype=np.int64)
        ends = np.asarray(self._end_list, dtype=np.int64)
        live = ends > horizon
        if not live.all():
            # Lazy prune: intervals fully behind the window can never
            # contribute again (``now`` is monotonic in a run).
            slots = slots[live]
            starts = starts[live]
            ends = ends[live]
            self._slot_list = slots.tolist()
            self._start_list = starts.tolist()
            self._end_list = ends.tolist()
        contrib = np.minimum(ends, now) - np.maximum(starts, horizon)
        np.clip(contrib, 0, None, out=contrib)
        busy = np.bincount(slots, weights=contrib.astype(np.float64),
                           minlength=self._num_slots)
        # Integer-valued float64 sums are exact, so this is the scalar
        # ``min(1.0, busy / effective_window)`` per slot.
        activity = busy / min(self.window, now)
        np.minimum(activity, 1.0, out=activity)
        return activity
