"""Sliding-window ancilla activity tracking (Section 4.2).

RESCQ's routing metric is the *activity* of each ancilla qubit: the fraction
of the last ``c`` cycles during which the ancilla was busy.  The tracker
records busy intervals as they are scheduled and answers window queries at MST
(re)computation time; old intervals are pruned lazily.

Tiles are numbered by their :class:`~repro.fabric.flat.FlatGrid` **slot**,
the one tile identity inside a run: each operation booked through
:meth:`~repro.kernel.FabricState.book` records one interval for all the
slots it occupies, and a snapshot is in the slot order the MST consumes, so
activity goes from here to Kruskal without any per-position translation.
Intervals are stored struct-of-arrays style — three parallel flat lists
``(slot, start, end)``, one entry per slot of a recorded operation — and
:meth:`ActivityTracker.snapshot` is one vectorised clip-and-bincount.
The clipping is integer arithmetic and ``busy / effective_window`` is one
IEEE division per slot, so every value equals the per-tile
``min(1, busy / effective_window)`` of the historical scalar scan bit for
bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["ActivityTracker"]


class ActivityTracker:
    """Records per-ancilla busy intervals and answers windowed activity queries.

    Tiles are slots ``0 .. num_slots - 1``, and :meth:`snapshot` returns
    one value per slot in that order.
    """

    def __init__(self, num_slots: int, window: int = 100) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._num_slots = num_slots
        # Parallel interval arrays: interval i is slot _slot_list[i] busy
        # during [_start_list[i], _end_list[i]).
        self._slot_list: List[int] = []
        self._start_list: List[int] = []
        self._end_list: List[int] = []

    def record(self, slots: Sequence[int], start: int, end: int) -> None:
        """Record that every ancilla of ``slots`` is busy during
        ``[start, end)``."""
        if end <= start:
            return
        slot_list, start_list = self._slot_list, self._start_list
        end_list = self._end_list
        for slot in slots:
            slot_list.append(slot)
            start_list.append(start)
            end_list.append(end)

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
