"""Sliding-window ancilla activity tracking (Section 4.2).

RESCQ's routing metric is the *activity* of each ancilla qubit: the fraction
of the last ``c`` cycles during which the ancilla was busy.  The tracker
records busy intervals as they are scheduled and answers window queries when
an MST is built (:class:`~repro.scheduling.mst.AsyncMstPipeline`).

Tiles are numbered by their :class:`~repro.fabric.flat.FlatGrid` **slot**,
the one tile identity inside a run: each operation booked through
:meth:`~repro.kernel.FabricState.book` records one interval for all the
slots it occupies, and a snapshot is in the slot order the MST consumes, so
activity goes from here to Kruskal without any per-position translation.
Intervals are grouped by end cycle — per end, two parallel lists of slots
and start cycles, one entry per slot of a recorded operation — and
:meth:`ActivityTracker.snapshot` flattens them into one vectorised
clip-and-bincount.  The clipping is integer arithmetic, the busy sums are
exact whatever their order, and ``busy / effective_window`` is one IEEE
division per slot, so every value equals the per-tile
``min(1, busy / effective_window)`` of the historical scalar scan bit for
bit.

A snapshot may be for a cycle that has passed: an interval starting at or
after that cycle clips to nothing, so while every booking starts at the
current cycle (RESCQ's rule) a late snapshot equals an eager one.  Only
:meth:`ActivityTracker.prune` forgets intervals, exactly those no snapshot
at or after a given cycle can see; a heap of end cycles makes that
amortised ``O(log n)`` per end cycle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

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
        #: End cycle -> (slots, start cycles): interval i of a group is its
        #: slot busy during [starts[i], end).
        self._by_end: Dict[int, Tuple[List[int], List[int]]] = {}
        #: Min-heap of the keys of ``_by_end``.
        self._ends: List[int] = []

    def record(self, slots: Sequence[int], start: int, end: int) -> None:
        """Record that every ancilla of ``slots`` is busy during
        ``[start, end)``."""
        if end <= start:
            return
        group = self._by_end.get(end)
        if group is None:
            group = self._by_end[end] = ([], [])
            heapq.heappush(self._ends, end)
        group_slots, group_starts = group
        for slot in slots:
            group_slots.append(slot)
            group_starts.append(start)

    def prune(self, before: int) -> None:
        """Drop every interval that ended by ``before - window``.

        A snapshot at ``before`` or later clips such an interval to nothing,
        so after this call :meth:`snapshot` is exact for every cycle at or
        after ``before`` (and only for those).
        """
        horizon = before - self.window
        ends = self._ends
        by_end = self._by_end
        while ends and ends[0] <= horizon:
            del by_end[heapq.heappop(ends)]

    def snapshot(self, now: int) -> np.ndarray:
        """Activity of every slot at cycle ``now``: a fresh float64 array.

        Only intervals recorded by now count (see the module docstring for
        snapshots of a past cycle).
        """
        if now <= 0 or not self._by_end:
            return np.zeros(self._num_slots, dtype=np.float64)
        horizon = now - self.window
        slot_list: List[int] = []
        start_list: List[int] = []
        end_list: List[int] = []
        for end, (group_slots, group_starts) in self._by_end.items():
            if end > horizon:
                slot_list += group_slots
                start_list += group_starts
                end_list += [end] * len(group_slots)
        slots = np.asarray(slot_list, dtype=np.int64)
        starts = np.asarray(start_list, dtype=np.int64)
        ends = np.asarray(end_list, dtype=np.int64)
        contrib = np.minimum(ends, now) - np.maximum(starts, horizon)
        np.clip(contrib, 0, None, out=contrib)
        busy = np.bincount(slots, weights=contrib.astype(np.float64),
                           minlength=self._num_slots)
        # Integer-valued float64 sums are exact, so this is the scalar
        # ``min(1.0, busy / effective_window)`` per slot.
        activity = busy / min(self.window, now)
        np.minimum(activity, 1.0, out=activity)
        return activity
