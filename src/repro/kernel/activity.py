"""Sliding-window ancilla activity tracking (Section 4.2).

RESCQ's routing metric is the *activity* of each ancilla qubit: the fraction
of the last ``c`` cycles during which the ancilla was busy.  The tracker
records busy intervals as they are scheduled and answers window queries at MST
(re)computation time; old intervals are pruned lazily.

Intervals are stored struct-of-arrays style — three parallel flat lists
``(slot, start, end)`` plus a position<->slot interning map — so the bulk
:meth:`ActivityTracker.snapshot` query (one per MST build, over every ancilla)
runs as a single vectorised clip-and-bincount instead of a per-position python
loop.  The arithmetic is pure integer clipping, so the numbers are identical
to the historical per-position scan.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..fabric import Position

__all__ = ["ActivityTracker"]


class ActivityTracker:
    """Records per-ancilla busy intervals and answers windowed activity queries."""

    def __init__(self, window: int = 100) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        #: Position -> dense slot index (assigned on first record).
        self._slots: Dict[Position, int] = {}
        # Parallel interval arrays: interval i is tile _slot_list[i] busy
        # during [_start_list[i], _end_list[i]).
        self._slot_list: List[int] = []
        self._start_list: List[int] = []
        self._end_list: List[int] = []

    def record_busy(self, position: Position, start: int, end: int) -> None:
        """Record that ``position`` is busy during cycles ``[start, end)``."""
        if end <= start:
            return
        slot = self._slots.get(position)
        if slot is None:
            slot = len(self._slots)
            self._slots[position] = slot
        self._slot_list.append(slot)
        self._start_list.append(start)
        self._end_list.append(end)

    def snapshot(self, positions: Iterable[Position], now: int) -> Dict[Position, float]:
        """Activity of every listed position at cycle ``now`` (one numpy pass)."""
        if now <= 0 or not self._slot_list:
            return {position: 0.0 for position in positions}
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
                           minlength=len(self._slots))
        effective_window = min(self.window, now)
        slot_of = self._slots.get
        result: Dict[Position, float] = {}
        for position in positions:
            slot = slot_of(position)
            if slot is None:
                result[position] = 0.0
            else:
                result[position] = min(1.0, int(busy[slot]) / effective_window)
        return result
