"""The simulated-time axis: current cycle plus a deterministic event queue."""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

__all__ = ["SimulationClock"]


class SimulationClock:
    """Simulation clock with a cycle-ordered event queue.

    Events are ``(cycle, tag, payload)`` records.  Ties on ``cycle`` resolve
    strictly by push order (a monotonic sequence number), never by payload
    contents — which is what makes kernel event ordering deterministic and
    independent of dict/set iteration order in the policies.
    """

    def __init__(self) -> None:
        self.now = 0
        self._events: List[Tuple[int, int, str, tuple]] = []
        self._seq = 0
        self.events_processed = 0

    def push(self, cycle: int, tag: str, payload: tuple) -> None:
        """Schedule ``(tag, payload)`` to fire at ``cycle``."""
        self._seq += 1
        heapq.heappush(self._events, (cycle, self._seq, tag, payload))

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or ``None`` when idle."""
        return self._events[0][0] if self._events else None

    def advance(self, cycle: int) -> None:
        """Move the clock forward to ``cycle``."""
        self.now = cycle

    def pop_due(self, cycle: int) -> Iterator[Tuple[str, tuple]]:
        """Pop and yield every event scheduled at or before ``cycle``.

        Events pushed *while iterating* with a due cycle are picked up in the
        same sweep (heap order is re-evaluated on every step).
        """
        while self._events and self._events[0][0] <= cycle:
            _cycle, _seq, tag, payload = heapq.heappop(self._events)
            self.events_processed += 1
            yield tag, payload
