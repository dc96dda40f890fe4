"""Per-ancilla queues and their entries (Section 4.1, Table 2).

Every ancilla tile owns a queue of the gates it has been asked to help
execute.  The queue provides the seniority ordering the paper relies on
("gates that have already been added to the queue must have been scheduled
earlier and thus are executed before more recent gates"): a gate may use a
tile only while it heads that tile's queue.

An entry holds only the gate and its kind; the kind prices the entry when
RESCQ estimates a tile's expected free time.  The rest of Table 2 lives on
the RESCQ task that owns the entry (:mod:`repro.scheduling.rescq`): a
task's ``preparing``/``holding``/``injecting``/``started`` state gives the
head's status, ``preparing[position][1]`` gives the angle level being
prepared on a tile, and ``task.queues`` lists the queues the gate sits on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..fabric import Position

__all__ = ["QueueEntry", "AncillaQueue", "QueueSet"]


class QueueEntry:
    """One element of an ancilla queue.

    A ``__slots__`` class rather than a dataclass: entries are created and
    their fields read on the per-pass hot path, and slot access keeps both
    cheap (works on every supported Python, unlike ``dataclass(slots=True)``).
    """

    __slots__ = ("gate_index", "gate_kind")

    def __init__(self, gate_index: int, gate_kind: str) -> None:
        self.gate_index = gate_index
        #: "cnot", "rz" or "h"
        self.gate_kind = gate_kind


class AncillaQueue:
    """FIFO queue of :class:`QueueEntry` for a single ancilla tile."""

    def __init__(self) -> None:
        #: The entry list, oldest first.  Shared, not copied: callers may
        #: iterate it directly on hot paths but must treat it as read-only.
        self.entries: List[QueueEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def remove_gate(self, gate_index: int) -> int:
        """Remove every entry for ``gate_index``; returns how many were removed."""
        before = len(self.entries)
        self.entries = [entry for entry in self.entries
                         if entry.gate_index != gate_index]
        return before - len(self.entries)

    def is_at_head(self, gate_index: int) -> bool:
        entries = self.entries
        return bool(entries) and entries[0].gate_index == gate_index


class QueueSet:
    """The ancilla queues of one fabric, keyed by tile position."""

    def __init__(self, positions: Iterable[Position]) -> None:
        self._queues: Dict[Position, AncillaQueue] = {
            position: AncillaQueue() for position in positions}

    def __getitem__(self, position: Position) -> AncillaQueue:
        return self._queues[position]

    def enqueue(self, position: Position, entry: QueueEntry) -> AncillaQueue:
        """Append ``entry`` to the queue at ``position`` and return that queue."""
        queue = self._queues[position]
        queue.entries.append(entry)
        return queue

    def remove_gate_everywhere(self, gate_index: int,
                               queues: Iterable[AncillaQueue]) -> int:
        """Remove ``gate_index`` from ``queues`` (the ones it was enqueued on)."""
        return sum(queue.remove_gate(gate_index) for queue in queues)
