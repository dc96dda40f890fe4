"""Per-ancilla queues and their entries (Section 4.1, Table 2).

Every ancilla tile owns a queue of the gates it has been asked to help
execute.  Each entry records the gate, an optional helper ancilla and — for
the entry at the head of the queue — a status:

=====  =============================================================
``R``  ready to execute the next gate
``E``  executing the gate at the head of the queue
``P``  preparing the |m_theta> state for the Rz gate at the head
``D``  done preparing, waiting to inject
``F``  finished executing the gate at the head
=====  =============================================================

The queue provides the seniority ordering the paper relies on ("gates that
have already been added to the queue must have been scheduled earlier and thus
are executed before more recent gates") and the in-place angle update used for
eager correction preparation.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..fabric import Position

__all__ = ["AncillaStatus", "AncillaRole", "QueueEntry", "AncillaQueue",
           "QueueSet"]


class AncillaStatus(enum.Enum):
    """Status of the head-of-queue entry (Table 2)."""

    READY = "R"
    EXECUTING = "E"
    PREPARING = "P"
    DONE_PREPARING = "D"
    FINISHED = "F"


class AncillaRole(enum.Enum):
    """What the ancilla does for the gate it is enqueued for."""

    PREPARE = "prepare"      # prepare an |m_theta> state for an Rz gate
    ROUTE = "route"          # part of a CNOT / injection routing path
    ROTATE = "rotate"        # helper for an edge-rotation gate
    HELPER = "helper"        # generic helper (Hadamard, CNOT-injection partner)


class QueueEntry:
    """One element of an ancilla queue (the variables of Table 2).

    A ``__slots__`` class rather than a dataclass: entries are created and
    their fields read on the per-pass hot path, and slot access keeps both
    cheap (works on every supported Python, unlike ``dataclass(slots=True)``).
    """

    __slots__ = ("gate_index", "gate_kind", "data_qubits", "role", "helper",
                 "angle_level", "status", "sequence")

    def __init__(self, gate_index: int, gate_kind: str,
                 data_qubits: Tuple[int, ...], role: AncillaRole,
                 helper: Optional[Position] = None, angle_level: int = 0,
                 status: AncillaStatus = AncillaStatus.READY,
                 sequence: int = 0) -> None:
        self.gate_index = gate_index
        #: "cnot", "rz", "h", "edge_rotation"
        self.gate_kind = gate_kind
        self.data_qubits = data_qubits
        self.role = role
        self.helper = helper
        #: Correction level for Rz gates: 0 = theta, 1 = 2*theta, ... (updated
        #: in place for eager correction preparation, Section 4.1).
        self.angle_level = angle_level
        self.status = status
        #: Monotonic sequence number assigned at enqueue time (seniority order).
        self.sequence = sequence

    def describe(self) -> str:
        qubits = ",".join(str(q) for q in self.data_qubits)
        return (f"{self.status.value}:{self.gate_kind}[{self.gate_index}]"
                f"(q={qubits},lvl={self.angle_level},{self.role.value})")


class AncillaQueue:
    """FIFO queue of :class:`QueueEntry` for a single ancilla tile."""

    def __init__(self, position: Position) -> None:
        self.position = position
        #: The entry list, oldest first.  Shared, not copied: callers may
        #: iterate it directly on hot paths but must treat it as read-only.
        self.entries: List[QueueEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[QueueEntry]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def head(self) -> Optional[QueueEntry]:
        return self.entries[0] if self.entries else None

    def enqueue(self, entry: QueueEntry) -> None:
        self.entries.append(entry)

    def remove_gate(self, gate_index: int) -> int:
        """Remove every entry for ``gate_index``; returns how many were removed."""
        before = len(self.entries)
        self.entries = [entry for entry in self.entries
                         if entry.gate_index != gate_index]
        return before - len(self.entries)

    def is_at_head(self, gate_index: int) -> bool:
        head = self.head
        return head is not None and head.gate_index == gate_index

    def update_angle_level(self, gate_index: int, angle_level: int) -> int:
        """In-place angle-level bump for eager correction prep (Section 4.1)."""
        updated = 0
        for entry in self.entries:
            if entry.gate_index == gate_index and entry.angle_level < angle_level:
                entry.angle_level = angle_level
                updated += 1
        return updated

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.position}: " + " | ".join(e.describe() for e in self.entries)


class QueueSet:
    """The collection of all ancilla queues plus the global sequence counter."""

    def __init__(self, positions: Iterable[Position]) -> None:
        self._queues: Dict[Position, AncillaQueue] = {
            position: AncillaQueue(position) for position in positions}
        self._sequence = 0
        #: gate index -> queues it was enqueued on, so removal never scans
        #: the whole fabric.  May hold stale positions (entries drained by
        #: ``pop_head``); ``remove_gate`` is a no-op there.
        self._gate_positions: Dict[int, List[Position]] = {}

    def __getitem__(self, position: Position) -> AncillaQueue:
        return self._queues[position]

    def __contains__(self, position: Position) -> bool:
        return position in self._queues

    def queues(self) -> Iterable[AncillaQueue]:
        return self._queues.values()

    def next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def enqueue(self, position: Position, entry: QueueEntry) -> QueueEntry:
        """Enqueue ``entry`` at ``position``, stamping its sequence number."""
        if entry.sequence == 0:
            entry.sequence = self.next_sequence()
        self._queues[position].enqueue(entry)
        positions = self._gate_positions.setdefault(entry.gate_index, [])
        if position not in positions:
            positions.append(position)
        return entry

    def remove_gate_everywhere(self, gate_index: int) -> int:
        positions = self._gate_positions.pop(gate_index, ())
        return sum(self._queues[position].remove_gate(gate_index)
                   for position in positions)
