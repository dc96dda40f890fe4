"""Per-ancilla queues and their entries (Section 4.1, Table 2).

Every ancilla tile owns a queue of the gates it has been asked to help
execute; the queues of a fabric are a list indexed by the tile's
:class:`~repro.fabric.flat.FlatGrid` slot, the one tile identity inside a
run.  The queue provides the seniority ordering the paper relies on
("gates that have already been added to the queue must have been scheduled
earlier and thus are executed before more recent gates"): a gate may use a
tile only while it heads that tile's queue.

An entry holds only the gate and its kind; the kind prices the entry when
RESCQ estimates a tile's expected free time.  The rest of Table 2 lives on
the RESCQ task that owns the entry (:mod:`repro.scheduling.rescq`): an Rz
task's ``preparing``/``holding``/``injecting`` state, or the ``started``
flag of the one gate task a CNOT or Hadamard has, gives the head's status;
``preparing[slot][1]`` gives the angle level being prepared on a tile,
and ``task.queues`` lists the queues the gate sits on.

A queue also keeps the tile's wake list: RESCQ tasks parked because the
tile is busy or holds another gate's state wait in ``waiters`` until the
policy frees the tile.  Nothing parks here for a queue another gate heads:
:meth:`AncillaQueue.remove_gate` reports the new head when the head changes,
and RESCQ wakes that gate's task (a gate task once it heads every queue it
sits on).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

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

    __slots__ = ("entries", "waiters", "_pending", "_priced")

    def __init__(self) -> None:
        #: The entry list, oldest first.  Shared, not copied: callers may
        #: read it directly on hot paths but must treat it as read-only, and
        #: must not hold an iterator over it across a removal.
        self.entries: List[QueueEntry] = []
        #: Tasks parked until this tile frees or drops a held state.
        self.waiters: list = []
        #: Memoised :meth:`pending_cost` of the first ``_priced`` entries.
        self._pending = 0.0
        self._priced = 0

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: QueueEntry) -> None:
        self.entries.append(entry)

    def remove_gate(self, gate_index: int) -> Optional[int]:
        """Remove the oldest entry for ``gate_index``.

        One removal undoes one :meth:`append`; a gate enqueued here twice is
        removed twice.  Returns the gate that heads the queue because of the
        removal, or ``None`` when the head did not change or the queue is
        now empty.  A finished gate usually heads the queue, so removal is
        a head pop rather than a scan.
        """
        entries = self.entries
        self._pending = 0.0
        self._priced = 0
        if entries and entries[0].gate_index == gate_index:
            del entries[0]
            if entries and entries[0].gate_index != gate_index:
                return entries[0].gate_index
            return None
        for position, entry in enumerate(entries):
            if entry.gate_index == gate_index:
                del entries[position]
                return None
        raise ValueError(f"gate {gate_index} is not in this queue")

    def pending_cost(self, prices: Dict[str, float]) -> float:
        """Sum of ``prices[entry.gate_kind]`` over the entries, oldest first.

        Memoised: entries appended since the last call are added to the
        memo in entry order, and a :meth:`remove_gate` starts the sum over,
        so the float result is the one a fresh left-to-right summation
        gives.  A queue must always be priced with the same table.
        """
        entries = self.entries
        priced = self._priced
        if priced == len(entries):
            return self._pending
        pending = self._pending
        for entry in entries[priced:]:
            pending += prices[entry.gate_kind]
        self._pending = pending
        self._priced = len(entries)
        return pending


class QueueSet(list):
    """The ancilla queues of one fabric: slot -> :class:`AncillaQueue`.

    A ``list`` so that the per-tile lookups on the scheduling hot path are
    plain list reads.
    """

    def __init__(self, num_slots: int) -> None:
        super().__init__(AncillaQueue() for _ in range(num_slots))

    def enqueue(self, slot: int, entry: QueueEntry) -> AncillaQueue:
        """Append ``entry`` to the queue of ``slot`` and return that queue."""
        queue = self[slot]
        queue.append(entry)
        return queue

    def remove_gate_everywhere(self, gate_index: int,
                               queues: Iterable[AncillaQueue]) -> List[int]:
        """Remove ``gate_index`` from ``queues``: the queue :meth:`enqueue`
        returned for each of its entries, once per entry.

        Returns the gates that became a queue head, one per such queue.
        """
        heads = []
        for queue in queues:
            head = queue.remove_gate(gate_index)
            if head is not None:
                heads.append(head)
        return heads
