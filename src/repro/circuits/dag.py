"""Dependency DAG over circuit gates.

The realtime scheduler (RESCQ) does not operate on synchronous layers: a gate
becomes *schedulable* the moment the previous gate on each of its operand
qubits has completed (Section 3.1).  The :class:`GateDependencyGraph` captures
exactly that per-qubit program order and exposes the incremental "release"
interface the simulator drives.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .circuit import Circuit
from .gates import GateType

__all__ = ["GateDependencyGraph"]


class GateDependencyGraph:
    """Per-qubit dependency graph of a circuit.

    Nodes are gate indices into the originating circuit.  There is an edge
    ``i -> j`` when gate ``j`` is the next gate after ``i`` on some shared
    qubit.  Zero-cost gates (Pauli frame updates, barriers, measurements) are
    excluded: they neither occupy hardware nor delay successors.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._successors: Dict[int, Set[int]] = defaultdict(set)
        self._predecessor_count: Dict[int, int] = {}
        self._nodes: List[int] = []
        self._critical_path_length: Dict[int, int] = {}

        last_on_qubit: Dict[int, int] = {}
        for index, gate in enumerate(circuit):
            if gate.is_free or gate.gate_type is GateType.BARRIER:
                continue
            self._nodes.append(index)
            preds: Set[int] = set()
            for qubit in gate.qubits:
                if qubit in last_on_qubit:
                    preds.add(last_on_qubit[qubit])
                last_on_qubit[qubit] = index
            self._predecessor_count[index] = len(preds)
            for pred in preds:
                self._successors[pred].add(index)

        self._compute_critical_paths()
        self._remaining_predecessors = dict(self._predecessor_count)
        self._completed: Set[int] = set()
        self._released: Set[int] = {
            node for node, count in self._remaining_predecessors.items()
            if count == 0
        }

    # -- static structure --------------------------------------------------------

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(self._nodes)

    def successors(self, index: int) -> Tuple[int, ...]:
        return tuple(sorted(self._successors.get(index, ())))

    def critical_path_length(self, index: int) -> int:
        """Longest chain of dependent gates starting at ``index`` (inclusive).

        Used as the scheduling priority: gates with larger remaining depth are
        more likely to be on the program's critical path.
        """
        return self._critical_path_length[index]

    def _compute_critical_paths(self) -> None:
        for index in reversed(self._nodes):
            best = 0
            for succ in self._successors.get(index, ()):
                best = max(best, self._critical_path_length[succ])
            self._critical_path_length[index] = best + 1

    # -- incremental release interface -------------------------------------------

    @property
    def ready(self) -> Tuple[int, ...]:
        """Gate indices whose predecessors have all completed, not yet completed."""
        return tuple(sorted(self._released - self._completed))

    def by_priority(self, indices: Iterable[int]) -> List[int]:
        """``indices`` ordered by descending critical-path length, then index.

        RESCQ creates the tasks of newly released gates in this order.
        """
        critical = self._critical_path_length
        return sorted(indices, key=lambda i: (-critical[i], i))

    def complete(self, index: int) -> List[int]:
        """Mark gate ``index`` completed and return newly released successors."""
        if index not in self._predecessor_count:
            raise KeyError(f"gate {index} is not a node of the dependency graph")
        if index in self._completed:
            raise ValueError(f"gate {index} completed twice")
        if index not in self._released:
            raise ValueError(f"gate {index} completed before its predecessors")
        self._completed.add(index)
        newly_released: List[int] = []
        for succ in sorted(self._successors.get(index, ())):
            self._remaining_predecessors[succ] -= 1
            if self._remaining_predecessors[succ] == 0:
                self._released.add(succ)
                newly_released.append(succ)
        return newly_released

    @property
    def all_completed(self) -> bool:
        return len(self._completed) == len(self._nodes)

    @property
    def num_pending(self) -> int:
        return len(self._nodes) - len(self._completed)

    def pending_nodes(self, limit: Optional[int] = None) -> List[int]:
        """Not-yet-completed node indices in program order.

        ``limit`` caps the scan — diagnostics (e.g. the deadlock message)
        only want the first few stuck gates, not a full-circuit walk.
        """
        result: List[int] = []
        completed = self._completed
        for index in self._nodes:
            if index not in completed:
                result.append(index)
                if limit is not None and len(result) >= limit:
                    break
        return result

    def __len__(self) -> int:
        return len(self._nodes)
