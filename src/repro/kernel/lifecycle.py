"""The gate lifecycle: dependency releases and retirement.

Every gate moves through the same states regardless of policy::

    pending --(all predecessors retired)--> released --(policy starts
    hardware work)--> executing --> retired (trace recorded)

The lifecycle owns the dependency graph, the cycle at which each gate was
released, and the ordered trace list; policies own the in-between (their
task objects, queues and arbitration).
"""

from __future__ import annotations

from typing import Dict, List

from ..circuits import Circuit, GateDependencyGraph
from ..sim.results import GateTrace

__all__ = ["GateLifecycle"]


class GateLifecycle:
    """Release/retire bookkeeping for one circuit execution."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._dag: "GateDependencyGraph | None" = None
        #: Gate index -> cycle at which all its predecessors had retired.
        self.release_cycle: Dict[int, int] = {}
        #: Retirement order; what :class:`~repro.sim.results.SimulationResult`
        #: reports as ``traces``.
        self.traces: List[GateTrace] = []

    @property
    def dag(self) -> GateDependencyGraph:
        """The dependency graph, built on first use.

        Layer-synchronous policies derive ordering from ``circuit.layers()``
        and only append traces, so they never pay for DAG construction.
        """
        if self._dag is None:
            self._dag = GateDependencyGraph(self.circuit)
        return self._dag

    def release_initial(self) -> None:
        """Release the dependency-free frontier at cycle 0."""
        for index in self.dag.ready:
            self.release_cycle[index] = 0

    @property
    def all_completed(self) -> bool:
        return self.dag.all_completed

    @property
    def num_pending(self) -> int:
        return self.dag.num_pending

    def retire(self, trace: GateTrace, now: int) -> List[int]:
        """Record ``trace``, complete the gate, release its successors.

        Newly released successors get ``now`` as their release cycle.
        Returns the newly released gate indices.
        """
        self.traces.append(trace)
        newly_released = self.dag.complete(trace.gate_index)
        for index in newly_released:
            self.release_cycle[index] = now
        return newly_released

    def describe_pending(self, limit: int = 4) -> str:
        """``#index kind`` summaries of the first pending gates.

        Diagnostic detail for :class:`~repro.kernel.kernel.DeadlockError`:
        naming the stuck gates beats reporting only a count.
        """
        indices = self.dag.pending_nodes(limit + 1)
        parts = [f"#{index} {self.circuit[index].name}"
                 for index in indices[:limit]]
        if len(indices) > limit:
            parts.append("...")
        return ", ".join(parts)
