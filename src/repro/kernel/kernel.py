"""The simulation kernel: one engine, two disciplines, pluggable policies.

:class:`SimulationKernel` owns everything a scheduling policy shares with
every other policy — the clock and event queue, the fabric occupancy state,
the gate lifecycle, the per-layout routing index, the seeded RNG and the
optional profiler — and drives one of two execution disciplines:

* :meth:`SimulationKernel.run_event_driven` — the realtime loop (RESCQ):
  repeat scheduling passes at the current cycle, then jump the clock to the
  next pending event and dispatch it to the policy;
* :meth:`SimulationKernel.run_layer_synchronous` — the static baseline loop:
  execute the circuit layer by layer with a barrier after each (the next
  layer starts only when every gate of the current one has finished).

Policies implement the narrow hooks of :class:`EventDrivenPolicy` or
:class:`LayerSyncPolicy`: release rules, queue arbitration and plan choice.
Everything else — time, occupancy, dependency releases, trace collection,
result assembly — is kernel machinery.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Optional

import numpy as np

from ..circuits import Circuit, Gate
from ..lattice import RoutingIndex
from ..sim.config import SimulationConfig
from ..sim.results import SimulationResult
from .clock import SimulationClock
from .fabric_state import FabricState
from .lifecycle import GateLifecycle
from .profiler import KernelProfile

__all__ = ["DeadlockError", "EventDrivenPolicy", "LayerSyncPolicy",
           "SimulationKernel"]


class DeadlockError(RuntimeError):
    """No gate can make progress and no work is in flight."""


class EventDrivenPolicy(abc.ABC):
    """Hooks an event-driven (realtime) scheduling policy implements."""

    def on_start(self) -> None:
        """Called once, after the initial dependency frontier is released."""

    @abc.abstractmethod
    def schedule_pass(self) -> None:
        """Start every piece of work that can start at the current cycle."""

    @abc.abstractmethod
    def handle_event(self, tag: str, payload: tuple) -> None:
        """React to one completion event popped from the clock's queue."""

    def on_advance(self) -> None:
        """Called after the events due at a cycle ran, with the clock there."""

    def result_metadata(self) -> Dict[str, float]:
        """Extra fields for :attr:`SimulationResult.metadata`."""
        return {}


class LayerSyncPolicy(abc.ABC):
    """Hooks a layer-synchronous scheduling policy implements."""

    def begin_layer(self, layer_start: int) -> None:
        """Called at the start of each layer (reset per-layer arbitration)."""

    @abc.abstractmethod
    def execute_gate(self, gate_index: int, gate: Gate,
                     layer_start: int) -> int:
        """Execute one gate of the open layer; return its end cycle."""

    def result_metadata(self) -> Dict[str, float]:
        return {}


class SimulationKernel:
    """Shared state and drive loops for one seeded scheduler run."""

    def __init__(self, circuit: Circuit, layout, config: SimulationConfig,
                 seed: int, scheduler_name: str,
                 benchmark: Optional[str] = None,
                 activity_window: Optional[int] = None) -> None:
        self.circuit = circuit
        self.layout = layout
        self.config = config
        self.seed = seed
        self.scheduler_name = scheduler_name
        self.benchmark = benchmark if benchmark is not None else circuit.name
        self.rng = np.random.default_rng(seed)

        self.clock = SimulationClock()
        self.fabric = FabricState(layout, circuit.num_qubits,
                                  activity_window=activity_window)
        self.lifecycle = GateLifecycle(circuit)
        #: Shared per-layout routing cache (reused across runs and seeds).
        self.routing = RoutingIndex.for_layout(layout)
        # The routing index is shared across runs; remember its counters so
        # the profile reports only this run's queries.
        self._routing_queries_start = self.routing.queries
        self._routing_hits_start = self.routing.plan_cache_hits
        self.profile: Optional[KernelProfile] = (
            KernelProfile() if config.profile_enabled else None)

    # -- drive loops ---------------------------------------------------------------

    def run_event_driven(self, policy: EventDrivenPolicy) -> SimulationResult:
        """The realtime discipline: scheduling passes + event-queue jumps."""
        profile = self.profile
        wall_start = time.perf_counter() if profile is not None else 0.0
        self.lifecycle.release_initial()
        policy.on_start()
        while not self.lifecycle.all_completed:
            if profile is not None:
                profile.add("scheduling_passes")
            policy.schedule_pass()
            if self.lifecycle.all_completed:
                break
            next_cycle = self.clock.next_event_cycle()
            if next_cycle is None:
                raise DeadlockError(
                    f"scheduler deadlock at cycle {self.clock.now}: "
                    f"{self.lifecycle.num_pending} gates pending with no "
                    f"work in flight "
                    f"({self.lifecycle.describe_pending()})")
            if next_cycle > self.config.max_cycles:
                raise RuntimeError("simulation exceeded max_cycles")
            self.clock.advance(next_cycle)
            for tag, payload in self.clock.pop_due(next_cycle):
                policy.handle_event(tag, payload)
            policy.on_advance()
        if profile is not None:
            profile.add_wall("total", time.perf_counter() - wall_start)
        return self.build_result(policy.result_metadata())

    def run_layer_synchronous(self, policy: LayerSyncPolicy) -> SimulationResult:
        """The static discipline: per-layer execution with a full barrier."""
        profile = self.profile
        wall_start = time.perf_counter() if profile is not None else 0.0
        clock = 0
        for layer in self.circuit.layers():
            layer_start = clock
            layer_end = layer_start
            policy.begin_layer(layer_start)
            for gate_index in layer:
                gate = self.circuit[gate_index]
                end = policy.execute_gate(gate_index, gate, layer_start)
                layer_end = max(layer_end, end)
                if layer_end - layer_start > self.config.max_cycles:
                    raise RuntimeError("layer exceeded max_cycles; "
                                       "likely an unroutable CNOT")
            # Layer barrier: everything waits for the slowest gate.
            clock = layer_end
            self.fabric.layer_barrier(clock)
        self.clock.advance(clock)
        if profile is not None:
            profile.add_wall("total", time.perf_counter() - wall_start)
        return self.build_result(policy.result_metadata())

    # -- result assembly ------------------------------------------------------------

    def build_result(self,
                     metadata: Optional[Dict[str, float]] = None
                     ) -> SimulationResult:
        profile: Dict[str, float] = {}
        if self.profile is not None:
            self.profile.add("events", float(self.clock.events_processed))
            self.profile.add("routing_queries",
                             float(self.routing.queries
                                   - self._routing_queries_start))
            self.profile.add("routing_plan_cache_hits",
                             float(self.routing.plan_cache_hits
                                   - self._routing_hits_start))
            profile = self.profile.as_dict()
        return SimulationResult(
            benchmark=self.benchmark,
            scheduler=self.scheduler_name,
            seed=self.seed,
            total_cycles=self.clock.now,
            num_qubits=self.circuit.num_qubits,
            traces=self.lifecycle.traces,
            data_busy_cycles=self.fabric.data_busy,
            config_summary=self.config.describe(),
            metadata=dict(metadata or {}),
            profile=profile,
        )
