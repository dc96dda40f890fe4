"""The simulation kernel: the state every scheduling policy shares.

:class:`SimulationKernel` owns everything a scheduling policy shares with
every other policy — the clock and event queue, the fabric occupancy state,
the gate lifecycle, the per-layout routing index, the seeded RNG and the
optional profiler — plus the ``max_cycles`` rule and result assembly.

Each policy runs its own drive loop over that state:

* :meth:`repro.scheduling.rescq.RescqPolicy.run` — the realtime loop
  (RESCQ): repeat scheduling passes at the current cycle, then jump the
  clock to the next pending event and dispatch it;
* :meth:`repro.scheduling.static._StaticLayerPolicy.run` — the static
  baseline loop: execute the circuit layer by layer with a barrier after
  each (the next layer starts only when every gate of the current one has
  finished).

Both loops stop a run that passes ``config.max_cycles`` through
:meth:`SimulationKernel.check_cycle_bound` and finish with
:meth:`SimulationKernel.build_result`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..circuits import Circuit
from ..lattice import RoutingIndex
from ..sim.config import SimulationConfig
from ..sim.results import SimulationResult
from .clock import SimulationClock
from .fabric_state import FabricState
from .lifecycle import GateLifecycle
from .profiler import KernelProfile

__all__ = ["DeadlockError", "SimulationKernel"]


class DeadlockError(RuntimeError):
    """No gate can make progress and no work is in flight."""


class SimulationKernel:
    """Shared state of one seeded scheduler run."""

    def __init__(self, circuit: Circuit, layout, config: SimulationConfig,
                 seed: int, scheduler_name: str,
                 benchmark: Optional[str] = None,
                 activity_window: Optional[int] = None,
                 started: Optional[float] = None) -> None:
        #: ``time.perf_counter()`` when the run's set-up began (stripping
        #: the circuit, its dependency structure, policy construction):
        #: the ``setup`` and ``total`` wall phases are measured from here.
        self.started = time.perf_counter() if started is None else started
        self.circuit = circuit
        self.layout = layout
        self.config = config
        self.seed = seed
        self.scheduler_name = scheduler_name
        self.benchmark = benchmark if benchmark is not None else circuit.name
        self.rng = np.random.default_rng(seed)
        self.profile: Optional[KernelProfile] = (
            KernelProfile() if config.profile_enabled else None)

        self.clock = SimulationClock()
        self.fabric = FabricState(layout, circuit.num_qubits,
                                  activity_window=activity_window,
                                  profile=self.profile)
        self.lifecycle = GateLifecycle(circuit)
        #: Shared per-layout routing cache (reused across runs and seeds).
        self.routing = RoutingIndex.for_layout(layout)
        # The routing index is shared across runs; remember its counters so
        # the profile reports only this run's routing work.
        self._routing_start = {
            name: getattr(self.routing, name) for name in
            ("queries", "plan_cache_hits", "bfs_runs", "bfs_tiles")}
        self._search_ns_start = self.routing.search_ns

    def check_cycle_bound(self, cycle: int) -> None:
        """Raise once the run reaches past ``config.max_cycles``."""
        bound = self.config.max_cycles
        if cycle > bound:
            raise RuntimeError(
                f"simulation reached cycle {cycle}, past max_cycles={bound}; "
                "raise SimulationConfig.max_cycles for a longer run, or check "
                "that the layout's ancilla fabric connects the qubits")

    # -- result assembly ------------------------------------------------------------

    def build_result(self,
                     metadata: Optional[Dict[str, float]] = None
                     ) -> SimulationResult:
        profile: Dict[str, float] = {}
        if self.profile is not None:
            self.profile.add("events", float(self.clock.events_processed))
            for name, start in self._routing_start.items():
                self.profile.add(f"routing_{name}",
                                 float(getattr(self.routing, name) - start))
            # Every route search runs inside a ``routing`` timer: book its
            # time as its own phase, so the phases stay exclusive.
            search_s = (self.routing.search_ns - self._search_ns_start) / 1e9
            if search_s:
                self.profile.add_wall("route_search", search_s)
                self.profile.add_wall("routing", -search_s)
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
