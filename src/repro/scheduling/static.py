"""Static layer-synchronous baseline schedulers (Section 5.1).

The paper compares RESCQ against two statically scheduled baselines:

* **greedy** shortest-path selection [Javadi-Abhari et al., MICRO'17]; and
* **AutoBraid** [Hua et al., MICRO'21], which additionally tries to pick
  edge-disjoint paths for the CNOTs of a layer.

Both are augmented with the naive Rz protocol of the STAR proposal: exactly
one dedicated ancilla per data qubit prepares |m_theta>, preparation starts
only when the gate's layer is reached, and there is no eager preparation of
the correction state.  Crucially, both are *layer-synchronous*: the next layer
starts only after every gate of the current layer has finished, which is where
most of their cycle count goes once non-deterministic Rz gates are present
(Section 3.1).

This module holds the layer loop with its barrier
(:meth:`_StaticLayerPolicy.run`), the per-gate execution mechanics and the
per-layer CNOT path-selection policies
(:meth:`StaticLayerScheduler._choose_plan`).  Clock, fabric occupancy, the
``max_cycles`` rule and result assembly are the shared
:class:`~repro.kernel.SimulationKernel`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..circuits import Circuit, Gate
from ..fabric import GridLayout, Position
from ..kernel import SimulationKernel, profile_timer
from ..lattice import RoutePlan
from ..rus import InjectionStrategy
from ..sim.config import SimulationConfig
from ..sim.results import GateTrace, SimulationResult
from .base import Scheduler, gate_kind

__all__ = ["StaticLayerScheduler", "GreedyScheduler", "AutoBraidScheduler"]


class _StaticLayerPolicy:
    """Layer loop and per-gate execution mechanics of the static baselines.

    Plan *choice* is delegated back to the owning scheduler's
    :meth:`StaticLayerScheduler._choose_plan`, which is all that
    distinguishes greedy from AutoBraid.
    """

    def __init__(self, kernel: SimulationKernel,
                 scheduler: "StaticLayerScheduler") -> None:
        self.kernel = kernel
        self.scheduler = scheduler
        self.config = kernel.config
        self.costs = kernel.config.costs
        self.layout = kernel.layout
        self.rng = kernel.rng
        self.prep_model = kernel.config.preparation_model()
        self.fabric = kernel.fabric
        self.lifecycle = kernel.lifecycle
        self.routing = kernel.routing
        self.profile = kernel.profile
        self.orientation = kernel.fabric.orientation
        #: How many times each ancilla has been claimed within the open layer
        #: (AutoBraid uses this to spread paths out).
        self.claimed: Dict[Position, int] = {}
        #: qubit -> (prep ancilla, injection helper, injection cycles); the
        #: dedicated-block geometry is static, so it is resolved once.
        self._rz_geometry: Dict[int, Tuple[Position, Optional[Position], int]] = {}

    # -- the drive loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """The static discipline: per-layer execution with a full barrier."""
        kernel = self.kernel
        circuit = kernel.circuit
        profile = self.profile
        wall_start = time.perf_counter() if profile is not None else 0.0
        clock = 0
        for layer in circuit.layers():
            layer_start = clock
            layer_end = layer_start
            self.claimed = {}
            for gate_index in layer:
                gate = circuit[gate_index]
                kind = gate_kind(gate)
                if kind == "cnot":
                    end = self._execute_cnot(gate_index, gate, layer_start)
                elif kind == "rz":
                    end = self._execute_rz(gate_index, gate, layer_start)
                elif kind == "h":
                    end = self._execute_hadamard(gate_index, gate, layer_start)
                else:  # pragma: no cover - free gates are stripped beforehand
                    continue
                if end > layer_end:
                    layer_end = end
                    kernel.check_cycle_bound(layer_end)
            # Layer barrier: everything waits for the slowest gate.
            clock = layer_end
            self.fabric.layer_barrier(clock)
        kernel.clock.advance(clock)
        if profile is not None:
            profile.add_wall("total", time.perf_counter() - wall_start)
        return kernel.build_result()

    # -- gate executors ----------------------------------------------------------

    def _execute_cnot(self, gate_index: int, gate: Gate,
                      layer_start: int) -> int:
        control, target = gate.control, gate.target
        with profile_timer(self.profile, "routing"):
            plans = self.routing.enumerate_plans(self.orientation,
                                                 control, target)
        if not plans:
            raise RuntimeError(
                f"no ancilla path between qubits {control} and {target}; "
                "the layout's ancilla fabric is disconnected")
        plan = self.scheduler._choose_plan(plans, self.claimed, self.config)
        duration = plan.duration(self.costs)
        resources = plan.ancillas_used
        anc_free = self.fabric.anc_free
        start = max(layer_start, self.fabric.data_free[control],
                    self.fabric.data_free[target],
                    *(anc_free[pos] for pos in resources))
        end = start + duration
        for position in resources:
            self.fabric.occupy_ancilla(position, start, end)
            self.claimed[position] = self.claimed.get(position, 0) + 1
        self.fabric.occupy_data(control, start, end)
        self.fabric.occupy_data(target, start, end)
        if plan.control_rotation:
            self.orientation.rotate(control)
        if plan.target_rotation:
            self.orientation.rotate(target)
        if self.profile is not None:
            self.profile.add("sim_cnot_cycles", float(duration))
        self.lifecycle.traces.append(GateTrace(
            gate_index, "cnot", gate.qubits,
            scheduled_cycle=layer_start,
            start_cycle=start, end_cycle=end,
            edge_rotations=plan.num_rotations))
        return end

    def _dedicated_prep_ancilla(self, qubit: int) -> Position:
        """The single ancilla the STAR baseline uses for this qubit's |m_theta>.

        Figure 1d always prepares in one fixed ancilla of the atomic block;
        we use the first available block ancilla (east, then south, then
        south-east), falling back to any ancilla neighbour after compression.
        """
        row, col = self.layout.data_position(qubit)
        for candidate in ((row, col + 1), (row + 1, col), (row + 1, col + 1)):
            if self.layout.is_ancilla(candidate):
                return candidate
        neighbors = self.layout.ancilla_neighbors_of_qubit(qubit)
        if not neighbors:
            raise RuntimeError(f"data qubit {qubit} has no ancilla neighbour")
        return neighbors[0]

    def _rz_resources(self, qubit: int) -> Tuple[Position, Optional[Position], int]:
        """(prep ancilla, helper, injection cycles) for the qubit — memoised.

        A CNOT-style injection needs a second ancilla (Table 1); use another
        free neighbour when one exists, otherwise fall back to the 1-ancilla
        ZZ strategy (compressed blocks may simply not have a second tile).
        """
        cached = self._rz_geometry.get(qubit)
        if cached is not None:
            return cached
        prep_ancilla = self._dedicated_prep_ancilla(qubit)
        strategy = self.config.baseline_injection_strategy
        injection_cycles = self.costs.injection_cycles(strategy.value)
        helper: Optional[Position] = None
        if strategy is InjectionStrategy.CNOT:
            for candidate in self.layout.ancilla_neighbors_of_qubit(qubit):
                if candidate != prep_ancilla:
                    helper = candidate
                    break
            if helper is None:
                for candidate in self.layout.ancilla_neighbors(prep_ancilla):
                    if candidate != prep_ancilla:
                        helper = candidate
                        break
            if helper is None:
                injection_cycles = self.costs.zz_injection_cycles
        result = (prep_ancilla, helper, injection_cycles)
        self._rz_geometry[qubit] = result
        return result

    def _execute_rz(self, gate_index: int, gate: Gate,
                    layer_start: int) -> int:
        qubit = gate.qubits[0]
        prep_ancilla, helper, injection_cycles = self._rz_resources(qubit)
        fabric = self.fabric

        limit = self.scheduler.injection_limit(gate)
        clock = max(layer_start, fabric.data_free[qubit])
        prep_attempts = 0
        injections = 0
        first_start: Optional[int] = None
        for _attempt in range(limit):
            # Preparation on the dedicated ancilla, no early start (baseline).
            prep_start = max(clock, fabric.anc_free[prep_ancilla])
            prep_duration = self.prep_model.sample_cycles(self.rng)
            prep_attempts += 1
            prep_end = prep_start + prep_duration
            fabric.occupy_ancilla(prep_ancilla, prep_start, prep_end)
            if first_start is None:
                first_start = prep_start
            if self.profile is not None:
                self.profile.add("sim_prep_cycles", float(prep_duration))

            # Injection occupies the data qubit, the prep ancilla and the helper.
            injection_start = max(prep_end, fabric.data_free[qubit])
            if helper is not None:
                injection_start = max(injection_start, fabric.anc_free[helper])
            injection_end = injection_start + injection_cycles
            fabric.occupy_ancilla(prep_ancilla, injection_start, injection_end)
            if helper is not None:
                fabric.occupy_ancilla(helper, injection_start, injection_end)
            fabric.occupy_data(qubit, injection_start, injection_end)
            injections += 1
            if self.profile is not None:
                self.profile.add("sim_injection_cycles",
                                 float(injection_cycles))
            clock = injection_end
            if self.rng.random() < 0.5:
                break
            # Failure: the correction R(2^k theta) restarts the whole protocol.
        self.lifecycle.traces.append(GateTrace(
            gate_index, "rz", gate.qubits,
            scheduled_cycle=layer_start,
            start_cycle=first_start if first_start is not None else layer_start,
            end_cycle=clock,
            injections=injections,
            preparation_attempts=prep_attempts))
        return clock

    def _execute_hadamard(self, gate_index: int, gate: Gate,
                          layer_start: int) -> int:
        qubit = gate.qubits[0]
        neighbors = self.layout.ancilla_neighbors_of_qubit(qubit)
        if not neighbors:
            raise RuntimeError(f"data qubit {qubit} has no ancilla neighbour")
        anc_free = self.fabric.anc_free
        helper = min(neighbors, key=lambda pos: anc_free[pos])
        start = max(layer_start, self.fabric.data_free[qubit], anc_free[helper])
        end = start + self.costs.hadamard_cycles
        self.fabric.occupy_ancilla(helper, start, end)
        self.fabric.occupy_data(qubit, start, end)
        # A logical Hadamard exchanges the X and Z boundaries of the patch.
        self.orientation.rotate(qubit)
        if self.profile is not None:
            self.profile.add("sim_hadamard_cycles",
                             float(self.costs.hadamard_cycles))
        self.lifecycle.traces.append(GateTrace(
            gate_index, "h", gate.qubits,
            scheduled_cycle=layer_start,
            start_cycle=start, end_cycle=end))
        return end


class StaticLayerScheduler(Scheduler):
    """Common machinery of the layer-synchronous baselines.

    Subclasses customise only :meth:`_choose_plan`, the CNOT path-selection
    policy applied within a layer.
    """

    name = "static"

    # -- CNOT path selection (policy hook) -----------------------------------------

    def _choose_plan(self, plans: List[RoutePlan],
                     claimed: Dict[Position, int],
                     config: SimulationConfig) -> RoutePlan:
        raise NotImplementedError

    # -- main entry point -------------------------------------------------------------

    def run(self, circuit: Circuit, layout: GridLayout,
            config: SimulationConfig, seed: int = 0) -> SimulationResult:
        scheduled = self.prepare_circuit(circuit)
        kernel = SimulationKernel(scheduled, layout, config, seed,
                                  scheduler_name=self.name,
                                  benchmark=circuit.name)
        return _StaticLayerPolicy(kernel, self).run()


class GreedyScheduler(StaticLayerScheduler):
    """Greedy shortest-path baseline [Javadi-Abhari et al. 2017]."""

    name = "greedy"

    def _choose_plan(self, plans: List[RoutePlan],
                     claimed: Dict[Position, int],
                     config: SimulationConfig) -> RoutePlan:
        return min(plans, key=lambda plan: (plan.duration(config.costs),
                                            len(plan.path)))


class AutoBraidScheduler(StaticLayerScheduler):
    """AutoBraid-style baseline [Hua et al. 2021].

    AutoBraid routes the CNOTs of a layer over edge-disjoint paths where
    possible.  Within our layer-analytic model this is expressed as a path
    choice that minimises overlap with ancillas already claimed by earlier
    CNOTs of the same layer before considering duration and length.
    """

    name = "autobraid"

    def _choose_plan(self, plans: List[RoutePlan],
                     claimed: Dict[Position, int],
                     config: SimulationConfig) -> RoutePlan:
        def overlap(plan: RoutePlan) -> int:
            return sum(claimed.get(pos, 0) for pos in plan.ancillas_used)

        return min(plans, key=lambda plan: (overlap(plan),
                                            plan.duration(config.costs),
                                            len(plan.path)))
