"""The shared simulation kernel every scheduling policy runs on.

The kernel factors the machinery that RESCQ and the layer-synchronous
baselines used to hand-roll separately into four layers (bottom to top):

``SimulationClock`` (:mod:`repro.kernel.clock`)
    The simulated-time axis: the current cycle plus a deterministic
    ``heapq`` event queue (ordered by cycle, then strictly by push order).

``FabricState`` (:mod:`repro.kernel.fabric_state`)
    Runtime state of the tile grid shared by all policies: per-ancilla
    busy-until times and held states (indexed by
    :class:`~repro.fabric.flat.FlatGrid` slot), per-data-qubit busy-until
    times and busy-cycle accounting, edge orientations, and (for policies
    that route on it) the sliding-window
    :class:`~repro.kernel.activity.ActivityTracker`.  Every operation
    claims its tiles and qubits with one ``FabricState.book`` call, which
    also records its activity and its ``sim_*_cycles`` profile counter.

``GateLifecycle`` (:mod:`repro.kernel.lifecycle`)
    The gate state machine: dependency releases, per-gate release cycles,
    and the retirement path that appends traces and unlocks successors.

``SimulationKernel`` (:mod:`repro.kernel.kernel`)
    Composes the three, owns the run inputs (circuit, layout, config,
    seed), the shared :class:`~repro.lattice.routing.RoutingIndex`, and the
    optional :class:`~repro.kernel.profiler.KernelProfile`, plus the one
    ``max_cycles`` rule and result assembly.  Each policy runs its own
    drive loop over this state: the event-driven loop is
    :meth:`repro.scheduling.rescq.RescqPolicy.run`, the layer-synchronous
    loop is :meth:`repro.scheduling.static._StaticLayerPolicy.run`.
"""

from .activity import ActivityTracker
from .clock import SimulationClock
from .fabric_state import FabricState
from .kernel import DeadlockError, SimulationKernel
from .lifecycle import GateLifecycle
from .profiler import KernelProfile, profile_timer

__all__ = [
    "SimulationClock",
    "ActivityTracker",
    "FabricState",
    "GateLifecycle",
    "KernelProfile",
    "profile_timer",
    "SimulationKernel",
    "DeadlockError",
]
