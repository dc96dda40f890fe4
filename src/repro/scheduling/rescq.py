"""RESCQ: the realtime scheduler (Section 4).

RESCQ drives an event-driven symbolic execution of the program.  Its defining
mechanisms, all implemented here, are:

* **per-qubit ASAP release** — a gate may start as soon as the previous gate
  on each of its operand qubits completes; there is no layer barrier
  (Section 3.1);
* **per-ancilla queues** (Table 2) — every gate is enqueued on the ancillas
  that could serve it; seniority in the queue arbitrates contention;
* **parallel preparation** — an Rz gate's |m_theta> is attempted on several
  neighbouring ancillas at once; the first success is used and the rest are
  discarded or retargeted (Figure 1e);
* **eager correction preparation** — as soon as one preparation succeeds (and
  during the injection itself), the remaining candidate ancillas switch to
  preparing the |m_{2 theta}> fixup in place (Section 4.1);
* **lookahead preparation** — the Rz following the gate currently executing
  on a qubit is enqueued preemptively so its state can be prepared while the
  data qubit is still busy;
* **activity-weighted MST routing** (Section 4.2) — CNOT paths are chosen on
  the latest *available* minimum spanning tree of ancilla activity, which is
  recomputed asynchronously every ``k`` cycles and becomes available
  ``tau_mst`` cycles later (Figure 8).

This module holds the task state machines, release rules, queue arbitration,
plan choice and the event-driven drive loop (:meth:`RescqPolicy.run`).
Simulated time, the event queue, fabric occupancy, gate releases/retirement
and result assembly are the shared :class:`~repro.kernel.SimulationKernel`;
preparation latencies are drawn in vectorised batches through
:meth:`~repro.rus.preparation.PreparationModel.sample_cycles_batch` (which is
stream-equivalent to the historical scalar draws, so traces are unchanged).

There are two task kinds.  An Rz task runs the preparation and injection
chain.  A CNOT or a Hadamard is a *gate task*: it waits until it heads the
queue of each tile it was given, those tiles are free and hold no other
gate's state, and its data qubits are free; then it occupies all of them
for a fixed time.  Only its tiles (a CNOT's routed plan, a Hadamard's one
ancilla), its duration and the orientation flips applied on completion
depend on the gate.

The scheduling pass is event-woken, not polled.  A task visit that can do
nothing *parks* the task on what blocks it: the tile's wake list
(``AncillaQueue.waiters``) for a busy tile or one holding another gate's
state, the data qubit's wake list for a busy data qubit, and for a tile
whose queue another gate heads, nothing — :meth:`AncillaQueue.remove_gate`
names the new head when the head changes, and that gate's task is woken.
A gate task counts the queues another gate heads and is woken only when
it heads the last of them; after that it parks on its first blocker.  An
Rz task parks on every candidate's blocker and is also woken by its own
preparation and injection events and by its release.  The event handlers
and the pass itself wake a list when they free its tile or qubit.  A sweep
visits only awake tasks, in creation (seniority) order; a task woken
mid-sweep is visited later in the same sweep when it is younger than the
task being visited, otherwise in the next one, and tasks created mid-sweep
wait for the next sweep.  Those are exactly the visits that would do
anything if every task were visited on every sweep, so the schedule is the
same.

Tiles are :class:`~repro.fabric.flat.FlatGrid` slots throughout, the one
tile identity inside a run: tasks, events, queues, fabric occupancy, plans
and MST queries all carry slot ints, and positions appear only where an Rz
task's candidates are read off the layout's geometry.

Table 2's per-entry status and angle level are read off task state, not
stored on the queue entries: an Rz task's ``preparing`` map gives the tiles
preparing (``P``) and the level each prepares, ``holding`` the tiles done
preparing (``D``), ``injecting`` an injection in progress; a gate task's
``started`` flag marks its tiles executing (``E``).  Every task keeps the
queues it was enqueued on in ``task.queues``, and a finished gate removes
itself from exactly those.

The ablation switches in :class:`~repro.sim.config.SimulationConfig`
(``parallel_preparation``, ``eager_correction_prep``, ``use_mst_routing``)
turn the corresponding mechanism off so its contribution can be measured.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..circuits import Circuit, Gate
from ..fabric import Edge, GridLayout
from ..kernel import DeadlockError, SimulationKernel, profile_timer
from ..lattice import RoutePlan
from ..sim.config import SimulationConfig
from ..sim.results import GateTrace, SimulationResult
from .base import Scheduler, gate_kind
from .mst import AsyncMstPipeline
from .queues import AncillaQueue, QueueEntry, QueueSet

__all__ = ["RescqScheduler", "RescqPolicy"]


# ---------------------------------------------------------------------------
# Task state machines
# ---------------------------------------------------------------------------

class _RzTask:
    """Rz gate state machine.  ``__slots__`` classes, not dataclasses: task
    fields are the most-touched state in every scheduling pass, and slot
    access is measurably cheaper on the supported Pythons."""

    __slots__ = ("gate_index", "qubit", "theta", "limit", "candidates",
                 "attachment", "queues", "released", "release_cycle", "level",
                 "preparing", "holding", "injecting", "first_start",
                 "prep_attempts", "injections", "done", "seq", "parked")

    def __init__(self, gate_index: int, qubit: int, theta: float, limit: int,
                 candidates: List[int],
                 attachment: Dict[int, object],
                 queues: List["AncillaQueue"], released: bool,
                 release_cycle: Optional[int] = None) -> None:
        self.gate_index = gate_index
        self.qubit = qubit
        self.theta = theta
        self.limit = limit
        self.candidates = candidates
        #: 'Z' / 'X' for edge-adjacent candidates, or the routing ancilla
        #: slot for diagonal candidates.
        self.attachment = attachment
        #: The candidates' ancilla queues, aligned with ``candidates`` —
        #: resolved once at creation so passes skip the per-slot lookup.
        self.queues = queues
        self.released = released
        self.release_cycle = release_cycle
        self.level = 0
        #: ancilla -> [finish_cycle, level] for in-flight preparations.
        self.preparing: Dict[int, List[int]] = {}
        #: ancilla -> level of the |m_theta> state it is holding.
        self.holding: Dict[int, int] = {}
        self.injecting = False
        self.first_start: Optional[int] = None
        self.prep_attempts = 0
        self.injections = 0
        self.done = False
        #: Creation order (seniority); set by :meth:`RescqPolicy._create_task`.
        self.seq = 0
        #: Skipped by sweeps until a wake (see the module docstring).
        self.parked = False


class _GateTask:
    """CNOT or Hadamard state (``kind`` "cnot" / "h"): the gate occupies
    its ``tiles`` and data ``qubits`` for ``duration`` once it may (see the
    module docstring)."""

    __slots__ = ("gate_index", "kind", "qubits", "tiles", "queues",
                 "duration", "rotate", "edge_rotations", "heads_missing",
                 "release_cycle", "started", "start_cycle", "seq", "parked")

    def __init__(self, gate_index: int, kind: str, qubits: Tuple[int, ...],
                 tiles: Tuple[int, ...], queues: List["AncillaQueue"],
                 duration: int, rotate: Tuple[int, ...], edge_rotations: int,
                 release_cycle: int) -> None:
        self.gate_index = gate_index
        self.kind = kind
        self.qubits = qubits
        self.tiles = tiles
        #: Queues of ``tiles``, aligned — resolved once.
        self.queues = queues
        self.duration = duration
        #: Data qubits whose patch orientation flips when the gate completes.
        self.rotate = rotate
        self.edge_rotations = edge_rotations
        #: How many of those queues another gate heads.  A gate leaves a
        #: queue's head only by finishing, so this only counts down.
        self.heads_missing = len({queue for queue in queues
                                  if queue.entries[0].gate_index != gate_index})
        self.release_cycle = release_cycle
        self.started = False
        self.start_cycle: Optional[int] = None
        self.seq = 0
        self.parked = False


#: Profile counter of the simulated cycles each gate-task kind occupies.
_CYCLE_COUNTERS = {"cnot": "sim_cnot_cycles", "h": "sim_hadamard_cycles"}


# ---------------------------------------------------------------------------
# The RESCQ policy on the event-driven kernel
# ---------------------------------------------------------------------------

class RescqPolicy:
    """One seeded RESCQ execution of a circuit on a :class:`SimulationKernel`."""

    def __init__(self, kernel: SimulationKernel) -> None:
        self.kernel = kernel
        self.circuit = kernel.circuit
        self.layout = kernel.layout
        self.config = kernel.config
        self.costs = kernel.config.costs
        self.rng = kernel.rng
        self.prep_model = kernel.config.preparation_model()

        self.clock = kernel.clock
        self.fabric = kernel.fabric
        self.lifecycle = kernel.lifecycle
        self.routing = kernel.routing
        self.profile = kernel.profile
        self.orientation = self.fabric.orientation

        self.queues = QueueSet(self.fabric.flat.num_ancilla)
        self.mst: Optional[AsyncMstPipeline] = None
        if self.config.use_mst_routing:
            self.mst = AsyncMstPipeline(self.layout, self.config.mst_period,
                                        self.config.mst_latency, self.profile)

        self.tasks: Dict[int, object] = {}
        #: Gates released since the last pass created their tasks; filled by
        #: :meth:`run` (the initial frontier) and :meth:`_finish_gate`.
        self._released: List[int] = []
        #: Tasks the next sweep visits (unordered; sweeps order by ``seq``).
        self._awake: List[object] = []
        self._next_seq = 0
        #: The sweep in progress: ``(seq, task)`` heap of tasks still to
        #: visit, the ``seq`` being visited and the first ``seq`` created
        #: after the sweep began (``-1`` between sweeps).
        self._sweep_heap: List[Tuple[int, object]] = []
        self._sweep_cursor = -1
        self._sweep_bound = -1
        #: Per data qubit: tasks parked until the qubit frees.
        self._data_waiters: List[list] = [
            [] for _ in range(self.circuit.num_qubits)]
        #: Profile counters (reported when profiling is on).
        self.task_visits = 0
        self.tasks_woken = 0
        #: Per-entry queue cost by gate kind in :meth:`_expected_free_time`.
        #: ``expected_cycles()`` is a pure function of the preparation model,
        #: so the same float is produced every call.
        self._queue_prices = {"rz": self.prep_model.expected_cycles() + 1.0,
                              "cnot": self.costs.cnot_cycles,
                              "h": self.costs.hadamard_cycles}

        # next gate on each qubit after a given gate (for lookahead prep).
        self._next_on_qubit: Dict[Tuple[int, int], int] = {}
        last_seen: Dict[int, int] = {}
        for index in self.lifecycle.dag.nodes:
            for qubit in self.circuit[index].qubits:
                if qubit in last_seen:
                    self._next_on_qubit[(last_seen[qubit], qubit)] = index
                last_seen[qubit] = index

        #: (qubit, flipped) -> (candidates, attachment); the fan-out geometry
        #: of Figure 7 is a pure function of layout + orientation, so repeated
        #: Rz gates on the same qubit reuse it.
        self._rz_candidate_cache: Dict[Tuple[int, bool],
                                       Tuple[List[int],
                                             Dict[int, object]]] = {}

    # -- the drive loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """The realtime discipline: scheduling passes + event-queue jumps.

        Repeat scheduling passes at the current cycle, then jump the clock to
        the next pending event and dispatch every event due there.
        """
        kernel = self.kernel
        clock = self.clock
        lifecycle = self.lifecycle
        profile = self.profile
        wall_start = time.perf_counter() if profile is not None else 0.0
        lifecycle.release_initial()
        self._released = list(lifecycle.dag.ready)
        self._tick_mst()
        while not lifecycle.all_completed:
            if profile is not None:
                profile.add("scheduling_passes")
            self.schedule_pass()
            if lifecycle.all_completed:
                break
            next_cycle = clock.next_event_cycle()
            if next_cycle is None:
                raise DeadlockError(
                    f"scheduler deadlock at cycle {clock.now}: "
                    f"{lifecycle.num_pending} gates pending with no "
                    f"work in flight ({lifecycle.describe_pending()})")
            kernel.check_cycle_bound(next_cycle)
            clock.advance(next_cycle)
            for tag, payload in clock.pop_due(next_cycle):
                self.handle_event(tag, payload)
            self._tick_mst()
        if profile is not None:
            profile.add_wall("total", time.perf_counter() - wall_start)
            profile.add("task_visits", float(self.task_visits))
            profile.add("tasks_woken", float(self.tasks_woken))
            if self.mst is not None:
                # ``mst_builds`` counts computations started, ``mst_trees``
                # snapshots published and ``mst_trees_built`` the published
                # snapshots whose tree plan choice read (and so built).
                profile.add("mst_builds", float(self.mst.computations_started))
                profile.add("mst_trees", float(self.mst.computations_completed))
                profile.add("mst_trees_built", float(self.mst.trees_built))
                # A run that never read a tree still lists the build
                # phase, so profile rows keep one set of columns.
                profile.add_wall("mst_build", 0.0)
        return kernel.build_result({
            "mst_computations": float(self.mst.computations_completed
                                      if self.mst else 0),
        })

    def handle_event(self, tag: str, payload: tuple) -> None:
        """React to one completion event popped from the clock's queue."""
        if tag == "prep":
            self._on_prep_done(*payload)
        elif tag == "inject":
            self._on_injection_done(*payload)
        elif tag == "gate":
            self._on_gate_done(*payload)

    # -- MST pipeline ------------------------------------------------------------

    def _tick_mst(self) -> None:
        """Advance the MST pipeline; the tick (the activity snapshots and
        the publication bookkeeping) is booked under ``mst_snapshot``, while
        trees are built, under ``mst_build``, when plan choice reads one."""
        if self.mst is None:
            return
        now = self.clock.now
        with profile_timer(self.profile, "mst_snapshot"):
            self.mst.tick(now, lambda: self.fabric.activity_snapshot(now))

    # -- task creation -----------------------------------------------------------

    def _create_tasks_for_released_gates(self) -> None:
        """Create (or release) the tasks of the gates released since the
        last pass, critical-path-first."""
        released = self.lifecycle.dag.by_priority(self._released)
        self._released = []
        for index in released:
            task = self.tasks.get(index)
            if task is None:
                self._create_task(index, released=True)
            elif isinstance(task, _RzTask) and not task.released:
                task.released = True
                task.release_cycle = self.lifecycle.release_cycle.get(
                    index, self.clock.now)
                self._wake(task)

    def _create_task(self, index: int, released: bool) -> None:
        gate = self.circuit[index]
        kind = gate_kind(gate)
        if kind == "rz":
            task: object = self._create_rz_task(index, gate, released)
        elif kind == "cnot":
            task = self._create_cnot_task(index, gate)
        elif kind == "h":
            task = self._create_h_task(index, gate)
        else:  # pragma: no cover - free gates are stripped before simulation
            raise ValueError(f"unexpected gate kind {kind!r}")
        task.seq = self._next_seq
        self._next_seq += 1
        self.tasks[index] = task
        self._awake.append(task)

    # -- wake lists ----------------------------------------------------------------

    def _wake(self, task) -> None:
        """Make a parked task visitable again (no-op for an awake task)."""
        if not task.parked:
            return
        task.parked = False
        self.tasks_woken += 1
        seq = task.seq
        if self._sweep_cursor < seq < self._sweep_bound:
            # Younger than the task being visited: this sweep still reaches
            # it, as a sweep over every task would.
            heapq.heappush(self._sweep_heap, (seq, task))
        else:
            self._awake.append(task)

    def _wake_all(self, waiters: list) -> None:
        for task in waiters:
            self._wake(task)

    def _wake_tile(self, queue: AncillaQueue) -> None:
        """The tile of ``queue`` freed or dropped a held state."""
        waiters = queue.waiters
        if waiters:
            queue.waiters = []
            self._wake_all(waiters)

    def _wake_data(self, qubit: int) -> None:
        """Data qubit ``qubit`` freed."""
        waiters = self._data_waiters[qubit]
        if waiters:
            self._data_waiters[qubit] = []
            self._wake_all(waiters)

    def _rz_candidates(self, qubit: int) -> Tuple[List[int], Dict[int, object]]:
        """Candidate preparation ancillas for an Rz on ``qubit``.

        All edge-adjacent ancillas are candidates (they can inject directly);
        diagonal ancillas that touch an adjacent ancilla are added up to the
        ``max_parallel_preparations`` budget (they inject through that routing
        ancilla) — the 1/2/3-plus-routing structure of Figure 7.  Memoised per
        (qubit, orientation): treat the returned structures as read-only.
        """
        key = (qubit, self.orientation.is_flipped(qubit))
        cached = self._rz_candidate_cache.get(key)
        if cached is not None:
            return cached
        flat = self.fabric.flat
        positions = flat.anc_positions
        row, col = self.layout.data_position(qubit)
        attachment: Dict[int, object] = {}
        adjacent = flat.qubit_neighbors(qubit)
        for slot in adjacent:
            n_row, n_col = positions[slot]
            edge = Edge((n_row - row, n_col - col))
            attachment[slot] = self.orientation.edge_pauli(qubit, edge)
        # Prefer Z-edge neighbours (cheapest, 1-cycle ZZ injection).
        adjacent.sort(key=lambda slot: attachment[slot] != "Z")
        if not self.config.parallel_preparation:
            chosen = adjacent[:1]
            result = (chosen, {slot: attachment[slot] for slot in chosen})
            self._rz_candidate_cache[key] = result
            return result

        candidates = list(adjacent)
        budget = max(0, self.config.max_parallel_preparations - len(candidates))
        if budget:
            diagonals = [(row - 1, col - 1), (row - 1, col + 1),
                         (row + 1, col - 1), (row + 1, col + 1)]
            for diag in diagonals:
                if budget == 0:
                    break
                slot = flat.slot_of(diag)
                if slot < 0:
                    continue
                routers = [router for router in adjacent
                           if abs(positions[router][0] - diag[0])
                           + abs(positions[router][1] - diag[1]) == 1]
                if not routers:
                    continue
                candidates.append(slot)
                attachment[slot] = routers[0]
                budget -= 1
        result = (candidates, attachment)
        self._rz_candidate_cache[key] = result
        return result

    def _create_rz_task(self, index: int, gate: Gate, released: bool) -> _RzTask:
        qubit = gate.qubits[0]
        candidates, attachment = self._rz_candidates(qubit)
        return _RzTask(
            gate_index=index,
            qubit=qubit,
            theta=gate.angle if gate.angle is not None else 0.0,
            limit=Scheduler.injection_limit(gate),
            candidates=candidates,
            attachment=attachment,
            queues=[self.queues.enqueue(slot, QueueEntry(index, "rz"))
                    for slot in candidates],
            released=released,
            release_cycle=(self.lifecycle.release_cycle.get(index)
                           if released else None),
        )

    def _expected_free_time(self) -> Callable[[int], float]:
        """Expected cycle at which a tile frees up (Section 4.2).

        Returns the lookup for the current fabric and queue state; it is
        valid until either changes (one plan choice).
        """
        anc_free = self.fabric.anc_free
        anc_holding = self.fabric.anc_holding
        queues = self.queues
        prices = self._queue_prices
        now = self.clock.now

        def expected_free_time(slot: int) -> float:
            free = anc_free[slot]
            value = float(free if free > now else now)
            if anc_holding[slot] is not None:
                value += 1.0
            queue = queues[slot]
            if queue.entries:
                # Pending work is summed apart in entry order and added
                # once: float addition is not associative, and the golden
                # traces pin the exact values.
                value += queue.pending_cost(prices)
            return value

        return expected_free_time

    def _choose_cnot_plan(self, control: int, target: int) -> RoutePlan:
        """The plan with the lowest ``(expected finish, path length)``.

        The expected finish is the rotation and CNOT cost plus the largest
        expected free time of a path tile.  Candidates are the attachment
        pairs routed on the latest MST, or, before the first tree exists or
        when it routes no pair, the cached shortest-path plans; the first candidate
        wins a tie.
        """
        eft = self._expected_free_time()
        tree = self.mst.current if self.mst is not None else None
        if tree is not None:
            routing = self.routing
            routing.queries += 1
            control_candidates = routing.attachments(self.orientation,
                                                     control, "Z")
            target_candidates = routing.attachments(self.orientation,
                                                    target, "X")
            pairs = tree.pair_scores(
                [attach for attach, _ in control_candidates],
                [attach for attach, _ in target_candidates], eft)
            # The rotation flags are bools: their sum counts the rotations.
            best = self._rank(
                (control_candidates[i][1] + target_candidates[j][1], worst,
                 length, (i, j)) for i, j, worst, length in pairs)
            if best is not None:
                control_attach, control_rotation = control_candidates[best[0]]
                target_attach, target_rotation = target_candidates[best[1]]
                return RoutePlan(
                    control=control,
                    target=target,
                    path=tuple(tree.path(control_attach, target_attach)),
                    control_rotation=control_rotation,
                    target_rotation=target_rotation,
                    rotation_ancilla_control=(control_attach
                                              if control_rotation else None),
                    rotation_ancilla_target=(target_attach
                                             if target_rotation else None),
                )
            # Fall through: the MST snapshot routes no attachment pair
            # (e.g. it predates a layout quirk) — use the cached shortest-path plans.

        plans = self.routing.enumerate_plans(self.orientation, control, target)
        # Plans overlap heavily: price each distinct tile once.
        prices: List[Optional[float]] = [None] * len(self.queues)

        def worst_price(path: Tuple[int, ...]) -> float:
            worst = None
            for tile in path:
                value = prices[tile]
                if value is None:
                    value = prices[tile] = eft(tile)
                if worst is None or value > worst:
                    worst = value
            return worst

        return self._rank((plan.num_rotations, worst_price(plan.path),
                           len(plan.path), plan) for plan in plans)

    def _rank(self, candidates: Iterable[Tuple[int, float, int, object]]
              ) -> object:
        """The payload of the first lowest-scoring ``(rotations, worst tile
        eft, path length, payload)`` candidate, or ``None`` if there is none."""
        rotation_cost = self.costs.edge_rotation_cycles
        cnot_cycles = self.costs.cnot_cycles
        best = None
        best_score: Optional[Tuple[float, int]] = None
        for rotations, worst, length, payload in candidates:
            score = (rotation_cost * rotations + cnot_cycles + worst, length)
            if best_score is None or score < best_score:
                best_score = score
                best = payload
        return best

    def _create_cnot_task(self, index: int, gate: Gate) -> _GateTask:
        with profile_timer(self.profile, "routing"):
            plan = self._choose_cnot_plan(gate.control, gate.target)
        rotate = tuple(qubit for qubit, flips in (
            (gate.control, plan.control_rotation),
            (gate.target, plan.target_rotation)) if flips)
        return self._create_gate_task(
            index, "cnot", (gate.control, gate.target), plan.ancillas_used,
            plan.duration(self.costs), rotate, plan.num_rotations)

    def _create_h_task(self, index: int, gate: Gate) -> _GateTask:
        qubit = gate.qubits[0]
        ancilla = min(self.fabric.flat.qubit_neighbors(qubit),
                      key=self._expected_free_time())
        # A logical Hadamard exchanges the patch's X and Z boundaries.
        return self._create_gate_task(index, "h", (qubit,), (ancilla,),
                                      self.costs.hadamard_cycles, (qubit,), 0)

    def _create_gate_task(self, index: int, kind: str,
                          qubits: Tuple[int, ...],
                          tiles: Tuple[int, ...], duration: int,
                          rotate: Tuple[int, ...],
                          edge_rotations: int) -> _GateTask:
        """Enqueue gate ``index`` on each of ``tiles`` and return its task."""
        queues = [self.queues.enqueue(slot, QueueEntry(index, kind))
                  for slot in tiles]
        return _GateTask(index, kind, qubits, tiles, queues, duration, rotate,
                         edge_rotations,
                         self.lifecycle.release_cycle.get(index,
                                                          self.clock.now))

    def _maybe_lookahead_prepare(self, index: int) -> None:
        """Pre-enqueue the next Rz on each operand qubit of a starting gate."""
        gate = self.circuit[index]
        for qubit in gate.qubits:
            nxt = self._next_on_qubit.get((index, qubit))
            if nxt is None or nxt in self.tasks:
                continue
            nxt_gate = self.circuit[nxt]
            if gate_kind(nxt_gate) != "rz":
                continue
            # Single-qubit Rz: its only predecessor is the gate now starting,
            # so preparation (but not injection) may begin immediately.
            self._create_task(nxt, released=False)

    # -- the scheduling pass -------------------------------------------------------

    def schedule_pass(self) -> None:
        # A pass can complete gates synchronously (Clifford-truncated
        # corrections) which releases successors; keep sweeping until the
        # frontier is stable so same-cycle progress is never missed.
        traces = self.lifecycle.traces
        while True:
            completed_before = len(traces)
            if self._released:
                self._create_tasks_for_released_gates()
            if not self._awake:
                break
            # Visit the awake tasks in creation (seniority) order so that
            # queue-head checks and resource grabs respect the order that
            # enqueued them.  Tasks created mid-sweep (by lookahead
            # preparation) land in ``_awake`` for the next sweep.
            heap = [(task.seq, task) for task in self._awake]
            self._awake = []
            heapq.heapify(heap)
            self._sweep_heap = heap
            self._sweep_bound = self._next_seq
            visits = 0
            while heap:
                seq, task = heapq.heappop(heap)
                self._sweep_cursor = seq
                if type(task) is _RzTask:
                    if not task.done:
                        visits += 1
                        self._advance_rz(task)
                elif not task.started:
                    visits += 1
                    self._try_start_gate(task)
            self._sweep_bound = -1
            self.task_visits += visits
            if len(traces) == completed_before:
                break

    # -- Rz state machine ----------------------------------------------------------

    def _advance_rz(self, task: _RzTask) -> None:
        if task.level >= task.limit:
            # The outstanding correction is a Clifford rotation: free.
            self._complete_rz(task)
            return
        # Wake lists of the tiles and data qubit that block this visit; the
        # task joins them only if the visit does nothing.
        waits: List[list] = []
        prepared = self._start_rz_preparations(task, waits)
        if self._maybe_start_injection(task, waits) or prepared:
            # Its own state changed: the next sweep visits it again.
            self._awake.append(task)
            return
        # Blocked: by busy or held tiles (``waits``), by other gates at its
        # queue heads (woken on a head change), or by its own in-flight
        # preparations, injection or release (woken by their events).
        task.parked = True
        for waiters in waits:
            waiters.append(task)

    def _start_rz_preparations(self, task: _RzTask, waits: List[list]) -> bool:
        """Start every eligible preparation; ``True`` if any started.

        Appends the wake list of each candidate tile that is busy or holds
        another gate's state to ``waits``.
        """
        # Which correction level candidates should be preparing right now.
        level = task.level
        if self.config.eager_correction_prep:
            if task.injecting or level in task.holding.values():
                level += 1
        if level >= task.limit:
            return False
        now = self.clock.now
        # Eligibility never depends on the durations drawn below (candidate
        # tiles are distinct), so the draws batch into one vectorised call —
        # stream-equivalent to the historical per-candidate scalar draws.
        # A candidate is eligible when it is not already preparing or holding
        # a state at least this level, is free now, holds no other gate's
        # state, and this gate heads its queue.
        fabric = self.fabric
        anc_free = fabric.anc_free
        anc_holding = fabric.anc_holding
        gate_index = task.gate_index
        preparing = task.preparing
        holding = task.holding
        current_level = task.level
        eligible = []
        for slot, queue in zip(task.candidates, task.queues):
            if slot in preparing:
                continue
            if holding.get(slot, -1) >= current_level:
                continue
            if anc_free[slot] > now:
                waits.append(queue.waiters)
                continue
            holder = anc_holding[slot]
            if holder is not None and holder != gate_index:
                waits.append(queue.waiters)
                continue
            entries = queue.entries
            if not entries or entries[0].gate_index != gate_index:
                continue
            eligible.append(slot)
        if not eligible:
            return False
        if len(eligible) == 1:
            durations = [self.prep_model.sample_cycles(self.rng)]
        else:
            durations = self.prep_model.sample_cycles_batch(self.rng,
                                                            len(eligible))
        for slot, duration in zip(eligible, durations):
            duration = int(duration)
            finish = now + duration
            preparing[slot] = [finish, level]
            task.prep_attempts += 1
            if task.first_start is None:
                task.first_start = now
            fabric.occupy_ancilla(slot, now, finish)
            if self.profile is not None:
                self.profile.add("sim_prep_cycles", float(duration))
            self.clock.push(finish, "prep", (gate_index, slot, finish))
        return True

    def _injection_resources(self, task: _RzTask, slot: int,
                             waits: List[list]
                             ) -> Optional[Tuple[List[int], int]]:
        """Resources and duration to inject from ``slot`` into the data
        qubit, or ``None`` (appending the router's wake list to ``waits``)."""
        attachment = task.attachment[slot]
        if attachment == "Z":
            return [slot], self.costs.zz_injection_cycles
        if attachment == "X":
            return [slot], self.costs.cnot_injection_cycles
        router: int = attachment  # diagonal candidate: route through this tile
        holder = self.fabric.anc_holding[router]
        if (self.fabric.anc_free[router] <= self.clock.now
                and holder in (None, task.gate_index)):
            # The router may be holding one of *our own* eagerly prepared
            # correction states; sacrificing it to unblock the injection is
            # always worth it (extra successes "can be discarded if
            # necessary", Section 3.2).
            if holder == task.gate_index:
                task.holding.pop(router, None)
                self.fabric.release_hold(router)
            return [slot, router], self.costs.cnot_injection_cycles
        waits.append(self.queues[router].waiters)
        return None

    def _maybe_start_injection(self, task: _RzTask, waits: List[list]) -> bool:
        """Start the injection if a state and its resources are ready.

        ``True`` if it started; otherwise appends the wake lists of the
        blocking data qubit or routing tiles to ``waits``.
        """
        if task.injecting or not task.released or not task.holding:
            return False
        now = self.clock.now
        if self.fabric.data_free[task.qubit] > now:
            waits.append(self._data_waiters[task.qubit])
            return False
        ready = [slot for slot, lvl in task.holding.items() if lvl == task.level]
        if not ready:
            return False
        # Prefer the cheapest attachment (Z edge, then X edge, then diagonal).
        def rank(slot: int) -> int:
            attachment = task.attachment[slot]
            if attachment == "Z":
                return 0
            if attachment == "X":
                return 1
            return 2

        for slot in sorted(ready, key=rank):
            resources = self._injection_resources(task, slot, waits)
            if resources is None:
                continue
            tiles, duration = resources
            finish = now + duration
            for tile in tiles:
                self.fabric.occupy_ancilla(tile, now, finish)
            self.fabric.occupy_data(task.qubit, now, finish)
            task.injecting = True
            task.injections += 1
            if task.first_start is None:
                task.first_start = now
            # The consumed state (and any surplus same-level states) are gone;
            # surplus holders immediately become eager-correction preparers.
            # ``slot`` stays busy with the injection; the surplus tiles
            # are free for other gates now.
            task.holding.pop(slot, None)
            self.fabric.release_hold(slot)
            for other, level in list(task.holding.items()):
                if level == task.level:
                    task.holding.pop(other)
                    self.fabric.release_hold(other)
                    self._wake_tile(self.queues[other])
            if self.profile is not None:
                self.profile.add("sim_injection_cycles", float(duration))
            self.clock.push(finish, "inject",
                            (task.gate_index, slot, finish))
            self._maybe_lookahead_prepare(task.gate_index)
            return True
        return False

    def _on_prep_done(self, gate_index: int, slot: int, finish: int) -> None:
        task = self.tasks.get(gate_index)
        if not isinstance(task, _RzTask) or task.done:
            return
        info = task.preparing.get(slot)
        if info is None or info[0] != finish:
            return  # stale event (preparation was cancelled)
        task.preparing.pop(slot)
        self._wake(task)
        level = info[1]
        if level < task.level:
            # The chain moved past this level; discard the state.
            self._wake_tile(self.queues[slot])
            return
        # The tile now holds this gate's state: whoever waits on it stays
        # blocked until the hold is released.
        is_first_at_level = level not in task.holding.values()
        task.holding[slot] = level
        self.fabric.hold(slot, gate_index)
        if (is_first_at_level and level == task.level
                and self.config.eager_correction_prep):
            # In-place retarget of the other in-flight preparations to the
            # correction angle (Section 4.1).
            next_level = min(task.level + 1, task.limit)
            for other_info in task.preparing.values():
                if other_info[1] == task.level:
                    other_info[1] = next_level

    def _on_injection_done(self, gate_index: int, slot: int,
                           finish: int) -> None:
        task = self.tasks.get(gate_index)
        if not isinstance(task, _RzTask) or task.done:
            return
        queues = self.queues
        self._wake_tile(queues[slot])
        router = task.attachment[slot]
        if router != "Z" and router != "X":
            self._wake_tile(queues[router])
        self._wake_data(task.qubit)
        self._wake(task)
        self._apply_injection_outcome(task, bool(self.rng.random() < 0.5))

    def _apply_injection_outcome(self, task: _RzTask, success: bool) -> None:
        task.injecting = False
        if success:
            self._complete_rz(task)
            return
        task.level += 1
        if task.level >= task.limit:
            # The remaining correction is Clifford: applied in the frame, free.
            self._complete_rz(task)

    def _complete_rz(self, task: _RzTask) -> None:
        task.done = True
        now = self.clock.now
        for slot in task.preparing:
            # Terminate in-flight preparations immediately (Figure 7, t=5).
            self.fabric.truncate_ancilla(slot, now)
            self._wake_tile(self.queues[slot])
        task.preparing.clear()
        for slot in list(task.holding):
            self.fabric.release_hold(slot)
            self._wake_tile(self.queues[slot])
        task.holding.clear()
        scheduled = task.release_cycle if task.release_cycle is not None else now
        start = task.first_start if task.first_start is not None else scheduled
        self._finish_gate(task, GateTrace(
            task.gate_index, "rz", (task.qubit,),
            scheduled_cycle=scheduled, start_cycle=start, end_cycle=now,
            injections=task.injections,
            preparation_attempts=task.prep_attempts))

    # -- gate tasks (CNOT and Hadamard) ----------------------------------------------

    def _try_start_gate(self, task: _GateTask) -> None:
        # Every tile must have this gate at its queue head, be free now and
        # hold no other gate's state, and every data qubit must be free.  A
        # blocked gate parks on the first of these that fails.
        if task.heads_missing:
            task.parked = True  # woken when it heads its last queue
            return
        now = self.clock.now
        fabric = self.fabric
        data_free = fabric.data_free
        for qubit in task.qubits:
            if data_free[qubit] > now:
                task.parked = True
                self._data_waiters[qubit].append(task)
                return
        gate_index = task.gate_index
        anc_free = fabric.anc_free
        anc_holding = fabric.anc_holding
        for slot, queue in zip(task.tiles, task.queues):
            holder = anc_holding[slot]
            if anc_free[slot] > now or (holder is not None
                                        and holder != gate_index):
                task.parked = True
                queue.waiters.append(task)
                return
        duration = task.duration
        finish = now + duration
        for slot in task.tiles:
            fabric.occupy_ancilla(slot, now, finish)
        for qubit in task.qubits:
            fabric.occupy_data(qubit, now, finish)
        task.started = True
        task.start_cycle = now
        if self.profile is not None:
            self.profile.add(_CYCLE_COUNTERS[task.kind], float(duration))
        self.clock.push(finish, "gate", (gate_index, finish))
        self._maybe_lookahead_prepare(gate_index)

    def _on_gate_done(self, gate_index: int, finish: int) -> None:
        task = self.tasks[gate_index]
        for queue in task.queues:
            if queue.waiters:
                self._wake_tile(queue)
        for qubit in task.qubits:
            self._wake_data(qubit)
        for qubit in task.rotate:
            self.orientation.rotate(qubit)
        self._finish_gate(task, GateTrace(
            gate_index, task.kind, task.qubits,
            scheduled_cycle=task.release_cycle, start_cycle=task.start_cycle,
            end_cycle=finish, edge_rotations=task.edge_rotations))

    # -- completion plumbing ----------------------------------------------------------

    def _finish_gate(self, task, trace: GateTrace) -> None:
        task.parked = False  # stale wake-list entries now wake nothing
        tasks = self.tasks
        for head in self.queues.remove_gate_everywhere(task.gate_index,
                                                       task.queues):
            new_head = tasks[head]
            if type(new_head) is _GateTask:
                new_head.heads_missing -= 1
                if new_head.heads_missing:
                    continue  # still behind another gate elsewhere
            self._wake(new_head)
        self._released.extend(self.lifecycle.retire(trace, self.clock.now))
        tasks.pop(trace.gate_index, None)


class RescqScheduler(Scheduler):
    """The realtime scheduler proposed by the paper."""

    name = "rescq"

    def run(self, circuit: Circuit, layout: GridLayout,
            config: SimulationConfig, seed: int = 0) -> SimulationResult:
        prepared = self.prepare_circuit(circuit)
        prepared.name = circuit.name
        # Only MST snapshots read activity: without them, record none.
        window = config.activity_window if config.use_mst_routing else None
        kernel = SimulationKernel(prepared, layout, config, seed,
                                  scheduler_name=self.name,
                                  benchmark=circuit.name,
                                  activity_window=window)
        return RescqPolicy(kernel).run()
