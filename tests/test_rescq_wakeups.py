"""Wake-list safety of the RESCQ scheduling pass.

A sweep skips parked tasks, so a parked task must be one whose visit would
do nothing: whatever parked it still blocks it.  After every
``schedule_pass`` these tests re-derive, from the fabric, the queues and the
task state alone, whether each parked task could make progress, and fail on
the first one that could (a lost wakeup).  They also check that every other
live task is queued for the next sweep.

The checks run over every RESCQ golden case (the traces must still match
the goldens) and over a derandomised hypothesis sweep of ``clifford_rz``
circuits and config variants.
"""

from __future__ import annotations

import types
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from golden_cases import GOLDEN_CONFIG, case_inputs, golden_cases, load_golden
from repro.analysis.export import result_to_dict
from repro.circuits import Circuit
from repro.kernel import DeadlockError, SimulationKernel
from repro.scheduling import RescqScheduler
from repro.scheduling.rescq import RescqPolicy, _CnotTask, _HTask, _RzTask
from repro.sim.config import SimulationConfig
from repro.sim.runner import default_layout
from repro.workloads.scenarios import clifford_rz_circuit

RESCQ_CASES = [case for case in golden_cases() if case[2] == "rescq"]


def could_progress(policy: RescqPolicy, task) -> bool:
    """Would visiting ``task`` now start or complete anything?

    A restatement of the visit rules that reads state only.
    """
    fabric = policy.fabric
    now = policy.clock.now
    gate = task.gate_index

    def usable(position) -> bool:
        return (fabric.anc_free[position] <= now
                and fabric.anc_holding.get(position) in (None, gate))

    def heads(position) -> bool:
        return policy.queues[position].is_at_head(gate)

    if isinstance(task, _CnotTask):
        return (not task.started
                and fabric.data_free[task.control] <= now
                and fabric.data_free[task.target] <= now
                and all(usable(pos) and heads(pos)
                        for pos in task.plan.ancillas_used))
    if isinstance(task, _HTask):
        return (not task.started and fabric.data_free[task.qubit] <= now
                and usable(task.ancilla) and heads(task.ancilla))
    assert isinstance(task, _RzTask)
    if task.done:
        return False
    if task.level >= task.limit:
        return True  # completes for free
    level = task.level
    if policy.config.eager_correction_prep and (
            task.injecting or level in task.holding.values()):
        level += 1
    if level < task.limit:
        for position in task.candidates:
            if position in task.preparing:
                continue
            if task.holding.get(position, -1) >= task.level:
                continue
            if usable(position) and heads(position):
                return True
    if task.injecting or not task.released or not task.holding:
        return False
    if fabric.data_free[task.qubit] > now:
        return False
    for position, held_level in task.holding.items():
        if held_level != task.level:
            continue
        attachment = task.attachment[position]
        if attachment in ("Z", "X") or usable(attachment):
            return True
    return False


@contextmanager
def checked_passes():
    """Check the wake-list invariants after every ``schedule_pass``.

    Yields counts of the passes checked and the parked tasks seen.
    """
    original = RescqPolicy.schedule_pass
    stats = {"passes": 0, "parked": 0}

    def schedule_pass(self):
        original(self)
        stats["passes"] += 1
        awake = {id(task) for task in self._awake}
        for task in self.tasks.values():
            if getattr(task, "started", False) or getattr(task, "done", False):
                continue  # executing: its completion event finishes it
            if task.parked:
                stats["parked"] += 1
                assert not could_progress(self, task), (
                    f"lost wakeup: gate #{task.gate_index} "
                    f"({type(task).__name__}) is parked at cycle "
                    f"{self.clock.now} but could progress")
            else:
                assert id(task) in awake, (
                    f"gate #{task.gate_index} is neither parked nor queued "
                    f"for the next sweep at cycle {self.clock.now}")

    with mock.patch.object(RescqPolicy, "schedule_pass", schedule_pass):
        yield stats


class PollingPolicy(RescqPolicy):
    """Reference sweep: visit every live task on every sweep, parked or not.

    Same visits in the same order as the wake-list sweep whenever a parked
    task's visit is a no-op, so both must produce identical results.  A
    CNOT's queue-head count is recomputed from the queues before each visit
    rather than trusted.
    """

    def schedule_pass(self):
        traces = self.lifecycle.traces
        tasks = self.tasks
        while True:
            completed_before = len(traces)
            if self._released:
                self._create_tasks_for_released_gates()
            for task in sorted(tasks.values(), key=lambda task: task.seq):
                if task.gate_index not in tasks:
                    continue  # retired earlier in this sweep
                task.parked = False
                if isinstance(task, _RzTask):
                    if not task.done:
                        self._advance_rz(task)
                elif not task.started:
                    if isinstance(task, _CnotTask):
                        task.heads_missing = sum(
                            not queue.is_at_head(task.gate_index)
                            for queue in set(task.queues))
                        self._try_start_cnot(task)
                    else:
                        self._try_start_hadamard(task)
            self._awake = []
            if len(traces) == completed_before:
                break


def run_policy(circuit, layout, config, seed, lookahead=True,
               policy_class=RescqPolicy):
    prepared = RescqScheduler.prepare_circuit(circuit)
    kernel = SimulationKernel(prepared, layout, config, seed,
                              scheduler_name="rescq", benchmark=circuit.name,
                              activity_window=config.activity_window)
    policy = policy_class(kernel, lookahead_preparation=lookahead)
    return policy, policy.run()


@pytest.mark.parametrize("case_id,circuit_key,scheduler,seed,variant",
                         RESCQ_CASES, ids=[case[0] for case in RESCQ_CASES])
def test_no_lost_wakeup_on_golden_cases(case_id, circuit_key, scheduler, seed,
                                        variant):
    circuit, layout, config = case_inputs(circuit_key, variant)
    with checked_passes() as stats:
        _policy, result = run_policy(circuit, layout, config, seed)
    assert result_to_dict(result) == load_golden(case_id)
    assert stats["passes"] > 0
    if circuit_key.startswith("scen250"):
        # The 1000-tile cases park thousands of tasks: the check has teeth.
        assert stats["parked"] > 1000


_VARIANTS = {
    "default": {},
    "no_mst": {"use_mst_routing": False},
    "ablated": {"parallel_preparation": False,
                "eager_correction_prep": False},
    "no_eager": {"eager_correction_prep": False},
}


@seed(22)
@settings(max_examples=80, deadline=10_000, derandomize=True, database=None)
@given(n=st.integers(2, 40), depth=st.integers(1, 16),
       cx_fraction=st.sampled_from([0.2, 0.35, 0.6]),
       circuit_seed=st.integers(0, 10_000), sim_seed=st.integers(0, 3),
       variant=st.sampled_from(sorted(_VARIANTS)),
       lookahead=st.booleans())
def test_no_lost_wakeup_on_random_circuits(n, depth, cx_fraction,
                                           circuit_seed, sim_seed, variant,
                                           lookahead):
    circuit = clifford_rz_circuit(n, depth, cx_fraction=cx_fraction,
                                  seed=circuit_seed)
    config = GOLDEN_CONFIG.with_updates(**_VARIANTS[variant])
    layout = default_layout(circuit)
    with checked_passes():
        policy, result = run_policy(circuit, layout, config, sim_seed,
                                    lookahead)
    assert len(result.traces) == len(policy.lifecycle.dag)
    assert not policy.tasks
    _, polled = run_policy(circuit, layout, config, sim_seed, lookahead,
                           policy_class=PollingPolicy)
    assert result_to_dict(result) == result_to_dict(polled)


def test_run_names_the_stuck_gate_on_deadlock():
    """A plan tile held for a gate that never runs deadlocks the run."""
    circuit = Circuit(2, name="stuck").cnot(0, 1)
    layout = default_layout(circuit)
    prepared = RescqScheduler.prepare_circuit(circuit)
    kernel = SimulationKernel(prepared, layout, GOLDEN_CONFIG, 0,
                              scheduler_name="rescq",
                              activity_window=GOLDEN_CONFIG.activity_window)
    policy = RescqPolicy(kernel)
    create = policy._create_cnot_task
    phantom = len(prepared)  # no gate has this index

    def create_and_hold(index, gate):
        task = create(index, gate)
        kernel.fabric.hold(task.plan.ancillas_used[0], phantom)
        return task

    policy._create_cnot_task = create_and_hold
    with pytest.raises(DeadlockError, match=r"1 gates pending .*#0 cx"):
        policy.run()


def test_wake_mid_sweep_keeps_seniority_order():
    """A task woken mid-sweep is visited in this sweep only when the sweep
    has not passed it yet and it existed when the sweep began."""
    circuit = Circuit(2, name="pair").cnot(0, 1)
    kernel = SimulationKernel(circuit, default_layout(circuit), GOLDEN_CONFIG,
                              0, scheduler_name="rescq")
    policy = RescqPolicy(kernel)
    older, younger, created_mid_sweep = (
        types.SimpleNamespace(seq=seq, parked=True) for seq in (1, 5, 8))
    policy._sweep_heap, policy._sweep_cursor, policy._sweep_bound = [], 3, 8
    for task in (older, younger, created_mid_sweep):
        policy._wake(task)
    assert policy._sweep_heap == [(5, younger)]
    assert policy._awake == [older, created_mid_sweep]
    assert not any(task.parked for task in (older, younger, created_mid_sweep))
    policy._wake(younger)  # already awake: no second visit
    assert len(policy._sweep_heap) == 1 and policy.tasks_woken == 3


def _bare_policy(circuit):
    config = SimulationConfig()
    kernel = SimulationKernel(circuit, default_layout(circuit), config, 0,
                              scheduler_name="rescq",
                              activity_window=config.activity_window)
    return RescqPolicy(kernel)


def test_blocked_tasks_join_the_wake_list_of_their_blocker():
    # A CNOT that heads every queue but finds a plan tile busy waits on it.
    policy = _bare_policy(Circuit(4, name="cx").cnot(0, 3))
    policy._create_task(0, released=True)
    cnot = policy.tasks[0]
    tile = cnot.plan.ancillas_used[-1]
    policy.fabric.occupy_ancilla(tile, 0, 10)
    policy._try_start_cnot(cnot)
    assert cnot.parked and policy.queues[tile].waiters == [cnot]
    policy._wake_tile(policy.queues[tile])
    assert not cnot.parked and policy._awake[-1] is cnot

    # An Rz whose only ready state sits on a diagonal candidate waits on the
    # busy routing tile it would inject through (preparing the correction
    # there), and on every other busy candidate it could prepare on.
    policy = _bare_policy(Circuit(4, name="rz").rz(0, 0.3))
    policy._create_task(0, released=True)
    rz = policy.tasks[0]
    diagonal = next(pos for pos in rz.candidates
                    if rz.attachment[pos] not in ("Z", "X"))
    router = rz.attachment[diagonal]
    others = [pos for pos in rz.candidates if pos not in (diagonal, router)]
    assert others
    rz.preparing[router] = [10, 1]
    for position in [router] + others:
        policy.fabric.occupy_ancilla(position, 0, 10)
    rz.holding[diagonal] = 0
    policy.fabric.hold(diagonal, 0)
    policy._advance_rz(rz)
    assert rz.parked
    for position in [router] + others:
        assert policy.queues[position].waiters == [rz]


def test_injection_done_wakes_the_routing_tile():
    policy = _bare_policy(Circuit(4, name="rz").rz(0, 0.3))
    policy._create_task(0, released=True)
    rz = policy.tasks[0]
    diagonal = next(pos for pos in rz.candidates
                    if rz.attachment[pos] not in ("Z", "X"))
    router = rz.attachment[diagonal]
    waiter = types.SimpleNamespace(seq=99, parked=True)
    policy.queues[router].waiters.append(waiter)
    rz.injecting = True
    policy._on_injection_done(0, diagonal, 0)
    assert not waiter.parked and waiter in policy._awake
    assert not policy.queues[router].waiters
