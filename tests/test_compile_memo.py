"""The per-circuit compile memo (``Circuit.cached``).

Schedulers compile what depends only on the gates (the stripped copy, the
dependency structure, the layering, RESCQ's next-gate table) once per
circuit.  These tests pin what that must not change: the memo is built on
the first run and never at construction, ``append`` drops it, pickles,
fingerprints and equality ignore it, every run gets fresh release state,
and runs that share one memo reproduce the goldens.
"""

import pickle

import pytest

from golden_cases import case_inputs, golden_cases, load_golden
from repro.analysis.export import result_to_dict
from repro.circuits import Circuit, GateDependencyGraph
from repro.exec.jobs import SimJob, job_fingerprint
from repro.scheduling import SCHEDULER_REGISTRY, RescqScheduler
from repro.sim.config import SimulationConfig
from repro.sim.runner import default_layout
from repro.workloads import qft_circuit

SCHEDULERS = ("greedy", "autobraid", "rescq")
CONFIG = SimulationConfig(mst_period=10, mst_latency=20)


def small_circuit():
    circuit = Circuit(3, name="memo3")
    circuit.h(0).rz(0, 0.3).cnot(0, 1).x(2).rz(2, 0.7).cnot(1, 2)
    return circuit


def test_the_memo_is_built_on_the_first_run_not_at_construction():
    circuit = small_circuit()
    layout = default_layout(circuit)
    job = SimJob(circuit, RescqScheduler(), CONFIG, layout, seed=0)
    job.fingerprint()
    assert circuit._memo is None
    job.run()
    assert set(circuit._memo) == {"stripped"}
    stripped = circuit._memo["stripped"]
    assert set(stripped._memo) == {"dependencies", "next_on_qubit"}
    SCHEDULER_REGISTRY.create("greedy").run(circuit, layout, CONFIG, seed=0)
    assert RescqScheduler.prepare_circuit(circuit) is stripped
    assert set(stripped._memo) == {"dependencies", "next_on_qubit", "layers"}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_a_gate_appended_after_a_run_is_scheduled_by_the_next(scheduler):
    circuit = small_circuit()
    layout = default_layout(circuit)
    policy = SCHEDULER_REGISTRY.create(scheduler)
    first = policy.run(circuit, layout, CONFIG, seed=1)
    circuit.cnot(2, 0)
    assert circuit._memo is None
    second = policy.run(circuit, layout, CONFIG, seed=1)
    assert len(second.traces) == len(first.traces) + 1
    assert (2, 0) in {trace.qubits for trace in second.traces}
    # The same as a run of an equal circuit that never ran before.
    fresh = Circuit(3, name="memo3", gates=circuit.gates)
    assert second.traces == policy.run(fresh, layout, CONFIG, seed=1).traces


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_a_job_pickles_to_the_same_bytes_after_a_run(scheduler):
    circuit = qft_circuit(5)
    layout = default_layout(circuit)
    job = SimJob(circuit, SCHEDULER_REGISTRY.create(scheduler), CONFIG, layout, seed=2)
    fingerprint = job_fingerprint(circuit, job.scheduler, CONFIG, layout, 2)
    before = pickle.dumps(job)
    result = job.run()
    assert circuit._memo is not None
    assert pickle.dumps(job) == before
    assert job.fingerprint() == fingerprint
    # The shipped copy carries no memo and runs to the same result.
    shipped = pickle.loads(before)
    assert shipped.circuit._memo is None
    assert shipped.circuit == circuit
    assert shipped.run().traces == result.traces


def test_equality_ignores_the_memo():
    ran, fresh = small_circuit(), small_circuit()
    RescqScheduler().run(ran, default_layout(ran), CONFIG, seed=0)
    assert ran._memo is not None and fresh._memo is None
    assert ran == fresh


def test_dependency_graphs_of_one_circuit_share_structure_not_state():
    circuit = small_circuit()
    first, second = GateDependencyGraph(circuit), GateDependencyGraph(circuit)
    assert first.nodes is second.nodes
    root = first.ready[0]
    newly_released = first.complete(root)
    assert root not in first.ready and root in second.ready
    assert second.complete(root) == newly_released
    assert first.num_pending == second.num_pending == len(first) - 1


def _cases_by_circuit():
    grouped = {}
    for case in golden_cases():
        grouped.setdefault(case[1], []).append(case)
    return grouped


@pytest.mark.parametrize("circuit_key", sorted(_cases_by_circuit()))
def test_golden_cases_replayed_on_one_circuit_match_twice(circuit_key):
    """Every golden case of one circuit runs twice on a single ``Circuit``
    object, greedy, autobraid and RESCQ interleaved, so later runs read the
    memo the first one built."""
    cases = sorted(
        _cases_by_circuit()[circuit_key],
        key=lambda case: (case[3], case[4], SCHEDULERS.index(case[2])),
    )
    circuit = None
    for _ in range(2):
        for case_id, _key, scheduler, seed, variant in cases:
            fresh, layout, config = case_inputs(circuit_key, variant)
            if circuit is None:
                circuit = fresh
            result = SCHEDULER_REGISTRY.create(scheduler).run(
                circuit, layout, config, seed=seed
            )
            assert result_to_dict(result) == load_golden(case_id), case_id
    assert circuit._memo is not None
