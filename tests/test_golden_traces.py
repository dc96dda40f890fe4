"""Golden-trace regression suite for the kernel extraction.

The JSON files under ``tests/golden/`` were captured at the commit
immediately *before* the simulation kernel existed (PR 2 HEAD), by running
the original hand-rolled scheduler loops.  Every case asserts that today's
kernel-based schedulers reproduce those runs **byte-identically**: same
per-gate traces, same cycle counts, same injection/preparation statistics,
same data-qubit busy accounting.

If one of these fails, the refactor changed scheduler behaviour — that is a
bug unless the change is intentional, in which case regenerate with
``PYTHONPATH=src python tests/capture_golden.py`` and say why in the commit.
"""

from __future__ import annotations

import os

import pytest

from golden_cases import (case_inputs, golden_cases, golden_path, load_golden,
                          run_case)
from repro.analysis.export import result_to_dict
from repro.kernel import SimulationKernel
from repro.scheduling import RescqScheduler
from repro.scheduling.rescq import RescqPolicy

CASES = golden_cases()
RESCQ_CASES = [case for case in CASES if case[2] == "rescq"]


@pytest.mark.parametrize("case_id,circuit_key,scheduler,seed,variant",
                         CASES, ids=[case[0] for case in CASES])
def test_golden_trace(case_id, circuit_key, scheduler, seed, variant):
    assert os.path.exists(golden_path(case_id)), (
        f"missing golden file for {case_id}; run tests/capture_golden.py")
    golden = load_golden(case_id)
    fresh = run_case(circuit_key, scheduler, seed, variant)
    # Compare piecewise first for a readable diff, then whole.
    assert fresh["total_cycles"] == golden["total_cycles"]
    assert fresh["data_busy_cycles"] == golden["data_busy_cycles"]
    assert fresh["metadata"] == golden["metadata"]
    for index, (fresh_trace, golden_trace) in enumerate(
            zip(fresh["traces"], golden["traces"])):
        assert fresh_trace == golden_trace, (
            f"{case_id}: trace {index} diverged")
    assert fresh == golden


def test_golden_suite_covers_all_schedulers_and_variants():
    schedulers = {case[2] for case in CASES}
    variants = {case[4] for case in CASES}
    assert schedulers == {"greedy", "autobraid", "rescq"}
    assert {"default", "no_mst", "ablated", "compressed"} <= variants


@pytest.mark.parametrize("case_id,circuit_key,scheduler,seed,variant",
                         RESCQ_CASES, ids=[case[0] for case in RESCQ_CASES])
def test_rescq_run_drains_every_queue(case_id, circuit_key, scheduler, seed,
                                      variant):
    """A finished RESCQ run leaves no queue entry, held state or waiter.

    Each finished gate removes itself from the queues on its own task; this
    checks that those are all the queues it was ever enqueued on.  Every
    tile a task parked on was freed later, which empties its wake list.
    """
    circuit, layout, config = case_inputs(circuit_key, variant)
    prepared = RescqScheduler.prepare_circuit(circuit)
    kernel = SimulationKernel(prepared, layout, config, seed,
                              scheduler_name="rescq", benchmark=circuit.name,
                              activity_window=config.activity_window)
    policy = RescqPolicy(kernel)
    result = policy.run()
    assert result_to_dict(result) == load_golden(case_id)
    leftover = {slot: [entry.gate_index for entry in queue.entries]
                for slot, queue in enumerate(policy.queues) if len(queue)}
    assert not leftover
    assert len(policy.queues) == kernel.fabric.flat.num_ancilla
    assert kernel.fabric.anc_holding == [None] * len(policy.queues)
    assert not [slot for slot, queue in enumerate(policy.queues)
                if queue.waiters]
