"""Resource exclusivity: no two operations hold one tile or data qubit at once.

Every operation of every policy books its ancilla tiles and data qubits
through :meth:`FabricState.book`, and a cancelled preparation frees its tile
through :meth:`FabricState.truncate_ancilla`.  These tests wrap both and
check, over whole runs, that

* every RESCQ booking starts at its ``not_before``: the policy's readiness
  checks leave the booking nothing to wait for;
* no two bookings of one tile or data qubit overlap, a truncated
  preparation counting as ending at its truncation cycle.

They run over every golden case (the results must still match the goldens)
and over a derandomised hypothesis draw of scenario circuits, schedulers and
intact or 50%-compressed layouts.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from golden_cases import GOLDEN_CONFIG, case_inputs, golden_cases, load_golden
from repro.analysis.export import result_to_dict
from repro.kernel import FabricState
from repro.scheduling import SCHEDULER_REGISTRY
from repro.sim.runner import default_layout
from repro.workloads.scenarios import (
    clifford_rz_circuit,
    clifford_t_circuit,
    congestion_circuit,
)

CASES = golden_cases()


class Ledger:
    """Every booking and truncation of one run."""

    def __init__(self):
        #: ``("tile", slot)`` or ``("qubit", qubit)`` -> ``[start, end]`` of
        #: each booking, in booking order.
        self.intervals = {}
        #: ``(not_before, start)`` of each booking.
        self.starts = []
        self.truncations = 0

    def overlaps(self):
        """``(resource, interval, next interval)`` of each overlap."""
        found = []
        for resource, booked in self.intervals.items():
            ordered = sorted(pair for pair in booked if pair[0] < pair[1])
            for before, after in zip(ordered, ordered[1:]):
                if after[0] < before[1]:
                    found.append((resource, before, after))
        return found


@contextmanager
def recorded_bookings():
    """Record every booking and truncation made inside the block."""
    ledger = Ledger()
    book, truncate = FabricState.book, FabricState.truncate_ancilla

    def recording_book(fabric, kind, tiles, qubits, not_before, duration):
        start, end = book(fabric, kind, tiles, qubits, not_before, duration)
        ledger.starts.append((not_before, start))
        resources = [("tile", slot) for slot in tiles]
        resources += [("qubit", qubit) for qubit in qubits]
        for resource in resources:
            ledger.intervals.setdefault(resource, []).append([start, end])
        return start, end

    def recording_truncate(fabric, slot, now):
        if fabric.anc_free[slot] > now:
            # Truncation cuts the tile's latest booking short.
            booked = ledger.intervals[("tile", slot)][-1]
            assert booked[0] <= now < booked[1] == fabric.anc_free[slot]
            booked[1] = now
            ledger.truncations += 1
        truncate(fabric, slot, now)

    with mock.patch.multiple(
        FabricState, book=recording_book, truncate_ancilla=recording_truncate
    ):
        yield ledger


def run_checked(scheduler_name, circuit, layout, config, sim_seed):
    """Run one job with every booking recorded, and check both invariants."""
    scheduler = SCHEDULER_REGISTRY.create(scheduler_name)
    with recorded_bookings() as ledger:
        result = scheduler.run(circuit, layout, config, seed=sim_seed)
    if scheduler_name == "rescq":
        late = [pair for pair in ledger.starts if pair[0] != pair[1]]
        assert not late, f"(not_before, start) of late RESCQ bookings: {late[:5]}"
    overlaps = ledger.overlaps()
    assert not overlaps, f"overlapping bookings: {overlaps[:5]}"
    return result, ledger


@pytest.mark.parametrize(
    "case_id,circuit_key,scheduler,sim_seed,variant",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_golden_cases_book_exclusively(
    case_id, circuit_key, scheduler, sim_seed, variant
):
    circuit, layout, config = case_inputs(circuit_key, variant)
    result, ledger = run_checked(scheduler, circuit, layout, config, sim_seed)
    assert result_to_dict(result) == load_golden(case_id)
    assert ledger.starts
    if circuit_key.startswith("scen250"):
        # The 1000-tile cases cancel preparations: truncation is checked too.
        assert ledger.truncations > 0


def scenario_circuit(family, n, depth, circuit_seed):
    if family == "congestion":
        return congestion_circuit(n, layers=depth, seed=circuit_seed)
    build = clifford_t_circuit if family == "clifford_t" else clifford_rz_circuit
    return build(n, depth, seed=circuit_seed)


@seed(34)
@settings(max_examples=60, deadline=10_000, derandomize=True, database=None)
@given(
    family=st.sampled_from(["clifford_t", "clifford_rz", "congestion"]),
    n=st.integers(2, 24),
    depth=st.integers(1, 8),
    circuit_seed=st.integers(0, 10_000),
    scheduler=st.sampled_from(["greedy", "autobraid", "rescq"]),
    compression=st.sampled_from([0.0, 0.5]),
    sim_seed=st.integers(0, 3),
)
def test_random_runs_book_exclusively(
    family, n, depth, circuit_seed, scheduler, compression, sim_seed
):
    circuit = scenario_circuit(family, n, depth, circuit_seed)
    layout = default_layout(circuit, compression, seed=circuit_seed)
    run_checked(scheduler, circuit, layout, GOLDEN_CONFIG, sim_seed)
