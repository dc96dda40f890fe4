"""Golden-trace case definitions shared by the capture tool and the tests.

The golden suite pins the exact per-gate traces of every scheduler on a set
of small circuits.  The JSON files under ``tests/golden/`` were captured at
the commit immediately before the kernel extraction (PR 3) and must stay
byte-identical: any diff means the refactor changed scheduler behaviour.

Regenerate (only when a change is *intentionally* behaviour-altering) with::

    PYTHONPATH=src python tests/capture_golden.py
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Tuple

from repro.circuits import Circuit
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.scheduling import SCHEDULER_REGISTRY
from repro.sim.config import SimulationConfig
from repro.workloads import dnn_circuit, ising_circuit, qft_circuit, wstate_circuit
from repro.workloads.scenarios import clifford_rz_circuit

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Exercise the MST pipeline on short runs: small period and latency.
GOLDEN_CONFIG = SimulationConfig(distance=7, physical_error_rate=1e-4,
                                 mst_period=10, mst_latency=20)
GOLDEN_SEEDS = (0, 1)
GOLDEN_SCHEDULERS = ("greedy", "autobraid", "rescq")


def _clifford_circuit() -> Circuit:
    circuit = Circuit(4, name="clifford4")
    circuit.h(0).cnot(0, 1).cnot(1, 2).h(3).cnot(2, 3).cnot(3, 0)
    return circuit


def _t_chain_circuit() -> Circuit:
    circuit = Circuit(3, name="tchain3")
    for _ in range(6):
        circuit.rz(0, math.pi / 4)
        circuit.rz(1, math.pi / 8)
        circuit.cnot(1, 2)
        circuit.rz(2, 0.7)
    return circuit


def golden_circuits() -> Dict[str, Circuit]:
    """Small representatives of every gate mix the schedulers handle."""
    return {
        "qft5": qft_circuit(5),
        "dnn6": dnn_circuit(6, layers=2),
        "ising8": ising_circuit(8),
        "wstate6": wstate_circuit(6),
        "clifford4": _clifford_circuit(),
        "tchain3": _t_chain_circuit(),
    }


def large_circuits() -> Dict[str, Circuit]:
    """1000-tile scale circuits (250 data qubits x 2x2 STAR block = 1000 tiles).

    Kept out of :func:`golden_circuits` so the scheduler x seed product does
    not explode; only the two explicitly listed large cases are captured.
    Shallow on purpose — the point is fabric size (routing/MST pressure),
    not circuit length.
    """
    return {
        "scen250": clifford_rz_circuit(250, depth=2, seed=7),
        "scen250dense": clifford_rz_circuit(250, depth=3, cx_fraction=0.5,
                                            seed=11),
    }


def golden_cases() -> List[Tuple[str, str, str, int, str]]:
    """(case_id, circuit_key, scheduler, seed, variant) tuples.

    ``variant`` selects config/layout tweaks: the default run, RESCQ with
    MST routing disabled, RESCQ with the parallel/eager ablations off, and a
    compressed-grid run — one case per distinct code path.
    """
    cases: List[Tuple[str, str, str, int, str]] = []
    for circuit_key in sorted(golden_circuits()):
        for scheduler in GOLDEN_SCHEDULERS:
            for seed in GOLDEN_SEEDS:
                cases.append((f"{circuit_key}-{scheduler}-s{seed}",
                              circuit_key, scheduler, seed, "default"))
    # Variant coverage on one rotation-heavy circuit.
    cases.append(("dnn6-rescq-s0-nomst", "dnn6", "rescq", 0, "no_mst"))
    cases.append(("dnn6-rescq-s0-ablated", "dnn6", "rescq", 0, "ablated"))
    cases.append(("dnn6-rescq-s0-compressed", "dnn6", "rescq", 0, "compressed"))
    cases.append(("dnn6-greedy-s0-compressed", "dnn6", "greedy", 0, "compressed"))
    # 1000-tile scale points (ISSUE 8): exercise the vectorised routing core
    # on a fabric two orders of magnitude larger than the small cases.
    cases.append(("scen250-rescq-s0-large", "scen250", "rescq", 0, "default"))
    cases.append(("scen250dense-rescq-s0-large", "scen250dense", "rescq", 0,
                  "default"))
    return cases


def case_inputs(circuit_key: str,
                variant: str) -> Tuple[Circuit, object, SimulationConfig]:
    """The circuit, layout and config one golden case runs with."""
    from repro.sim.runner import default_layout

    circuits = golden_circuits()
    circuit = (circuits[circuit_key] if circuit_key in circuits
               else large_circuits()[circuit_key])
    config = GOLDEN_CONFIG
    if variant == "no_mst":
        config = config.with_updates(use_mst_routing=False)
    elif variant == "ablated":
        config = config.with_updates(parallel_preparation=False,
                                     eager_correction_prep=False)
    if variant == "compressed":
        layout, _ = compress_layout(
            star_layout(circuit.num_qubits, StarVariant.STAR), 1.0, seed=2)
    else:
        layout = default_layout(circuit)
    return circuit, layout, config


def run_case(circuit_key: str, scheduler_name: str, seed: int,
             variant: str) -> Dict[str, object]:
    """Execute one golden case and return its serialised result."""
    from repro.analysis.export import result_to_dict

    circuit, layout, config = case_inputs(circuit_key, variant)
    scheduler = SCHEDULER_REGISTRY.create(scheduler_name)
    result = scheduler.run(circuit, layout, config, seed=seed)
    return result_to_dict(result)


def golden_path(case_id: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{case_id}.json")


def load_golden(case_id: str) -> Dict[str, object]:
    with open(golden_path(case_id), "r", encoding="utf-8") as handle:
        return json.load(handle)
