"""Shared fixtures for the figure/table regeneration harnesses.

Every benchmark file regenerates one table or figure of the paper and prints
its rows/series, so running ``pytest benchmarks/ --benchmark-only -s`` leaves a
text record of the reproduced evaluation.

By default the harnesses run on *scaled-down* workloads (a laptop-friendly
subset of Table 3 at reduced size) so the whole suite finishes in minutes.
Set the environment variable ``RESCQ_FULL=1`` to run the paper-sized
workloads; expect several hours, comparable to the original artifact's 0.5-1
hour on 16 threads plus our pure-Python overhead.

Execution is routed through one session-wide
:class:`~repro.service.service.ExperimentService`:

* ``RESCQ_JOBS=N`` fans simulation jobs out over N spawned worker processes
  (``RESCQ_JOBS=0`` means one worker per CPU; the default 1 runs inline);
* ``RESCQ_CACHE=DIR`` memoises finished jobs on disk, so re-running a
  harness skips every already-measured point.

Results are identical for every setting — results come back in plan order
and each job is independently seeded.
"""

from __future__ import annotations

import os
from typing import Iterator, List

import pytest

from repro import SimulationConfig
from repro.api import build_engine
from repro.circuits import Circuit
from repro.scheduling import DEFAULT_SCHEDULER_NAMES
from repro.service import ExperimentService
from repro.workloads import (
    dnn_circuit,
    gcm_circuit,
    get_benchmark,
    hamiltonian_simulation_circuit,
    ising_circuit,
    qaoa_fermionic_swap_circuit,
    qaoa_vanilla_circuit,
    qft_circuit,
    qugan_circuit,
    vqe_circuit,
    wstate_circuit,
)

FULL_SCALE = bool(int(os.environ.get("RESCQ_FULL", "0")))

#: When set, harnesses that call :func:`record_bench` also write their rows
#: to ``BENCH_<name>.json`` at the repo root, which the nightly benchmark
#: workflow uploads as artifacts (the kernel-throughput harness always
#: writes its own ``BENCH_kernel.json``).
RECORD = bool(int(os.environ.get("RESCQ_BENCH_RECORD", "0")))

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record_bench(name: str, payload) -> None:
    """Dump one harness's result rows to ``BENCH_<name>.json`` (if enabled)."""
    if not RECORD:
        return
    import json

    path = os.path.join(_REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": name, "full_scale": FULL_SCALE,
                   "payload": payload}, handle, indent=2, sort_keys=True)
        handle.write("\n")

#: Number of seeded repetitions per configuration (the paper uses 10-1000).
SEEDS = 5 if FULL_SCALE else 2


def evaluation_suite() -> List[Circuit]:
    """The benchmark suite used by the Figure 10 style experiments.

    At full scale this is every Table 3 row; at laptop scale it is one
    representative of every workload family, shrunk to <= 16 qubits.
    """
    if FULL_SCALE:
        from repro.workloads import TABLE3
        return [spec.build() for spec in TABLE3]
    return [
        ising_circuit(12),
        qft_circuit(10),
        qugan_circuit(11),
        gcm_circuit(10, generator_terms=30),
        dnn_circuit(10, layers=3),
        wstate_circuit(12),
        hamiltonian_simulation_circuit(12),
        qaoa_vanilla_circuit(10, rounds=1),
        qaoa_fermionic_swap_circuit(10, rounds=1),
        vqe_circuit(10),
    ]


def sensitivity_suite() -> List[Circuit]:
    """The three representative benchmarks of Section 5.2, scaled down."""
    if FULL_SCALE:
        return [get_benchmark(name).build()
                for name in ("dnn_n16", "gcm_n13", "qft_n160")]
    return [
        dnn_circuit(10, layers=3),
        gcm_circuit(10, generator_terms=24),
        qft_circuit(12),
    ]


@pytest.fixture(scope="session")
def headline_config() -> SimulationConfig:
    """d=7, p=1e-4, k=25 — the configuration of Figure 10."""
    return SimulationConfig()


@pytest.fixture(scope="session")
def schedulers():
    """The paper's three schedulers, by registered name."""
    return DEFAULT_SCHEDULER_NAMES


@pytest.fixture(scope="session")
def engine() -> Iterator[ExperimentService]:
    """Session-wide job runner (see the module docstring), shut down at the
    end of the session."""
    with build_engine(jobs=int(os.environ.get("RESCQ_JOBS", "1")),
                      cache=os.environ.get("RESCQ_CACHE")) as runner:
        yield runner


@pytest.fixture(scope="session")
def eval_circuits() -> List[Circuit]:
    return evaluation_suite()


@pytest.fixture(scope="session")
def sensitivity_circuits() -> List[Circuit]:
    return sensitivity_suite()
