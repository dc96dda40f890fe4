"""Benchmark registry mirroring Table 3 of the paper.

Every row of Table 3 gets a named entry mapping to a workload generator call.
Because the original QASMBench / SupermarQ circuit files are not shipped with
this reproduction, the generators rebuild the same algorithm families at the
same qubit counts; the actual gate counts of the generated circuits are
reported by :func:`table3_rows` next to the counts the paper lists, so the
substitution is auditable (see DESIGN.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..api.registry import Registry, UnknownEntryError
from ..circuits import Circuit
from .chemistry import gcm_circuit, vqe_circuit
from .dnn import dnn_circuit
from .ising import ising_circuit
from .multiplier import multiplier_circuit
from .qft import qft_circuit
from .qugan import qugan_circuit
from .supermarq import (
    hamiltonian_simulation_circuit,
    qaoa_fermionic_swap_circuit,
    qaoa_vanilla_circuit,
)
from .wstate import wstate_circuit

__all__ = [
    "BenchmarkSpec",
    "BENCHMARK_REGISTRY",
    "TABLE3",
    "get_benchmark",
    "imported_benchmark",
    "register_benchmark",
    "resolve_benchmark",
    "table3_rows",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table 3.

    Attributes
    ----------
    name:
        Canonical benchmark name, e.g. ``"qft_n29"``.
    suite:
        ``"large"``, ``"medium"`` or ``"supermarq"``.
    num_qubits / paper_rz / paper_cnot:
        The values printed in Table 3 of the paper.
    builder:
        Zero-argument callable producing the generated circuit.
    """

    name: str
    suite: str
    num_qubits: int
    paper_rz: int
    paper_cnot: int
    builder: Callable[[], Circuit]

    def build(self) -> Circuit:
        circuit = self.builder()
        circuit.name = self.name
        return circuit


def _spec(name: str, suite: str, qubits: int, rz: int, cnot: int,
          builder: Callable[[], Circuit]) -> BenchmarkSpec:
    return BenchmarkSpec(name, suite, qubits, rz, cnot, builder)


TABLE3: Tuple[BenchmarkSpec, ...] = (
    # -- QASMBench large -------------------------------------------------------
    _spec("ising_n34", "large", 34, 83, 66, lambda: ising_circuit(34)),
    _spec("ising_n42", "large", 42, 103, 82, lambda: ising_circuit(42)),
    _spec("ising_n66", "large", 66, 163, 130, lambda: ising_circuit(66)),
    _spec("ising_n98", "large", 98, 243, 194, lambda: ising_circuit(98)),
    _spec("ising_n420", "large", 420, 1048, 838, lambda: ising_circuit(420)),
    _spec("multiplier_n45", "large", 45, 2237, 2286,
          lambda: multiplier_circuit(45)),
    _spec("multiplier_n75", "large", 75, 6384, 6510,
          lambda: multiplier_circuit(75)),
    _spec("qft_n29", "large", 29, 708, 680, lambda: qft_circuit(29)),
    _spec("qft_n63", "large", 63, 1898, 1836,
          lambda: qft_circuit(63, approximation_degree=32)),
    _spec("qft_n160", "large", 160, 5293, 5134,
          lambda: qft_circuit(160, approximation_degree=130)),
    _spec("qugan_n39", "large", 39, 411, 296, lambda: qugan_circuit(39, layers=3)),
    _spec("qugan_n71", "large", 71, 763, 552, lambda: qugan_circuit(71, layers=3)),
    _spec("qugan_n111", "large", 111, 1203, 872,
          lambda: qugan_circuit(111, layers=3)),
    # -- QASMBench medium -----------------------------------------------------
    _spec("gcm_n13", "medium", 13, 1528, 762,
          lambda: gcm_circuit(13, generator_terms=110)),
    _spec("dnn_n16", "medium", 16, 2432, 384, lambda: dnn_circuit(16, layers=8)),
    _spec("qft_n18", "medium", 18, 323, 306, lambda: qft_circuit(18)),
    _spec("wstate_n27", "medium", 27, 156, 52, lambda: wstate_circuit(27)),
    # -- SupermarQ --------------------------------------------------------------
    _spec("HamiltonianSimulation_n25", "supermarq", 25, 49, 48,
          lambda: hamiltonian_simulation_circuit(25)),
    _spec("HamiltonianSimulation_n50", "supermarq", 50, 99, 98,
          lambda: hamiltonian_simulation_circuit(50)),
    _spec("HamiltonianSimulation_n75", "supermarq", 75, 149, 148,
          lambda: hamiltonian_simulation_circuit(75)),
    _spec("QAOAFermionicSwap_n15", "supermarq", 15, 120, 315,
          lambda: qaoa_fermionic_swap_circuit(15, rounds=1)),
    _spec("QAOAVanilla_n15", "supermarq", 15, 120, 210,
          lambda: qaoa_vanilla_circuit(15, rounds=3)),
    _spec("VQE_n13", "supermarq", 13, 78, 12, lambda: vqe_circuit(13, layers=2)),
)

#: Name -> :class:`BenchmarkSpec`.  Table 3 rows are pre-registered; user
#: workloads join via :func:`register_benchmark` and are then addressable
#: from :class:`~repro.api.spec.ExperimentSpec` files and the CLI.
BENCHMARK_REGISTRY: Registry = Registry("benchmark")
for _spec_entry in TABLE3:
    BENCHMARK_REGISTRY.register(_spec_entry.name, _spec_entry)


def register_benchmark(spec: BenchmarkSpec) -> BenchmarkSpec:
    """Add a user-defined workload to the benchmark registry.

    Raises :class:`~repro.api.registry.DuplicateEntryError` if the name
    collides with a Table 3 row or a previously registered workload.
    """
    return BENCHMARK_REGISTRY.register(spec.name, spec)

def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a registered benchmark by name (raises ``KeyError`` if unknown)."""
    return BENCHMARK_REGISTRY.get(name)


#: path -> ((size, mtime_ns), BenchmarkSpec) memo for :func:`imported_benchmark`.
#: Resolution is eager (parse + transpile) and happens for validation and
#: expansion alike, so without the memo one ``rescq run file.qasm`` would
#: parse the file several times.  The stat signature invalidates the entry
#: whenever the file is rewritten.
_IMPORT_MEMO: Dict[str, Tuple[Tuple[int, int], BenchmarkSpec]] = {}


def imported_benchmark(path: str) -> BenchmarkSpec:
    """Wrap one OpenQASM 2.0 file as a :class:`BenchmarkSpec`.

    The file is parsed and lowered eagerly, so malformed input fails here —
    at spec-validation time, with the importer's file:line:column message —
    rather than inside a worker process.  The spec's name is the path exactly
    as given (results and cache fingerprints key on it plus the full gate
    content, so edits to the file are always cache misses).
    """
    from ..circuits.qasm import import_qasm_file
    path = str(path)
    try:
        stat = os.stat(path)
        signature = (stat.st_size, stat.st_mtime_ns)
    except OSError:
        signature = None  # let import_qasm_file report the read failure
    if signature is not None:
        cached = _IMPORT_MEMO.get(path)
        if cached is not None and cached[0] == signature:
            return cached[1]
    circuit = import_qasm_file(path)
    circuit.name = path
    spec = BenchmarkSpec(
        name=path,
        suite="imported",
        num_qubits=circuit.num_qubits,
        paper_rz=0,
        paper_cnot=0,
        builder=circuit.copy,
    )
    if signature is not None:
        _IMPORT_MEMO[path] = (signature, spec)
    return spec


def resolve_benchmark(name: str) -> BenchmarkSpec:
    """Resolve any benchmark reference accepted by specs and the CLI.

    Three reference forms are recognised, tried in order:

    1. a registered benchmark name (Table 3 rows, user registrations and the
       curated ``scenario:...`` instances);
    2. a dynamic ``scenario:<family>[:key=value,...]`` generator name (see
       :mod:`repro.workloads.scenarios`);
    3. a path to an OpenQASM 2.0 file (anything ending in ``.qasm``).

    Raises an actionable error: :class:`ScenarioError` for bad scenario
    names, :class:`~repro.circuits.qasm.QasmImportError` for unreadable or
    malformed files and :class:`~repro.api.registry.UnknownEntryError`
    otherwise.  All three are ``ValueError``/``KeyError`` subclasses, so
    spec validation can report them uniformly.
    """
    if name in BENCHMARK_REGISTRY:
        return BENCHMARK_REGISTRY.get(name)
    if name.startswith("scenario:"):
        from .scenarios import scenario_benchmark
        return scenario_benchmark(name)
    if name.endswith(".qasm"):
        return imported_benchmark(name)
    if os.path.sep in name or name.endswith((".inc", ".txt", ".json")):
        raise UnknownEntryError(
            f"benchmark {name!r} looks like a file path but only .qasm "
            f"files can be imported"
        )
    raise UnknownEntryError(
        f"unknown benchmark {name!r}; known: {BENCHMARK_REGISTRY.names()}. "
        f"A benchmark may also be a 'scenario:<family>:key=value,...' "
        f"generator name or a path to an OpenQASM 2.0 file (*.qasm)"
    )


def table3_rows() -> List[Dict[str, object]]:
    """Generate every benchmark and report generated vs paper gate counts."""
    rows: List[Dict[str, object]] = []
    for spec in TABLE3:
        stats = spec.build().stats()
        rows.append({
            "name": spec.name,
            "suite": spec.suite,
            "qubits": spec.num_qubits,
            "paper_rz": spec.paper_rz,
            "paper_cnot": spec.paper_cnot,
            "generated_rz": stats.num_rz,
            "generated_cnot": stats.num_cnot,
            "generated_rz_per_cnot": round(stats.rz_to_cnot_ratio, 2),
        })
    return rows
