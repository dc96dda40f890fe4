"""Workload generators reproducing the Table 3 benchmark families."""

from .chemistry import gcm_circuit, pauli_string_exponential, vqe_circuit
from .dnn import dnn_circuit
from .ising import ising_circuit
from .multiplier import multiplier_circuit, multiplier_width_for_qubits
from .qft import qft_circuit
from .qugan import qugan_circuit
from .registry import (
    BENCHMARK_REGISTRY,
    TABLE3,
    BenchmarkSpec,
    get_benchmark,
    imported_benchmark,
    register_benchmark,
    resolve_benchmark,
    table3_rows,
)
from .scenarios import (
    CURATED_SCENARIOS,
    SCENARIO_FAMILIES,
    ScenarioError,
    ScenarioFamily,
    ScenarioParameter,
    clifford_rz_circuit,
    clifford_t_circuit,
    congestion_circuit,
    parse_scenario_name,
    scenario_benchmark,
    scenario_name,
    scenario_sweep_names,
)
from .supermarq import (
    hamiltonian_simulation_circuit,
    qaoa_fermionic_swap_circuit,
    qaoa_vanilla_circuit,
    random_regular_edges,
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
    "ScenarioError",
    "ScenarioParameter",
    "ScenarioFamily",
    "SCENARIO_FAMILIES",
    "CURATED_SCENARIOS",
    "scenario_name",
    "parse_scenario_name",
    "scenario_benchmark",
    "scenario_sweep_names",
    "clifford_t_circuit",
    "clifford_rz_circuit",
    "congestion_circuit",
    "ising_circuit",
    "qft_circuit",
    "multiplier_circuit",
    "multiplier_width_for_qubits",
    "qugan_circuit",
    "gcm_circuit",
    "vqe_circuit",
    "pauli_string_exponential",
    "dnn_circuit",
    "wstate_circuit",
    "hamiltonian_simulation_circuit",
    "qaoa_vanilla_circuit",
    "qaoa_fermionic_swap_circuit",
    "random_regular_edges",
]
