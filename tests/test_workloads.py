"""Tests for the Table 3 workload generators and the benchmark registry."""


import pytest

from repro.circuits import BASIS, GateType
from repro.workloads import (
    BENCHMARK_REGISTRY,
    TABLE3,
    dnn_circuit,
    gcm_circuit,
    get_benchmark,
    hamiltonian_simulation_circuit,
    ising_circuit,
    multiplier_circuit,
    multiplier_width_for_qubits,
    qaoa_fermionic_swap_circuit,
    qaoa_vanilla_circuit,
    qft_circuit,
    qugan_circuit,
    random_regular_edges,
    table3_rows,
    vqe_circuit,
    wstate_circuit,
)


def _in_basis(circuit):
    return all(gate.gate_type in BASIS or gate.gate_type is GateType.RZ
               for gate in circuit)


class TestGeneratorsProduceBasisCircuits:
    @pytest.mark.parametrize("builder", [
        lambda: ising_circuit(10),
        lambda: qft_circuit(8),
        lambda: multiplier_circuit(13),
        lambda: qugan_circuit(9),
        lambda: gcm_circuit(8, generator_terms=6),
        lambda: vqe_circuit(8),
        lambda: dnn_circuit(8, layers=2),
        lambda: wstate_circuit(8),
        lambda: hamiltonian_simulation_circuit(8),
        lambda: qaoa_vanilla_circuit(8),
        lambda: qaoa_fermionic_swap_circuit(8, rounds=1),
    ])
    def test_basis_only(self, builder):
        circuit = builder()
        assert len(circuit) > 0
        assert _in_basis(circuit)

    def test_untranspiled_circuits_keep_high_level_gates(self):
        raw = ising_circuit(6, transpile=False)
        assert any(g.gate_type is GateType.RZZ for g in raw)


class TestStructuralProperties:
    def test_ising_is_wide(self):
        stats = ising_circuit(20).stats()
        # parallel circuit: depth far below gate count
        assert stats.depth < stats.total_gates / 2

    def test_qft_is_sequential(self):
        stats = qft_circuit(10).stats()
        assert stats.depth > stats.total_gates / 4

    def test_qft_cnot_count_exact(self):
        # exact QFT: 2 CNOTs per controlled phase, n(n-1)/2 phases
        stats = qft_circuit(10).stats()
        assert stats.num_cnot == 10 * 9

    def test_qft_approximation_reduces_gates(self):
        full = qft_circuit(12).stats().num_cnot
        approx = qft_circuit(12, approximation_degree=6).stats().num_cnot
        assert approx < full

    def test_dnn_is_rotation_dominated(self):
        stats = dnn_circuit(16, layers=8).stats()
        assert stats.rz_to_cnot_ratio > 4.0

    def test_vqe_has_few_cnots(self):
        stats = vqe_circuit(13, layers=2).stats()
        assert stats.num_cnot < stats.num_rz / 3

    def test_wstate_scaling(self):
        stats = wstate_circuit(27).stats()
        assert stats.num_cnot == 3 * 26  # 2 per controlled-Ry + 1 cascade CNOT

    def test_multiplier_width(self):
        assert multiplier_width_for_qubits(45) == 11
        with pytest.raises(ValueError):
            multiplier_width_for_qubits(3)

    def test_fermionic_swap_has_more_cnots_than_vanilla(self):
        vanilla = qaoa_vanilla_circuit(12, rounds=1).stats()
        swap = qaoa_fermionic_swap_circuit(12, rounds=1).stats()
        assert swap.num_cnot > vanilla.num_cnot

    def test_random_regular_edges_have_expected_count(self):
        edges = random_regular_edges(12, degree=3)
        assert len(edges) == 18
        assert all(0 <= a < 12 and 0 <= b < 12 and a != b for a, b in edges)

    def test_generators_reject_degenerate_sizes(self):
        with pytest.raises(ValueError):
            ising_circuit(1)
        with pytest.raises(ValueError):
            wstate_circuit(1)
        with pytest.raises(ValueError):
            qugan_circuit(3)


class TestRegistry:
    def test_all_rows_present(self):
        assert len(TABLE3) == 23
        assert "qft_n160" in BENCHMARK_REGISTRY
        assert sum(spec.suite == "supermarq" for spec in TABLE3) == 6

    def test_get_benchmark_round_trip(self):
        spec = get_benchmark("dnn_n16")
        circuit = spec.build()
        assert circuit.name == "dnn_n16"
        assert circuit.num_qubits == 16

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("not_a_benchmark")

    def test_qubit_counts_match_table3(self):
        for spec in TABLE3:
            if spec.num_qubits <= 50:  # keep the test fast
                assert spec.build().num_qubits == spec.num_qubits

    def test_generated_ratios_track_paper_ratios(self):
        """The Rz:CNOT ratio of each generated circuit should be within a
        factor of ~2 of the paper's ratio (the property the suite was chosen
        to span, Section 5.1)."""
        for spec in TABLE3:
            if spec.num_qubits > 50:
                continue
            stats = spec.build().stats()
            paper_ratio = spec.paper_rz / spec.paper_cnot
            generated_ratio = stats.rz_to_cnot_ratio
            assert generated_ratio == pytest.approx(paper_ratio, rel=1.2), spec.name

    def test_table3_rows_report_both_counts(self):
        rows = table3_rows()
        assert len(rows) == len(TABLE3)
        for row in rows:
            assert row["generated_rz"] > 0
            assert row["paper_rz"] > 0
