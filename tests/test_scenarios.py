"""Tests for the seeded scenario generators and the benchmark resolver."""

import pytest

from repro.api.registry import UnknownEntryError
from repro.api.spec import ExperimentSpec, SpecValidationError
from repro.circuits import BASIS, GateType, to_qasm
from repro.exec.jobs import job_fingerprint
from repro.workloads import (
    BENCHMARK_REGISTRY,
    CURATED_SCENARIOS,
    ScenarioError,
    clifford_t_circuit,
    congestion_circuit,
    parse_scenario_name,
    resolve_benchmark,
    scenario_name,
    scenario_sweep_names,
)


class TestGenerators:
    def test_same_seed_same_circuit(self):
        a = clifford_t_circuit(n=10, depth=12, seed=5)
        b = clifford_t_circuit(n=10, depth=12, seed=5)
        assert a == b

    def test_different_seed_different_circuit(self):
        a = clifford_t_circuit(n=10, depth=12, seed=5)
        b = clifford_t_circuit(n=10, depth=12, seed=6)
        assert a != b

    def test_output_is_in_scheduler_basis(self):
        for name in ("scenario:clifford_t:n=6,depth=8",
                     "scenario:clifford_rz:n=6,depth=8",
                     "scenario:congestion:n=6,layers=2"):
            circuit = resolve_benchmark(name).build()
            assert all(gate.gate_type in BASIS for gate in circuit)

    def test_t_density_moves_rotation_count(self):
        sparse = clifford_t_circuit(n=12, depth=30, t_density=0.05, seed=1)
        dense = clifford_t_circuit(n=12, depth=30, t_density=0.9, seed=1)
        assert dense.stats().num_rz > sparse.stats().num_rz

    def test_connectivity_bounds_cnot_span(self):
        circuit = clifford_t_circuit(n=16, depth=20, connectivity=2, seed=3,
                                     cx_fraction=0.9, transpile=False)
        spans = [abs(g.qubits[0] - g.qubits[1]) for g in circuit
                 if g.gate_type is GateType.CNOT]
        assert spans and max(spans) <= 2

    def test_congestion_layers_cross_the_register(self):
        circuit = congestion_circuit(n=12, layers=1, seed=0, transpile=False)
        crossings = [g for g in circuit if g.gate_type is GateType.CNOT]
        # Every crossing CNOT pairs qubit i with n-1-i.
        assert len(crossings) == 6
        assert all(sum(g.qubits) == 11 for g in crossings)

    def test_congestion_rz_storm_hits_hotspot_window(self):
        circuit = congestion_circuit(n=12, layers=1, hotspot=0.5, seed=0,
                                     transpile=False)
        rz_qubits = {g.qubits[0] for g in circuit
                     if g.gate_type is GateType.RZ}
        assert len(rz_qubits) == 6  # half the register


class TestScenarioNames:
    def test_canonical_name_sorts_parameters(self):
        name = scenario_name("clifford_t", depth=10, n=8)
        body = name.split(":", 2)[2]
        keys = [item.split("=")[0] for item in body.split(",")]
        assert keys == sorted(keys)

    def test_parse_inverts_format(self):
        name = scenario_name("clifford_t", n=8, depth=10, t_density=0.5)
        family, params = parse_scenario_name(name)
        assert family.name == "clifford_t"
        assert params["n"] == 8 and params["t_density"] == 0.5

    def test_parse_applies_defaults(self):
        _family, params = parse_scenario_name("scenario:congestion:n=8")
        assert params["layers"] == 4
        assert params["hotspot"] == pytest.approx(0.34)

    def test_build_names_circuit_after_request(self):
        name = "scenario:clifford_t:n=6,depth=4,seed=2"
        assert resolve_benchmark(name).build().name == name

    @pytest.mark.parametrize("bad,needle", [
        ("clifford_t", "start with"),
        ("scenario:", "names no family"),
        ("scenario:warp:n=4", "unknown scenario family"),
        ("scenario:clifford_t:n", "key=value"),
        ("scenario:clifford_t:n=2,n=3", "twice"),
        ("scenario:clifford_t:n=two", "expects int"),
        ("scenario:clifford_t:n=1", ">= 2"),
        ("scenario:clifford_t:t_density=1.5", "<= 1.0"),
        ("scenario:clifford_t:warp=1", "no parameter"),
    ])
    def test_malformed_names_error_actionably(self, bad, needle):
        with pytest.raises(ScenarioError, match=needle):
            parse_scenario_name(bad)

    def test_sweep_names_vary_one_parameter(self):
        names = scenario_sweep_names("clifford_t", "depth", [4, 8], n=6)
        assert len(names) == 2
        assert parse_scenario_name(names[0])[1]["depth"] == 4
        assert parse_scenario_name(names[1])[1]["depth"] == 8

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(ScenarioError, match="no parameter"):
            scenario_sweep_names("clifford_t", "warp", [1, 2])


class TestResolver:
    def test_curated_scenarios_are_registered_benchmarks(self):
        for name in CURATED_SCENARIOS:
            assert name in BENCHMARK_REGISTRY
            spec = resolve_benchmark(name)
            assert spec.suite == "scenario"
            assert spec.build().name == name

    def test_dynamic_scenario_resolves_without_registration(self):
        name = "scenario:clifford_t:n=5,depth=3,seed=9"
        spec = resolve_benchmark(name)
        assert name not in BENCHMARK_REGISTRY
        assert spec.num_qubits == 5

    def test_table3_names_still_resolve(self):
        assert resolve_benchmark("qft_n18").name == "qft_n18"

    def test_qasm_path_resolves_to_imported_benchmark(self, tmp_path):
        path = tmp_path / "tiny.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                        'qreg q[2];\nh q[0];\ncx q[0],q[1];\n')
        spec = resolve_benchmark(str(path))
        assert spec.suite == "imported"
        assert spec.name == str(path)
        circuit = spec.build()
        assert circuit.name == str(path)
        assert len(circuit) == 2

    def test_imported_builds_are_independent_copies(self, tmp_path):
        path = tmp_path / "tiny.qasm"
        path.write_text('OPENQASM 2.0;\nqreg q[1];\nh q[0];\n')
        spec = resolve_benchmark(str(path))
        assert spec.build() is not spec.build()

    def test_malformed_qasm_fails_at_resolution(self, tmp_path):
        path = tmp_path / "broken.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1];\nwarp q[0];\n")
        with pytest.raises(ValueError, match="unknown gate"):
            resolve_benchmark(str(path))

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(UnknownEntryError, match="scenario:<family>"):
            resolve_benchmark("not_a_benchmark")

    def test_non_qasm_path_rejected(self):
        with pytest.raises(UnknownEntryError, match="only .qasm"):
            resolve_benchmark("/tmp/whatever.txt")


def fingerprint_for(circuit):
    from repro.api.registries import LAYOUTS, SCHEDULERS
    from repro.sim.config import SimulationConfig
    scheduler = SCHEDULERS.create("rescq")
    layout = LAYOUTS.create("star", circuit, compression=0.0, seed=0)
    return job_fingerprint(circuit, scheduler, SimulationConfig(), layout, 0)


class TestCacheSoundness:
    """Fingerprints must track imported file content and generator params."""

    def test_identical_scenario_names_share_a_fingerprint(self):
        name = "scenario:clifford_rz:n=6,depth=6,seed=4"
        first = fingerprint_for(resolve_benchmark(name).build())
        second = fingerprint_for(resolve_benchmark(name).build())
        assert first == second

    @pytest.mark.parametrize("other", [
        "scenario:clifford_rz:n=6,depth=6,seed=5",       # seed change
        "scenario:clifford_rz:n=6,depth=7,seed=4",       # param change
        "scenario:clifford_rz:n=6,depth=6,seed=4,rz_density=0.9",
    ])
    def test_seed_or_param_change_is_a_cache_miss(self, other):
        base_name = "scenario:clifford_rz:n=6,depth=6,seed=4"
        base = fingerprint_for(resolve_benchmark(base_name).build())
        assert fingerprint_for(resolve_benchmark(other).build()) != base

    def test_equivalent_scenario_spellings_share_a_fingerprint(self):
        def fingerprint(name):
            spec = ExperimentSpec(name="spell", benchmarks=(name,),
                                  schedulers=("rescq",), seeds=1)
            return spec.expand()[0].fingerprint()
        # Key order is normalised to the canonical spelling at spec
        # construction, so both references label (and cache) identically.
        assert (fingerprint("scenario:clifford_rz:depth=6,n=6,seed=4")
                == fingerprint("scenario:clifford_rz:n=6,depth=6,seed=4"))

    def test_file_content_change_is_a_cache_miss(self, tmp_path):
        path = tmp_path / "w.qasm"
        path.write_text('OPENQASM 2.0;\nqreg q[2];\nh q[0];\n')
        before = fingerprint_for(resolve_benchmark(str(path)).build())
        path.write_text('OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[1];\n')
        after = fingerprint_for(resolve_benchmark(str(path)).build())
        assert before != after

    def test_barrier_only_difference_is_a_cache_miss(self, tmp_path):
        plain = tmp_path / "plain.qasm"
        fenced = tmp_path / "plain2.qasm"
        plain.write_text('OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[1];\n')
        fenced.write_text(
            'OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbarrier q;\nh q[1];\n')
        a = resolve_benchmark(str(plain)).build().copy(name="same")
        b = resolve_benchmark(str(fenced)).build().copy(name="same")
        assert fingerprint_for(a) != fingerprint_for(b)


class TestSpecIntegration:
    def test_spec_accepts_scenario_and_qasm_benchmarks(self, tmp_path):
        path = tmp_path / "mini.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                        'qreg q[2];\nh q[0];\nrz(0.4) q[0];\ncx q[0],q[1];\n')
        spec = ExperimentSpec(
            name="mixed",
            benchmarks=("scenario:clifford_t:n=5,depth=3,seed=1", str(path)),
            schedulers=("rescq",),
            seeds=1,
        )
        jobs = spec.validate().expand()
        assert [job.benchmark for job in jobs] == list(spec.benchmarks)
        results = [job.run() for job in jobs]
        assert all(result.total_cycles > 0 for result in results)

    @pytest.mark.parametrize("entry", [5, ["a"]])
    def test_spec_rejects_non_string_benchmark(self, entry):
        spec = ExperimentSpec(name="bad", benchmarks=(entry,), seeds=1)
        with pytest.raises(SpecValidationError, match="must be strings"):
            spec.validate()

    def test_equivalent_spellings_dedup_to_one_benchmark(self):
        spec = ExperimentSpec(
            name="dup",
            benchmarks=("scenario:clifford_t:depth=4,n=6",
                        "scenario:clifford_t:n=6,depth=4"),
            schedulers=("rescq",),
            seeds=1,
        )
        assert len(spec.benchmarks) == 1
        assert len(spec.expand()) == 1

    def test_spec_rejects_bad_scenario_with_its_message(self):
        spec = ExperimentSpec(
            name="bad", benchmarks=("scenario:clifford_t:n=1",), seeds=1)
        with pytest.raises(SpecValidationError, match=">= 2"):
            spec.validate()

    def test_spec_rejects_malformed_qasm_with_position(self, tmp_path):
        path = tmp_path / "broken.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1];\nwarp q[0];\n")
        spec = ExperimentSpec(name="bad", benchmarks=(str(path),), seeds=1)
        with pytest.raises(SpecValidationError, match="broken.qasm:3"):
            spec.validate()

    def test_generated_qasm_runs_end_to_end(self, tmp_path):
        path = tmp_path / "gen.qasm"
        circuit = resolve_benchmark(
            "scenario:congestion:n=6,layers=2,seed=8").build()
        path.write_text(to_qasm(circuit))
        spec = ExperimentSpec(name="roundtrip", benchmarks=(str(path),),
                              schedulers=("greedy",), seeds=1)
        jobs = spec.expand()
        assert len(jobs) == 1
        assert jobs[0].run().total_cycles > 0
