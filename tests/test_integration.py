"""End-to-end integration tests spanning workloads, fabric, schedulers and analysis."""


from repro import SimulationConfig, default_layout, geometric_mean
from repro.analysis import run_execution_comparison
from repro.api import ResultSet
from repro.circuits import from_artifact_format, to_artifact_format
from repro.exec import plan_jobs
from repro.scheduling import AutoBraidScheduler, GreedyScheduler, RescqScheduler
from repro.service import ExperimentService
from repro.workloads import (
    get_benchmark,
    hamiltonian_simulation_circuit,
    qaoa_vanilla_circuit,
    vqe_circuit,
    wstate_circuit,
)

FAST = SimulationConfig(mst_period=10, mst_latency=20)


class TestEndToEnd:
    def test_full_pipeline_on_registry_benchmark(self):
        """Build a Table 3 benchmark, run all three schedulers, check the
        headline qualitative result (RESCQ wins) end to end."""
        circuit = get_benchmark("VQE_n13").build()
        jobs = plan_jobs(
            [GreedyScheduler(), AutoBraidScheduler(), RescqScheduler()],
            circuit, FAST, default_layout(circuit), 2)
        results = ExperimentService().run(jobs)
        rows = ResultSet.from_jobs(jobs, results).comparison_rows()
        assert rows["rescq"].mean_cycles < rows["greedy"].mean_cycles
        assert rows["rescq"].mean_cycles < rows["autobraid"].mean_cycles

    def test_geomean_speedup_across_several_benchmarks(self):
        """A miniature Figure 10: geometric-mean speedup over a few small
        benchmarks should land in the right ballpark (>1.3x, typically ~2x)."""
        circuits = [vqe_circuit(8), wstate_circuit(8),
                    hamiltonian_simulation_circuit(8),
                    qaoa_vanilla_circuit(8, rounds=1)]
        summary = run_execution_comparison(circuits, config=FAST, seeds=2)
        speedup = summary.geomean_speedup("rescq", over="autobraid")
        assert speedup > 1.2

    def test_round_trip_through_artifact_format_preserves_schedule(self):
        """Exporting a workload to the artifact text format and re-importing it
        must not change the simulated cycle count."""
        circuit = vqe_circuit(6)
        reloaded = from_artifact_format(to_artifact_format(circuit),
                                        num_qubits=circuit.num_qubits,
                                        name=circuit.name)
        layout = default_layout(circuit)
        a = RescqScheduler().run(circuit, layout, FAST, seed=0)
        b = RescqScheduler().run(reloaded, layout, FAST, seed=0)
        assert a.total_cycles == b.total_cycles

    def test_seeded_runs_reproducible_across_schedulers(self):
        circuit = wstate_circuit(10)
        layout = default_layout(circuit)
        for scheduler in (GreedyScheduler(), AutoBraidScheduler(),
                          RescqScheduler()):
            first = scheduler.run(circuit, layout, FAST, seed=11)
            second = scheduler.run(circuit, layout, FAST, seed=11)
            assert first.total_cycles == second.total_cycles

    def test_distance_reduces_execution_time(self):
        """Figure 11's qualitative trend: larger code distance shortens the
        execution (preparation attempts fit in fewer cycles)."""
        circuit = vqe_circuit(8)
        layout = default_layout(circuit)
        totals = []
        for distance in (5, 9, 13):
            config = FAST.with_updates(distance=distance)
            results = [GreedyScheduler().run(circuit, layout, config, seed=s)
                       for s in range(3)]
            totals.append(geometric_mean([r.total_cycles for r in results]))
        assert totals[0] >= totals[-1]

    def test_mst_period_has_small_effect_on_rescq(self):
        """Figure 13's claim: RESCQ's performance is only mildly sensitive to
        the MST recomputation period."""
        circuit = qaoa_vanilla_circuit(8, rounds=1)
        layout = default_layout(circuit)
        cycles = []
        for period in (10, 100):
            config = FAST.with_updates(mst_period=period)
            results = [RescqScheduler().run(circuit, layout, config, seed=s)
                       for s in range(3)]
            cycles.append(geometric_mean([r.total_cycles for r in results]))
        ratio = max(cycles) / min(cycles)
        assert ratio < 1.5
