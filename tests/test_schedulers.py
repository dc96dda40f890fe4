"""Tests for the static baselines and the RESCQ realtime scheduler."""

import math
from unittest import mock

import pytest

from repro import SimulationConfig, default_layout
from repro.circuits import Circuit
from repro.fabric import GridLayout, StarVariant, compress_layout, star_layout
from repro.scheduling import AutoBraidScheduler, GreedyScheduler, RescqScheduler
from repro.scheduling.rescq import RescqPolicy
from repro.exec import plan_jobs
from repro.service import ExperimentService
from repro.workloads import dnn_circuit, ising_circuit, qft_circuit


CONFIG = SimulationConfig(distance=7, physical_error_rate=1e-4, mst_period=10,
                          mst_latency=20)


def run_one(scheduler, circuit, seed=0, config=CONFIG, layout=None):
    layout = layout or default_layout(circuit)
    return scheduler.run(circuit, layout, config, seed=seed)


class TestBaselineSchedulers:
    @pytest.mark.parametrize("scheduler_cls", [GreedyScheduler, AutoBraidScheduler])
    def test_executes_every_gate(self, scheduler_cls, small_circuit):
        result = run_one(scheduler_cls(), small_circuit)
        expected = len(small_circuit.without_free_gates())
        assert result.num_gates == expected
        assert result.total_cycles > 0

    def test_deterministic_given_seed(self, qft6):
        a = run_one(GreedyScheduler(), qft6, seed=3)
        b = run_one(GreedyScheduler(), qft6, seed=3)
        assert a.total_cycles == b.total_cycles

    def test_different_seeds_vary(self, qft6):
        cycles = {run_one(GreedyScheduler(), qft6, seed=s).total_cycles
                  for s in range(5)}
        assert len(cycles) > 1

    def test_layer_barrier_traces(self, small_circuit):
        """In a static schedule a gate never starts before its layer opened."""
        result = run_one(AutoBraidScheduler(), small_circuit)
        for trace in result.traces:
            assert trace.start_cycle >= trace.scheduled_cycle

    def test_rz_gates_record_injections_and_preps(self, dnn6):
        result = run_one(GreedyScheduler(), dnn6)
        rz_traces = [t for t in result.traces if t.kind == "rz"]
        assert rz_traces
        assert all(t.injections >= 1 for t in rz_traces)
        assert all(t.preparation_attempts >= t.injections for t in rz_traces)

    def test_mean_injections_close_to_two(self, dnn6):
        """Equation 1: each Rz needs two injections in expectation."""
        result = run_one(GreedyScheduler(), dnn6, seed=1)
        rz_traces = [t for t in result.traces if t.kind == "rz"]
        mean = sum(t.injections for t in rz_traces) / len(rz_traces)
        assert 1.5 < mean < 2.6

    def test_cnot_traces_include_edge_rotations_when_needed(self, qft6):
        result = run_one(GreedyScheduler(), qft6)
        cnot_traces = [t for t in result.traces if t.kind == "cnot"]
        assert cnot_traces
        assert all(t.end_cycle - t.start_cycle >= 2 for t in cnot_traces)

    def test_idle_fraction_between_zero_and_one(self, qft6):
        result = run_one(AutoBraidScheduler(), qft6)
        assert 0.0 <= result.idle_fraction() <= 1.0


class TestRescqScheduler:
    def test_executes_every_gate(self, small_circuit):
        result = run_one(RescqScheduler(), small_circuit)
        assert result.num_gates == len(small_circuit.without_free_gates())

    def test_deterministic_given_seed(self, qft6):
        a = run_one(RescqScheduler(), qft6, seed=2)
        b = run_one(RescqScheduler(), qft6, seed=2)
        assert a.total_cycles == b.total_cycles
        assert [t.end_cycle for t in a.traces] == [t.end_cycle for t in b.traces]

    def test_faster_than_baselines_on_rotation_heavy_workload(self, dnn6):
        rescq = run_one(RescqScheduler(), dnn6)
        greedy = run_one(GreedyScheduler(), dnn6)
        autobraid = run_one(AutoBraidScheduler(), dnn6)
        assert rescq.total_cycles < greedy.total_cycles
        assert rescq.total_cycles < autobraid.total_cycles

    def test_speedup_is_substantial_on_parallel_workload(self):
        circuit = ising_circuit(12)
        rescq = run_one(RescqScheduler(), circuit)
        autobraid = run_one(AutoBraidScheduler(), circuit)
        assert autobraid.total_cycles / rescq.total_cycles > 1.3

    def test_lower_idle_fraction_than_baseline(self, dnn6):
        rescq = run_one(RescqScheduler(), dnn6)
        autobraid = run_one(AutoBraidScheduler(), dnn6)
        assert rescq.idle_fraction() <= autobraid.idle_fraction()

    def test_total_cycles_at_least_critical_path_bound(self, small_circuit):
        """Sanity: the realtime schedule cannot beat a trivial lower bound of
        one cycle per dependent gate on the deepest chain."""
        result = run_one(RescqScheduler(), small_circuit)
        depth = small_circuit.without_free_gates().depth()
        assert result.total_cycles >= depth

    def test_traces_are_consistent(self, qft6):
        result = run_one(RescqScheduler(), qft6)
        for trace in result.traces:
            assert trace.end_cycle >= trace.start_cycle
            assert trace.end_cycle >= trace.scheduled_cycle
            assert trace.latency_after_schedule >= 0

    def test_mst_computations_happen(self, qft6):
        result = run_one(RescqScheduler(), qft6)
        assert result.metadata["mst_computations"] >= 1

    def test_runs_without_mst_routing(self, qft6):
        config = CONFIG.with_updates(use_mst_routing=False)
        result = run_one(RescqScheduler(), qft6, config=config)
        assert result.num_gates == len(qft6.without_free_gates())

    @pytest.mark.parametrize("use_mst_routing", [True, False])
    def test_activity_recorded_only_for_mst_routing(self, qft6,
                                                    use_mst_routing):
        """Activity feeds only the MST snapshots, so a run without MST
        routing keeps no tracker: nothing would read or prune it."""
        policies = []
        original = RescqPolicy.run

        def run(policy):
            policies.append(policy)
            return original(policy)

        config = CONFIG.with_updates(use_mst_routing=use_mst_routing)
        with mock.patch.object(RescqPolicy, "run", run):
            run_one(RescqScheduler(), qft6, config=config)
        assert (policies[0].fabric.activity is None) is not use_mst_routing

    def test_ablation_no_parallel_prep_is_slower(self):
        circuit = dnn_circuit(8, layers=3)
        fast = run_one(RescqScheduler(), circuit)
        ablated_config = CONFIG.with_updates(parallel_preparation=False,
                                             eager_correction_prep=False)
        slow = run_one(RescqScheduler(), circuit, config=ablated_config)
        assert slow.total_cycles >= fast.total_cycles

    def test_works_on_compressed_grid(self):
        circuit = dnn_circuit(8, layers=2)
        layout = star_layout(8, StarVariant.STAR)
        compressed, _ = compress_layout(layout, 1.0, seed=2)
        result = run_one(RescqScheduler(), circuit, layout=compressed)
        assert result.num_gates == len(circuit.without_free_gates())

    def test_compression_does_not_break_baselines(self):
        circuit = qft_circuit(6)
        layout, _ = compress_layout(star_layout(6, StarVariant.STAR), 1.0, seed=2)
        for scheduler in (GreedyScheduler(), AutoBraidScheduler()):
            result = run_one(scheduler, circuit, layout=layout)
            assert result.total_cycles > 0

    def test_compressed_grid_is_slower_for_baseline(self):
        circuit = dnn_circuit(8, layers=2)
        full = run_one(AutoBraidScheduler(), circuit,
                       layout=star_layout(8, StarVariant.STAR))
        compressed_layout, _ = compress_layout(star_layout(8, StarVariant.STAR),
                                               1.0, seed=2)
        compressed = run_one(AutoBraidScheduler(), circuit,
                             layout=compressed_layout)
        assert compressed.total_cycles >= full.total_cycles

    def test_pure_clifford_circuit_executes(self):
        circuit = Circuit(4, name="clifford")
        circuit.h(0).cnot(0, 1).cnot(1, 2).h(3).cnot(2, 3)
        result = run_one(RescqScheduler(), circuit)
        assert result.num_gates == 5
        assert all(t.injections == 0 for t in result.traces)

    def test_t_gate_chain_truncates(self):
        """Rz(pi/4) corrections become Clifford after two doublings, so the
        injection count per gate never exceeds 2."""
        circuit = Circuit(2, name="tchain")
        for _ in range(10):
            circuit.rz(0, math.pi / 4)
            circuit.rz(1, math.pi / 4)
        result = run_one(RescqScheduler(), circuit, seed=5)
        rz_traces = [t for t in result.traces if t.kind == "rz"]
        assert all(t.injections <= 2 for t in rz_traces)

    def test_single_qubit_circuit(self):
        circuit = Circuit(1, name="single")
        circuit.h(0).rz(0, 0.5).h(0).rz(0, 1.2)
        result = run_one(RescqScheduler(), circuit)
        assert result.num_gates == 4

    def test_planned_jobs_multiple_seeds(self, qft6):
        jobs = plan_jobs([RescqScheduler()], qft6, CONFIG,
                         default_layout(qft6), 3)
        results = ExperimentService().run(jobs)
        assert len(results) == 3
        assert len({r.seed for r in results}) == 3


class TestMaxCycles:
    """A run that passes ``config.max_cycles`` raises, whatever the loop."""

    BOUNDED = SimulationConfig(max_cycles=20)

    def test_static_run_past_max_cycles_raises(self, qft6):
        with pytest.raises(RuntimeError,
                           match=r"past max_cycles=20; raise .*max_cycles"):
            run_one(GreedyScheduler(), qft6, config=self.BOUNDED)

    def test_rescq_run_past_max_cycles_raises(self, qft6):
        with pytest.raises(RuntimeError,
                           match=r"past max_cycles=20; raise .*max_cycles"):
            run_one(RescqScheduler(), qft6, config=self.BOUNDED)


class TestUnroutableLayouts:
    """A layout the schedulers cannot use fails with one message that says
    what is wrong, whichever scheduler runs."""

    SCHEDULERS = [GreedyScheduler, AutoBraidScheduler, RescqScheduler]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_cnot_across_a_cut_fabric_names_the_qubits(self, scheduler_cls):
        # 1x5: D . x . D -- the disabled middle tile cuts the fabric.
        layout = GridLayout(1, 5, {0: (0, 0), 1: (0, 4)})
        layout.disable((0, 2))
        circuit = Circuit(2, name="cut").cnot(0, 1)
        with pytest.raises(RuntimeError, match=(
                r"^no ancilla path between qubits 0 and 1; the layout's "
                r"ancilla fabric is disconnected$")):
            run_one(scheduler_cls(), circuit, layout=layout)

    @pytest.mark.parametrize("gate", ["h", "rz"])
    @pytest.mark.parametrize("scheduler_cls", [GreedyScheduler, RescqScheduler])
    def test_gate_on_an_isolated_qubit_names_it(self, scheduler_cls, gate):
        # 1x3: D x . -- qubit 0 keeps no adjacent ancilla tile.
        layout = GridLayout(1, 3, {0: (0, 0)})
        layout.disable((0, 1))
        circuit = Circuit(1, name="isolated")
        if gate == "h":
            circuit.h(0)
        else:
            circuit.rz(0, 0.3)
        with pytest.raises(RuntimeError,
                           match=r"^data qubit 0 has no ancilla neighbour; "):
            run_one(scheduler_cls(), circuit, layout=layout)
