"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, default_layout
from repro.circuits import (
    Circuit,
    Gate,
    GateDependencyGraph,
    GateType,
    from_artifact_format,
    to_artifact_format,
    transpile_to_clifford_rz,
)
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.fabric.compression import ancilla_subgraph_connected
from repro.fabric.flat import FlatGrid
from repro.kernel import ActivityTracker
from repro.rus import InjectionModel, PreparationModel, expected_injections
from repro.scheduling import AncillaMst, RescqScheduler
from repro.scheduling.static import AutoBraidScheduler


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def random_circuits(min_qubits=2, max_qubits=6, max_gates=25):
    """Strategy producing random Clifford+Rz circuits."""

    @st.composite
    def build(draw):
        num_qubits = draw(st.integers(min_qubits, max_qubits))
        num_gates = draw(st.integers(1, max_gates))
        circuit = Circuit(num_qubits, name="random")
        for _ in range(num_gates):
            kind = draw(st.sampled_from(["rz", "h", "x", "cnot"]))
            if kind == "cnot" and num_qubits >= 2:
                control = draw(st.integers(0, num_qubits - 1))
                target = draw(st.integers(0, num_qubits - 1).filter(
                    lambda t: t != control))
                circuit.cnot(control, target)
            elif kind == "rz":
                qubit = draw(st.integers(0, num_qubits - 1))
                angle = draw(st.floats(0.05, 3.0, allow_nan=False))
                circuit.rz(qubit, angle)
            elif kind == "h":
                circuit.h(draw(st.integers(0, num_qubits - 1)))
            else:
                circuit.x(draw(st.integers(0, num_qubits - 1)))
        return circuit

    return build()


# ---------------------------------------------------------------------------
# Circuit-level properties
# ---------------------------------------------------------------------------

class TestCircuitProperties:
    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_artifact_format_round_trip(self, circuit):
        text = to_artifact_format(circuit)
        parsed = from_artifact_format(text, num_qubits=circuit.num_qubits)
        assert len(parsed) == len(circuit)
        for a, b in zip(parsed, circuit):
            assert a.gate_type is b.gate_type
            assert a.qubits == b.qubits

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_depth_never_exceeds_gate_count(self, circuit):
        assert 0 <= circuit.depth() <= len(circuit)

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_layers_partition_the_schedulable_gates(self, circuit):
        layers = circuit.layers()
        flattened = [index for layer in layers for index in layer]
        assert sorted(flattened) == list(range(len(circuit)))
        # Within a layer no two gates share a qubit.
        for layer in layers:
            seen = set()
            for index in layer:
                qubits = set(circuit[index].qubits)
                assert not (qubits & seen)
                seen |= qubits

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_dag_release_order_is_a_valid_topological_execution(self, circuit):
        dag = GateDependencyGraph(circuit)
        executed = []
        while not dag.all_completed:
            ready = dag.by_priority(dag.ready)
            assert ready, "DAG starved before completing all gates"
            gate = ready[0]
            executed.append(gate)
            dag.complete(gate)
        assert len(executed) == len(dag)
        position = {gate: i for i, gate in enumerate(executed)}
        for gate in dag.nodes:
            for successor in dag.successors(gate):
                assert position[gate] < position[successor]


# ---------------------------------------------------------------------------
# Transpilation properties
# ---------------------------------------------------------------------------

_HIGH_LEVEL = [GateType.RX, GateType.RY, GateType.RZZ, GateType.CZ,
               GateType.SWAP, GateType.CCX]


class TestTranspileProperties:
    @given(st.lists(st.tuples(st.sampled_from(_HIGH_LEVEL),
                              st.floats(0.1, 3.0)), min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_transpiled_circuits_contain_only_basis_gates(self, spec):
        circuit = Circuit(4)
        for gtype, angle in spec:
            if gtype is GateType.CCX:
                circuit.append(Gate(gtype, (0, 1, 2)))
            elif gtype.num_qubits == 2:
                circuit.append(Gate(gtype, (0, 1),
                                    angle=angle if gtype is GateType.RZZ else None))
            else:
                circuit.append(Gate(gtype, (0,), angle=angle))
        lowered = transpile_to_clifford_rz(circuit)
        allowed = {GateType.RZ, GateType.H, GateType.X, GateType.CNOT}
        assert all(gate.gate_type in allowed for gate in lowered)


# ---------------------------------------------------------------------------
# Stochastic model properties
# ---------------------------------------------------------------------------

class TestRusProperties:
    @given(st.sampled_from([3, 5, 7, 9, 11, 13]),
           st.floats(1e-5, 5e-3))
    @settings(max_examples=60, deadline=None)
    def test_preparation_probabilities_and_expectations_are_sane(self, d, p):
        model = PreparationModel(d, p)
        assert 0.0 < model.attempt_success_probability <= 1.0
        assert model.expected_attempts() >= 1.0
        assert model.expected_cycles() > 0.0
        assert model.expected_cycles_parallel(4) <= model.expected_cycles() + 1e-9

    @given(st.floats(0.01, 3.1))
    @settings(max_examples=60, deadline=None)
    def test_expected_injections_never_exceed_two(self, theta):
        assert 0.0 <= expected_injections(theta) <= 2.0 + 1e-9

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_injection_sampling_is_positive_and_bounded(self, seed):
        model = InjectionModel()
        rng = np.random.default_rng(seed)
        count = model.sample_injection_count(rng, theta=0.37)
        assert 1 <= count <= model.max_doublings


# ---------------------------------------------------------------------------
# Fabric properties
# ---------------------------------------------------------------------------

class TestFabricProperties:
    @given(st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_star_layout_invariants(self, num_qubits):
        layout = star_layout(num_qubits, StarVariant.STAR)
        assert layout.num_data_qubits == num_qubits
        # Non-square counts add whole filler blocks of ancilla.
        assert layout.num_ancilla >= 3 * num_qubits
        assert layout.every_data_qubit_has_ancilla_neighbor()
        assert ancilla_subgraph_connected(layout)

    @given(st.integers(4, 20), st.floats(0.0, 1.0), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_compression_preserves_invariants(self, num_qubits, fraction, seed):
        layout = star_layout(num_qubits, StarVariant.STAR)
        compressed, report = compress_layout(layout, fraction, seed=seed)
        assert ancilla_subgraph_connected(compressed)
        assert compressed.every_data_qubit_has_ancilla_neighbor()
        assert compressed.num_ancilla <= layout.num_ancilla
        assert 0.0 <= report.achieved_fraction <= 1.0

    @given(st.integers(4, 16), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_mst_paths_stay_on_ancillas(self, num_qubits, seed):
        layout = star_layout(num_qubits, StarVariant.STAR)
        rng = np.random.default_rng(seed)
        mst = AncillaMst(layout, rng.random(layout.num_ancilla))
        start = int(rng.integers(layout.num_ancilla))
        goal = int(rng.integers(layout.num_ancilla))
        path = mst.path(start, goal)
        assert path is not None and path[0] == start and path[-1] == goal
        flat = FlatGrid.for_layout(layout)
        assert all(layout.is_ancilla(flat.anc_positions[slot]) for slot in path)
        # Consecutive tiles are grid neighbours.
        assert all(b in flat.neighbors[a] for a, b in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# Activity tracker properties
# ---------------------------------------------------------------------------

class TestActivityProperties:
    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 20)),
                    min_size=0, max_size=30),
           st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_activity_always_within_unit_interval(self, intervals, window):
        tracker = ActivityTracker(1, window=window)
        now = 0
        for start, length in intervals:
            tracker.record((0,), start, start + length)
            now = max(now, start + length)
        activity = tracker.snapshot(now)[0]
        assert 0.0 <= activity <= 1.0
        # Brute force: count every (interval, cycle) pair in the window.
        busy = sum(1 for start, length in intervals
                   for cycle in range(start, start + length)
                   if now - window <= cycle < now)
        expected = min(1.0, busy / min(window, now)) if now > 0 else 0.0
        assert activity == expected


# ---------------------------------------------------------------------------
# Scheduler end-to-end properties
# ---------------------------------------------------------------------------

class TestSchedulerProperties:
    @given(random_circuits(max_qubits=5, max_gates=15),
           st.integers(0, 1000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rescq_executes_every_gate_and_respects_dependencies(self, circuit,
                                                                 seed):
        config = SimulationConfig(mst_period=10, mst_latency=10)
        layout = default_layout(circuit)
        result = RescqScheduler().run(circuit, layout, config, seed=seed)
        filtered = circuit.without_free_gates()
        assert result.num_gates == len(filtered)
        end_by_gate = {t.gate_index: t.end_cycle for t in result.traces}
        scheduled_by_gate = {t.gate_index: t.scheduled_cycle
                             for t in result.traces}
        dag = GateDependencyGraph(filtered)
        for gate in dag.nodes:
            for successor in dag.successors(gate):
                # A successor is only *released* once its predecessor retired
                # (its preparation may start earlier - that is the lookahead
                # optimisation) and must retire strictly later.
                assert scheduled_by_gate[successor] >= end_by_gate[gate]
                assert end_by_gate[successor] > end_by_gate[gate]

    @given(random_circuits(max_qubits=4, max_gates=12), st.integers(0, 100))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_clifford_only_circuits_are_deterministic(self, circuit, seed):
        """With every rotation snapped to a Clifford angle there is no
        stochastic protocol left, so both schedulers must be seed-independent
        and report zero injections."""
        clifford = Circuit(circuit.num_qubits, name="clifford")
        for gate in circuit:
            if gate.gate_type is GateType.RZ:
                clifford.rz(gate.qubits[0], math.pi / 2)
            else:
                clifford.append(gate)
        config = SimulationConfig(mst_period=10, mst_latency=10)
        layout = default_layout(clifford)
        for scheduler in (RescqScheduler(), AutoBraidScheduler()):
            first = scheduler.run(clifford, layout, config, seed=seed)
            second = scheduler.run(clifford, layout, config, seed=seed + 1)
            assert first.total_cycles == second.total_cycles
            assert all(trace.injections == 0 for trace in first.traces)
