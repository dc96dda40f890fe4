"""Unit tests for the gate dependency graph and its release interface."""

import pytest

from repro.circuits import Circuit, GateDependencyGraph


def build_chain():
    # h(0) -> rz(0) -> cnot(0,1) ; rz(1) -> cnot(0,1) ; cnot(0,1) -> rz(1) #2
    circuit = Circuit(2)
    circuit.h(0)          # 0
    circuit.rz(0, 0.3)    # 1
    circuit.rz(1, 0.5)    # 2
    circuit.cnot(0, 1)    # 3
    circuit.rz(1, 0.7)    # 4
    return circuit


class TestStructure:
    def test_nodes_exclude_free_gates(self):
        circuit = Circuit(2).x(0).h(0).cnot(0, 1)
        dag = GateDependencyGraph(circuit)
        assert 0 not in dag.nodes  # x is a frame update
        assert set(dag.nodes) == {1, 2}

    def test_successors_follow_qubit_order(self):
        dag = GateDependencyGraph(build_chain())
        assert dag.successors(0) == (1,)
        assert dag.successors(1) == (3,)
        assert dag.successors(2) == (3,)
        assert dag.successors(3) == (4,)

    def test_critical_path_lengths(self):
        dag = GateDependencyGraph(build_chain())
        assert dag.critical_path_length(0) == 4   # h, rz, cnot, rz
        assert dag.critical_path_length(2) == 3
        assert dag.critical_path_length(4) == 1


class TestRelease:
    def test_initial_ready_set(self):
        dag = GateDependencyGraph(build_chain())
        assert set(dag.ready) == {0, 2}

    def test_completion_releases_successors(self):
        dag = GateDependencyGraph(build_chain())
        released = dag.complete(0)
        assert released == [1]
        assert 1 in dag.ready

    def test_join_requires_both_predecessors(self):
        dag = GateDependencyGraph(build_chain())
        dag.complete(0)
        dag.complete(1)
        assert 3 not in dag.ready
        released = dag.complete(2)
        assert released == [3]

    def test_double_completion_rejected(self):
        dag = GateDependencyGraph(build_chain())
        dag.complete(0)
        with pytest.raises(ValueError):
            dag.complete(0)

    def test_premature_completion_rejected(self):
        dag = GateDependencyGraph(build_chain())
        with pytest.raises(ValueError):
            dag.complete(3)

    def test_unknown_gate_rejected(self):
        dag = GateDependencyGraph(build_chain())
        with pytest.raises(KeyError):
            dag.complete(99)

    def test_all_completed_after_full_run(self):
        dag = GateDependencyGraph(build_chain())
        for index in [0, 1, 2, 3, 4]:
            dag.complete(index)
        assert dag.all_completed
        assert dag.num_pending == 0

    def test_by_priority_prefers_critical_path(self):
        dag = GateDependencyGraph(build_chain())
        # Gate 0 has the longer remaining chain than gate 2.
        assert dag.by_priority(dag.ready) == [0, 2]
        assert dag.by_priority([2, 0]) == [0, 2]
