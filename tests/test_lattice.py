"""Tests for lattice-surgery costs, orientation tracking and routing."""

from repro.fabric import Edge, StarVariant, star_layout
from repro.lattice import (
    DEFAULT_COSTS,
    OrientationTracker,
    RoutePlan,
    bfs_ancilla_path,
    enumerate_cnot_plans,
)
from repro.scheduling import GreedyScheduler
from repro.sim import SimulationConfig


def greedy_plan(layout, tracker, control, target):
    """The greedy baseline's pick: fewest cycles, then shortest path."""
    plans = enumerate_cnot_plans(layout, tracker, control, target)
    return GreedyScheduler()._choose_plan(plans, {}, SimulationConfig())


class TestCosts:
    def test_defaults_match_paper(self):
        assert DEFAULT_COSTS.cnot_cycles == 2
        assert DEFAULT_COSTS.edge_rotation_cycles == 3
        assert DEFAULT_COSTS.zz_injection_cycles == 1
        assert DEFAULT_COSTS.cnot_injection_cycles == 2


class TestOrientation:
    def test_default_orientation(self):
        tracker = OrientationTracker(2)
        assert tracker.edge_pauli(0, Edge.NORTH) == "Z"
        assert tracker.edge_pauli(0, Edge.EAST) == "X"

    def test_rotation_swaps_edges(self):
        tracker = OrientationTracker(1)
        tracker.rotate(0)
        assert tracker.edge_pauli(0, Edge.NORTH) == "X"
        assert tracker.edge_pauli(0, Edge.EAST) == "Z"
        tracker.rotate(0)
        assert tracker.edge_pauli(0, Edge.NORTH) == "Z"

    def test_edges_exposing(self):
        tracker = OrientationTracker(1)
        for pauli, edges in (("Z", {Edge.NORTH, Edge.SOUTH}),
                             ("X", {Edge.EAST, Edge.WEST})):
            assert {edge for edge in Edge
                    if tracker.exposes(0, edge, pauli)} == edges


class TestBfsPath:
    def test_path_between_adjacent_ancillas(self):
        layout = star_layout(4, StarVariant.STAR)
        path = bfs_ancilla_path(layout, (0, 1), (1, 1))
        assert path == [(0, 1), (1, 1)]

    def test_path_avoids_blocked_tiles(self):
        layout = star_layout(9, StarVariant.STAR)
        free_path = bfs_ancilla_path(layout, (1, 1), (3, 1))
        blocked = bfs_ancilla_path(layout, (1, 1), (3, 1), blocked={(2, 1)})
        assert free_path is not None and blocked is not None
        assert (2, 1) not in blocked
        assert len(blocked) >= len(free_path)

    def test_no_path_returns_none(self):
        layout = star_layout(4, StarVariant.STAR)
        blocked = {(1, 0), (1, 1), (0, 1), (1, 2), (1, 3)}
        assert bfs_ancilla_path(layout, (0, 1), (3, 3), blocked=blocked) is None

    def test_endpoints_must_be_ancilla(self):
        layout = star_layout(4, StarVariant.STAR)
        assert bfs_ancilla_path(layout, (0, 0), (0, 1)) is None

    def test_same_start_and_goal(self):
        layout = star_layout(4, StarVariant.STAR)
        assert bfs_ancilla_path(layout, (0, 1), (0, 1)) == [(0, 1)]


class TestCnotPlans:
    def test_plans_exist_for_every_pair(self):
        layout = star_layout(9, StarVariant.STAR)
        tracker = OrientationTracker(9)
        for control in range(9):
            for target in range(9):
                if control == target:
                    continue
                plans = enumerate_cnot_plans(layout, tracker, control, target)
                assert plans, (control, target)

    def test_rotation_free_plan_found_for_aligned_pair(self):
        layout = star_layout(9, StarVariant.STAR)
        tracker = OrientationTracker(9)
        # qubits 0 and 3 are vertically adjacent blocks: control Z edge faces
        # south, target X edge faces east/west — a 2-cycle plan must exist.
        plan = greedy_plan(layout, tracker, 3, 4)
        assert plan is not None
        assert plan.duration() >= 2

    def test_duration_model(self):
        plan = RoutePlan(0, 1, ((0, 1),), control_rotation=True,
                         target_rotation=True,
                         rotation_ancilla_control=(0, 1),
                         rotation_ancilla_target=(0, 1))
        # Shared rotation ancilla: rotations serialise -> 3 + 3 + 2 = 8.
        assert plan.duration() == 8
        parallel = RoutePlan(0, 1, ((0, 1), (1, 1)), control_rotation=True,
                             target_rotation=True,
                             rotation_ancilla_control=(0, 1),
                             rotation_ancilla_target=(1, 1))
        assert parallel.duration() == 5

    def test_plan_without_rotations_takes_two_cycles(self):
        plan = RoutePlan(0, 1, ((0, 1), (1, 1)))
        assert plan.duration() == 2
        assert plan.num_rotations == 0

    def test_ancillas_used_includes_rotation_helpers(self):
        plan = RoutePlan(0, 1, ((0, 1),), control_rotation=True,
                         rotation_ancilla_control=(1, 0))
        assert set(plan.ancillas_used) == {(0, 1), (1, 0)}

    def test_blocked_attachments_are_skipped(self):
        layout = star_layout(4, StarVariant.STAR)
        tracker = OrientationTracker(4)
        all_plans = enumerate_cnot_plans(layout, tracker, 0, 3)
        attachments = {plan.path[0] for plan in all_plans}
        blocked_tile = next(iter(attachments))
        remaining = enumerate_cnot_plans(layout, tracker, 0, 3,
                                         blocked={blocked_tile})
        assert all(blocked_tile not in plan.path for plan in remaining)

    def test_shortest_plan_prefers_no_rotation(self):
        layout = star_layout(9, StarVariant.STAR)
        tracker = OrientationTracker(9)
        plan = greedy_plan(layout, tracker, 0, 1)
        best_possible = min(p.duration() for p in
                            enumerate_cnot_plans(layout, tracker, 0, 1))
        assert plan.duration() == best_possible
