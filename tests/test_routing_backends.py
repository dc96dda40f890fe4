"""Routing-index equivalence: the flat-index BFS against the reference BFS.

:class:`RoutingIndex` answers shortest-path queries with a FIFO BFS over the
struct-of-arrays :class:`FlatGrid`; it must agree byte-for-byte with
:func:`bfs_ancilla_path`.  These tests pin that from three angles — raw
shortest-path queries, the FlatGrid array representation, and whole
scheduler runs over random scenario-generator circuits.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import SimulationConfig
from repro.analysis.export import result_to_dict
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.fabric.flat import FlatGrid
from repro.lattice import RoutingIndex, bfs_ancilla_path
from repro.scheduling import SCHEDULER_REGISTRY
from repro.sim.runner import default_layout
from repro.workloads.scenarios import clifford_rz_circuit


# ---------------------------------------------------------------------------
# FlatGrid: the struct-of-arrays layout projection
# ---------------------------------------------------------------------------

class TestFlatGrid:
    def test_neighbor_table_matches_layout_adjacency(self):
        layout = star_layout(6, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        for position in layout.ancilla_positions():
            index = flat.flat_index(position)
            neighbors = {flat._positions[n]
                         for n in flat.route_adjacency[index]}
            expected = set(layout.ancilla_neighbors(position))
            assert neighbors == expected

    def test_flat_index_position_round_trip(self):
        layout = star_layout(4, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        for position in layout.ancilla_positions():
            assert flat.position(flat.flat_index(position)) == position

    def test_for_layout_is_cached_until_version_bump(self):
        layout = star_layout(4, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert FlatGrid.for_layout(layout) is flat
        victim = layout.ancilla_positions()[0]
        layout.disable(victim)
        rebuilt = FlatGrid.for_layout(layout)
        assert rebuilt is not flat
        assert rebuilt.flat_index(victim) == -1 or \
            rebuilt.anc_slot[rebuilt.flat_index(victim)] == -1

    def test_ancilla_slots_are_row_major(self):
        layout = star_layout(5, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert flat.anc_positions == sorted(flat.anc_positions)
        assert flat.anc_positions == layout.ancilla_positions()


# ---------------------------------------------------------------------------
# Shortest-path parity: the routing index vs the reference BFS
# ---------------------------------------------------------------------------

def _mutated_star_layout():
    """STAR fabric with a handful of ancillas disabled (grid compression)."""
    layout = star_layout(8, StarVariant.STAR)
    ancillas = layout.ancilla_positions()
    for index in np.random.default_rng(11).choice(len(ancillas), size=4,
                                                  replace=False):
        layout.disable(ancillas[int(index)])
    return layout


class TestShortestPathParity:
    @pytest.fixture()
    def layout(self):
        return star_layout(8, StarVariant.STAR)

    @pytest.fixture(params=["star", "mutated"])
    def any_layout(self, request):
        if request.param == "mutated":
            return _mutated_star_layout()
        return star_layout(8, StarVariant.STAR)

    def test_all_pairs_match_reference(self, any_layout):
        layout = any_layout
        index = RoutingIndex(layout)
        ancillas = layout.ancilla_positions()
        for start in ancillas:
            for goal in ancillas:
                assert (index.path(start, goal)
                        == bfs_ancilla_path(layout, start, goal))

    def test_non_ancilla_endpoints_return_none(self, layout):
        index = RoutingIndex(layout)
        data = layout.data_position(0)
        ancilla = layout.ancilla_positions()[0]
        assert index.path(data, ancilla) is None
        assert bfs_ancilla_path(layout, data, ancilla) is None

    def test_no_search_state_survives_a_query(self, layout):
        index = RoutingIndex(layout)
        ancillas = layout.ancilla_positions()
        for start in ancillas[:3]:
            index.path(start, ancillas[-1])
        assert index.bfs_runs == 3
        # Only the memoised paths remain: no parent lists, no per-source
        # state.
        assert set(vars(index)) == {
            "layout", "_version", "_paths", "_attachments", "_plans",
            "queries", "plan_cache_hits", "bfs_runs", "bfs_tiles"}
        assert list(index._paths) == [(start, ancillas[-1])
                                      for start in ancillas[:3]]

    def test_search_stops_at_its_last_goal(self, layout):
        index = RoutingIndex(layout)
        start = layout.ancilla_positions()[0]
        neighbor = layout.ancilla_neighbors(start)[0]
        assert index.path(start, neighbor) == [start, neighbor]
        assert index.bfs_runs == 1
        assert index.bfs_tiles < FlatGrid.for_layout(layout).num_ancilla

    def test_survives_layout_mutation(self, layout):
        index = RoutingIndex(layout)
        ancillas = layout.ancilla_positions()
        start, goal = ancillas[0], ancillas[-1]
        before = index.path(start, goal)
        assert before == bfs_ancilla_path(layout, start, goal)
        victim = before[len(before) // 2]
        layout.disable(victim)
        after = index.path(start, goal)
        assert after == bfs_ancilla_path(layout, start, goal)
        assert victim not in (after or ())
        # The path memoised before the mutation was dropped, not reused.
        assert index.bfs_runs == 2
        assert list(index._paths) == [(start, goal)]


def _walled_compressed_layout():
    """Compressed STAR fabric with one ancilla walled off from the rest, so
    some goals are unreachable."""
    layout, _ = compress_layout(star_layout(8, StarVariant.STAR), 0.5, seed=3)
    ancillas = layout.ancilla_positions()
    island = ancillas[len(ancillas) // 2]
    for neighbor in layout.ancilla_neighbors(island):
        layout.disable(neighbor)
    assert layout.is_ancilla(island) and not layout.ancilla_neighbors(island)
    return layout, island


_COMPRESSED, _ISLAND = _walled_compressed_layout()
_FABRICS = {"intact": star_layout(8, StarVariant.STAR),
            "compressed": _COMPRESSED}


@seed(20241)
@settings(max_examples=80, deadline=2000)
@given(data=st.data(), fabric=st.sampled_from(sorted(_FABRICS)))
def test_goal_list_paths_match_reference(data, fabric):
    """One bounded search to a goal list memoises the reference path for
    every goal: duplicates, the start itself, data tiles, off-grid and
    unreachable positions included."""
    layout = _FABRICS[fabric]
    ancillas = st.sampled_from(layout.ancilla_positions())
    tiles = st.tuples(st.integers(-1, layout.rows),
                      st.integers(-1, layout.cols))
    start = data.draw(st.one_of(ancillas, tiles, st.just(_ISLAND)), "start")
    goals = data.draw(st.lists(
        st.one_of(ancillas, tiles, st.just(start), st.just(_ISLAND)),
        min_size=1, max_size=8), "goals")
    goals.append(goals[0])
    index = RoutingIndex(layout)
    index._route(start, goals)
    assert index.bfs_runs <= 1
    for goal in goals:
        assert index.path(start, goal) == bfs_ancilla_path(layout, start, goal)
    # Every goal was answered by that one search.
    assert index.bfs_runs <= 1


# ---------------------------------------------------------------------------
# Whole-run equivalence on scenario-generator circuits (hypothesis)
# ---------------------------------------------------------------------------

def _reference_path(index, start, goal):
    return bfs_ancilla_path(index.layout, start, goal)


def _run(circuit, seed: int, reference: bool = False):
    """One RESCQ run; ``reference`` routes every path query through the
    reference BFS instead of the index's flat BFS."""
    config = SimulationConfig(mst_period=10, mst_latency=20)
    layout = default_layout(circuit)
    scheduler = SCHEDULER_REGISTRY.create("rescq")
    routing = (mock.patch.object(RoutingIndex, "path", _reference_path)
               if reference else contextlib.nullcontext())
    with routing:
        return result_to_dict(scheduler.run(circuit, layout, config, seed=seed))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 10), depth=st.integers(2, 5),
       circuit_seed=st.integers(0, 1000), run_seed=st.integers(0, 3))
def test_backends_produce_identical_traces(n, depth, circuit_seed, run_seed):
    """Index routing and reference routing yield byte-identical results."""
    circuit = clifford_rz_circuit(n, depth=depth, seed=circuit_seed)
    assert _run(circuit, run_seed) == _run(circuit, run_seed, reference=True)


def test_backends_identical_on_dense_scenario():
    """Deterministic (non-hypothesis) index-vs-reference check, denser case."""
    circuit = clifford_rz_circuit(12, depth=6, cx_fraction=0.5, seed=21)
    assert _run(circuit, 1) == _run(circuit, 1, reference=True)
