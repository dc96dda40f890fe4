"""Routing-index equivalence: the layered search against the oracle BFS.

:class:`RoutingIndex` answers shortest-path queries in :class:`FlatGrid`
slots with one bit-parallel layered search per goal and an Edge-order
walk back from each start; mapped back to positions through
``FlatGrid.anc_positions`` its paths must equal the FIFO BFS of
:func:`routing_oracle.bfs_ancilla_path`.  These tests pin that from four
angles: the bit grid's geometry, raw shortest-path queries (one start and
start lists), the FlatGrid slot numbering, and whole scheduler runs over
random scenario-generator circuits.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from routing_oracle import bfs_ancilla_path

from repro import SimulationConfig
from repro.analysis.export import result_to_dict
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.fabric.flat import FlatGrid
from repro.lattice import RoutingIndex
from repro.scheduling import SCHEDULER_REGISTRY
from repro.sim.runner import default_layout
from repro.workloads import get_benchmark, qft_circuit
from repro.workloads.scenarios import clifford_rz_circuit


def index_path(index, start, goal):
    """``index.path`` between two positions, mapped back to positions."""
    flat = FlatGrid.for_layout(index.layout)
    path = index.path(flat.slot_of(start), flat.slot_of(goal))
    return None if path is None else [flat.anc_positions[slot]
                                      for slot in path]


def position_plans(layout, plans):
    """Slot plans with every tile mapped to its position, comparable with
    the reference enumeration's plans."""
    positions = FlatGrid.for_layout(layout).anc_positions

    def tile(slot):
        return None if slot is None else positions[slot]

    return [dataclasses.replace(
        plan, path=tuple(positions[slot] for slot in plan.path),
        rotation_ancilla_control=tile(plan.rotation_ancilla_control),
        rotation_ancilla_target=tile(plan.rotation_ancilla_target))
        for plan in plans]


# ---------------------------------------------------------------------------
# Fabrics: intact, compressed, walled (an unreachable island) and the
# non-square 6x8 grid every fig10 circuit runs on
# ---------------------------------------------------------------------------

def _walled_compressed_layout():
    """Compressed STAR fabric with one ancilla walled off from the rest, so
    some starts and goals are unreachable."""
    layout, _ = compress_layout(star_layout(8, StarVariant.STAR), 0.5, seed=3)
    ancillas = layout.ancilla_positions()
    island = ancillas[len(ancillas) // 2]
    for neighbor in layout.ancilla_neighbors(island):
        layout.disable(neighbor)
    assert layout.is_ancilla(island) and not layout.ancilla_neighbors(island)
    return layout, island


_WALLED, _ISLAND = _walled_compressed_layout()
_FABRICS = {
    "intact": star_layout(8, StarVariant.STAR),
    "compressed": compress_layout(star_layout(8, StarVariant.STAR), 0.5,
                                  seed=3)[0],
    "walled": _WALLED,
    "fig10": default_layout(qft_circuit(10)),
}


# ---------------------------------------------------------------------------
# FlatGrid: the slot numbering and bit grid of a layout revision
# ---------------------------------------------------------------------------

def bit_neighbors(flat, slot):
    """The ancilla slots one shift away from ``slot`` in the bit grid, in
    the flood's shift order: north, south, east, west."""
    slot_of_bit = {bit: other for other, bit in enumerate(flat.bits)}
    bit = 1 << flat.bits[slot]
    shifted = (bit >> flat.stride, bit << flat.stride, bit << 1, bit >> 1)
    return [slot_of_bit[hit.bit_length() - 1] for hit in
            (tiles & flat.ancilla_mask for tiles in shifted) if hit]


class TestFlatGrid:
    def test_neighbor_table_matches_layout_adjacency(self):
        """Per slot, the neighbour slots are the layout's ancilla
        neighbours, in the same (Edge) order, on an intact and on a
        compressed fabric."""
        intact = star_layout(6, StarVariant.STAR)
        for layout in (intact, compress_layout(intact, 0.5, seed=3)[0]):
            flat = FlatGrid.for_layout(layout)
            for slot, position in enumerate(flat.anc_positions):
                assert [flat.anc_positions[n]
                        for n in flat.neighbors[slot]] == \
                    layout.ancilla_neighbors(position)

    @pytest.mark.parametrize("fabric", sorted(_FABRICS))
    def test_bit_grid_adjacency_matches_neighbor_table(self, fabric):
        """The four shifts of a tile's bit reach exactly its ``neighbors``,
        in Edge order, on every border row and column too: the spare
        column stops east and west shifts from wrapping round a row."""
        layout = _FABRICS[fabric]
        flat = FlatGrid.for_layout(layout)
        assert flat.stride == layout.cols + 1
        assert len(set(flat.bits)) == flat.num_ancilla
        assert bin(flat.ancilla_mask).count("1") == flat.num_ancilla
        rows = {row for row, _ in flat.anc_positions}
        cols = {col for _, col in flat.anc_positions}
        # The border rows and columns hold ancillas, so the checks below
        # reach every wrap-round a wrong stride would cause.
        assert {0, layout.rows - 1} <= rows and {0, layout.cols - 1} <= cols
        for slot in range(flat.num_ancilla):
            assert bit_neighbors(flat, slot) == flat.neighbors[slot]

    def test_slot_position_round_trip(self):
        layout = star_layout(4, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert [flat.slot_of(position) for position in flat.anc_positions] \
            == list(range(flat.num_ancilla))
        for position in (layout.data_position(0), (-1, 0), (99, 99)):
            assert flat.slot_of(position) == -1

    def test_for_layout_is_cached_until_version_bump(self):
        layout = star_layout(4, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert FlatGrid.for_layout(layout) is flat
        victim = layout.ancilla_positions()[0]
        layout.disable(victim)
        rebuilt = FlatGrid.for_layout(layout)
        assert rebuilt is not flat
        assert rebuilt.slot_of(victim) == -1
        assert rebuilt.num_ancilla == flat.num_ancilla - 1

    def test_ancilla_slots_are_row_major(self):
        layout = star_layout(5, StarVariant.STAR)
        flat = FlatGrid.for_layout(layout)
        assert flat.anc_positions == sorted(flat.anc_positions)
        assert flat.anc_positions == layout.ancilla_positions()


# ---------------------------------------------------------------------------
# Shortest-path parity: the routing index vs the oracle BFS
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
                assert (index_path(index, start, goal)
                        == bfs_ancilla_path(layout, start, goal))

    def test_fig10_layout_all_pairs_from_one_search_per_goal(self):
        """On the non-square 6x8 fig10 grid, one search per goal from every
        ancilla at once (walks merging into earlier walks) memoises the
        oracle's path for every pair."""
        layout = _FABRICS["fig10"]
        index = RoutingIndex(layout)
        flat = index.flat
        slots = range(flat.num_ancilla)
        for goal in slots:
            index._route(slots, goal)
        assert index.bfs_runs == flat.num_ancilla
        positions = flat.anc_positions
        for (start, goal), path in index._paths.items():
            expected = bfs_ancilla_path(layout, positions[start],
                                        positions[goal])
            assert [positions[tile] for tile in path] == expected
        assert len(index._paths) == flat.num_ancilla ** 2
        assert index.bfs_runs == flat.num_ancilla

    def test_non_ancilla_endpoints_return_none(self, layout):
        """A data tile has no slot (-1), and a -1 endpoint has no path."""
        index = RoutingIndex(layout)
        data = layout.data_position(0)
        ancilla = layout.ancilla_positions()[0]
        assert index.flat.slot_of(data) == -1
        assert index.path(-1, 0) is None and index.path(0, -1) is None
        assert index_path(index, data, ancilla) is None
        assert bfs_ancilla_path(layout, data, ancilla) is None

    def test_no_search_state_survives_a_query(self, layout):
        index = RoutingIndex(layout)
        last = index.flat.num_ancilla - 1
        for start in range(3):
            index.path(start, last)
        assert index.bfs_runs == 3
        index._route(range(3, 6), last)
        assert index.bfs_runs == 4
        # Only the memoised paths remain: no levels, walk memo or other
        # per-goal state.
        assert set(vars(index)) == {
            "layout", "_version", "flat", "_paths", "_attachments", "_plans",
            "queries", "plan_cache_hits", "bfs_runs", "bfs_tiles",
            "search_ns"}
        assert list(index._paths) == [(start, last) for start in range(6)]
        assert index.search_ns > 0

    def test_search_stops_at_its_last_start(self, layout):
        """A search from a goal whose start is a neighbour stops at level
        1: it reaches the goal and its ancilla neighbours, no more."""
        index = RoutingIndex(layout)
        start = layout.ancilla_positions()[0]
        goal = layout.ancilla_neighbors(start)[0]
        assert index_path(index, start, goal) == [start, goal]
        assert index.bfs_runs == 1
        assert index.bfs_tiles == 1 + len(layout.ancilla_neighbors(goal))

    def test_survives_layout_mutation(self, layout):
        index = RoutingIndex(layout)
        ancillas = layout.ancilla_positions()
        start, goal = ancillas[0], ancillas[-1]
        before = index_path(index, start, goal)
        assert before == bfs_ancilla_path(layout, start, goal)
        victim = before[len(before) // 2]
        layout.disable(victim)
        after = index_path(index, start, goal)
        assert after == bfs_ancilla_path(layout, start, goal)
        assert victim not in (after or ())
        # The path memoised before the mutation was dropped, not reused.
        assert index.bfs_runs == 2
        flat = FlatGrid.for_layout(layout)
        assert list(index._paths) == [(flat.slot_of(start),
                                       flat.slot_of(goal))]


@seed(20241)
@settings(max_examples=80, deadline=2000)
@given(data=st.data(), fabric=st.sampled_from(["intact", "walled"]))
def test_start_list_paths_match_reference(data, fabric):
    """One search from a goal memoises the oracle path from every start of
    a list: duplicates, the goal itself, data tiles, off-grid tiles (all
    ``-1``), the walled island and other unreachable starts included."""
    layout = _FABRICS[fabric]
    ancillas = st.sampled_from(layout.ancilla_positions())
    tiles = st.tuples(st.integers(-1, layout.rows),
                      st.integers(-1, layout.cols))
    goal = data.draw(st.one_of(ancillas, tiles, st.just(_ISLAND)), "goal")
    starts = data.draw(st.lists(
        st.one_of(ancillas, ancillas, tiles, st.just(goal),
                  st.just(_ISLAND)),
        min_size=1, max_size=12), "starts")
    starts.append(starts[0])
    index = RoutingIndex(layout)
    slot_of = index.flat.slot_of
    index._route([slot_of(start) for start in starts], slot_of(goal))
    assert index.bfs_runs <= 1
    for start in starts:
        assert index_path(index, start, goal) == \
            bfs_ancilla_path(layout, start, goal)
    # Every start was answered by that one search.
    assert index.bfs_runs <= 1


# ---------------------------------------------------------------------------
# Whole-run equivalence on scenario-generator circuits (hypothesis)
# ---------------------------------------------------------------------------

def _reference_path(index, start, goal):
    """The oracle BFS between two slots, in slots."""
    flat = index.flat
    path = bfs_ancilla_path(index.layout, flat.anc_positions[start],
                            flat.anc_positions[goal])
    return None if path is None else [flat.slot_of(tile) for tile in path]


def _run(circuit, seed: int, reference: bool = False,
         scheduler_name: str = "rescq", use_mst_routing: bool = True):
    """One run (RESCQ by default); ``reference`` routes every path query
    through the oracle BFS instead of the index's layered search."""
    config = SimulationConfig(mst_period=10, mst_latency=20,
                              use_mst_routing=use_mst_routing)
    layout = default_layout(circuit)
    scheduler = SCHEDULER_REGISTRY.create(scheduler_name)
    routing = (mock.patch.object(RoutingIndex, "path", _reference_path)
               if reference else contextlib.nullcontext())
    with routing:
        return result_to_dict(scheduler.run(circuit, layout, config, seed=seed))


@seed(20242)
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


@pytest.mark.parametrize("scheduler_name", ["greedy", "autobraid", "rescq"])
def test_backends_identical_on_qft_n18(scheduler_name):
    """Every CNOT path of these runs comes from plan enumeration, and
    qft_n18's all-pairs CNOTs over its 18-qubit fabric meet shortest-path
    ties that the small scenario circuits above do not: a walk that breaks
    a tie in another Edge order changes these results."""
    circuit = get_benchmark("qft_n18").build()
    runs = [_run(circuit, 1, reference, scheduler_name, use_mst_routing=False)
            for reference in (False, True)]
    assert runs[0] == runs[1]
