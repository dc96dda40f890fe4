"""Tests for activity tracking, ancilla queues and MST maintenance."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.fabric import StarVariant, compress_layout, star_layout
from repro.fabric.flat import FlatGrid
from repro.kernel import ActivityTracker
from repro.scheduling import (
    AncillaMst,
    AsyncMstPipeline,
    IncrementalMst,
    QueueEntry,
    QueueSet,
    activity_array,
)
from repro.scheduling.mst import _kruskal


def build_activity_graph(layout, activity):
    """The networkx MST oracle's graph over ancilla tiles, w(u, v) =
    max(activity_u, activity_v).  Edges are inserted slot-ascending, then
    in Edge order: the order of ``FlatGrid.edge_u``/``edge_v``."""
    graph = nx.Graph()
    ancillas = layout.ancilla_positions()
    graph.add_nodes_from(ancillas)
    ancilla_set = set(ancillas)
    for position in ancillas:
        for neighbor in layout.neighbors(position):
            if neighbor in ancilla_set and position < neighbor:
                weight = max(activity.get(position, 0.0),
                             activity.get(neighbor, 0.0))
                graph.add_edge(position, neighbor, weight=weight)
    return graph


#: Slot order of the trackers below: slot 0 is (0, 0), slot 1 is (0, 1).
SLOTS = [(0, 0), (0, 1)]


def new_tracker(window):
    return ActivityTracker(SLOTS, window=window)


def activity(tracker, position, now):
    """One tile's activity, read from the slot-ordered snapshot array."""
    return tracker.snapshot(now)[SLOTS.index(position)]


def reference_snapshot(intervals, num_slots, window, now):
    """Per-slot activity from ``(slot, start, end)`` busy intervals, one
    interval at a time in plain Python."""
    values = []
    for slot in range(num_slots):
        if now <= 0:
            values.append(0.0)
            continue
        busy = 0
        for interval_slot, start, end in intervals:
            if interval_slot == slot:
                busy += max(0, min(end, now) - max(start, now - window))
        values.append(min(1.0, busy / min(window, now)))
    return values


class TestActivityTracker:
    def test_activity_zero_before_any_work(self):
        assert activity(new_tracker(100), (0, 0), now=50) == 0.0

    def test_activity_ratio(self):
        busy = new_tracker(100)
        busy.record_busy((0, 0), 0, 30)
        assert activity(busy, (0, 0), now=100) == pytest.approx(0.3)

    def test_old_intervals_fall_out_of_window(self):
        busy = new_tracker(10)
        busy.record_busy((0, 0), 0, 5)
        assert activity(busy, (0, 0), now=100) == 0.0

    def test_partial_overlap_with_window(self):
        busy = new_tracker(10)
        busy.record_busy((0, 0), 0, 15)
        # window is [10, 20): 5 busy cycles
        assert activity(busy, (0, 0), now=20) == pytest.approx(0.5)

    def test_activity_clamped_to_one(self):
        busy = new_tracker(10)
        busy.record_busy((0, 0), 0, 10)
        busy.record_busy((0, 0), 0, 10)
        assert activity(busy, (0, 0), now=10) == 1.0

    def test_early_window_uses_elapsed_time(self):
        busy = new_tracker(100)
        busy.record_busy((0, 0), 0, 5)
        assert activity(busy, (0, 0), now=10) == pytest.approx(0.5)

    def test_empty_interval_ignored(self):
        busy = new_tracker(10)
        busy.record_busy((0, 0), 5, 5)
        assert activity(busy, (0, 0), now=10) == 0.0

    def test_snapshot(self):
        """A slot-ordered float64 array, fresh on every call."""
        busy = new_tracker(10)
        busy.record_busy((0, 1), 0, 10)
        snap = busy.snapshot(now=10)
        assert snap.dtype == np.float64 and snap.shape == (len(SLOTS),)
        assert snap.tolist() == [0.0, 1.0]
        # Each call returns a fresh array (the MST pipeline keeps them).
        assert busy.snapshot(now=10) is not snap
        assert new_tracker(10).snapshot(now=0).tolist() == [0.0, 0.0]

    def test_unknown_position_rejected(self):
        with pytest.raises(KeyError):
            new_tracker(10).record_busy((5, 5), 0, 3)

    def test_snapshot_matches_per_interval_reference(self):
        """Bit-identical to the scalar ``min(1, busy / effective_window)`` at
        ``now == 0``, with ``now < window``, and with intervals ending or
        starting exactly on the window edge (``now - window == 30`` at
        ``now == 80``); ``now`` grows, so the lazy prune runs too."""
        window = 50
        intervals = [(0, 0, 3), (0, 5, 30), (1, 30, 31), (0, 29, 61),
                     (1, 2, 9), (1, 45, 80), (0, 70, 90), (1, 31, 33)]
        busy = new_tracker(window)
        for slot, start, end in intervals:
            busy.record_busy(SLOTS[slot], start, end)
        for now in (0, 7, 30, 49, 50, 51, 80, 81, 200):
            assert busy.snapshot(now).tolist() == reference_snapshot(
                intervals, len(SLOTS), window, now), now

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ActivityTracker(SLOTS, window=0)


def heads(queue, gate_index):
    """Does ``gate_index`` head ``queue``?"""
    return bool(queue.entries) and queue.entries[0].gate_index == gate_index


class TestQueues:
    def test_enqueue_and_head(self):
        queues = QueueSet([(0, 0), (0, 1)])
        entry = QueueEntry(5, "rz")
        queue = queues.enqueue((0, 0), entry)
        assert queue is queues[(0, 0)]
        assert queue.entries == [entry]
        assert heads(queue, 5)
        assert not heads(queues[(0, 1)], 5)

    def test_seniority_order_preserved(self):
        queues = QueueSet([(0, 0)])
        queues.enqueue((0, 0), QueueEntry(1, "rz"))
        queues.enqueue((0, 0), QueueEntry(2, "cnot"))
        assert [e.gate_index for e in queues[(0, 0)].entries] == [1, 2]
        assert heads(queues[(0, 0)], 1)
        assert not heads(queues[(0, 0)], 2)

    def test_remove_gate_everywhere(self):
        queues = QueueSet([(0, 0), (0, 1), (1, 0)])
        own = [queues.enqueue(pos, QueueEntry(7, "rz"))
               for pos in ((0, 0), (0, 1))]
        queues.enqueue((0, 1), QueueEntry(8, "cnot"))
        new_heads = queues.remove_gate_everywhere(7, own)
        assert len(queues[(0, 0)]) == 0
        # Other gates' entries stay, and the next one becomes the head; the
        # emptied queue names no head.
        assert heads(queues[(0, 1)], 8)
        assert new_heads == [8]

    def test_remove_gate_reports_only_head_changes(self):
        queues = QueueSet([(0, 0)])
        for index in (1, 2, 3):
            queues.enqueue((0, 0), QueueEntry(index, "rz"))
        queue = queues[(0, 0)]
        assert queue.remove_gate(2) is None      # not the head
        assert queue.remove_gate(1) == 3         # 3 heads the queue now
        assert queue.remove_gate(3) is None      # queue emptied
        assert len(queue) == 0
        with pytest.raises(ValueError, match="gate 3 is not in this queue"):
            queue.remove_gate(3)

    def test_each_enqueue_is_undone_by_one_removal(self):
        queues = QueueSet([(0, 0)])
        own = [queues.enqueue((0, 0), QueueEntry(4, "cnot"))
               for _ in range(2)]
        queues.enqueue((0, 0), QueueEntry(5, "h"))
        queue = queues[(0, 0)]
        assert queue.remove_gate(4) is None      # 4 still heads the queue
        assert heads(queue, 4)
        assert queues.remove_gate_everywhere(4, own[1:]) == [5]
        assert [entry.gate_index for entry in queue.entries] == [5]

    def test_pending_cost_is_memoised_and_invalidated(self):
        prices = {"rz": 0.1, "cnot": 2, "h": 3}
        queues = QueueSet([(0, 0)])
        queue = queues[(0, 0)]
        assert queue.pending_cost(prices) == 0.0
        kinds = ["rz", "cnot", "rz", "h", "rz"]
        for index, kind in enumerate(kinds):
            queues.enqueue((0, 0), QueueEntry(index, kind))
            # Each enqueue invalidates; the sum is the left-to-right one.
            expected = 0.0
            for entry in queue.entries:
                expected += prices[entry.gate_kind]
            assert queue.pending_cost(prices) == expected
        # A cached sum is returned until the entries change.
        assert queue.pending_cost({"rz": 9.0, "cnot": 9, "h": 9}) == expected
        queue.remove_gate(0)
        assert queue.pending_cost(prices) == 2 + 0.1 + 3 + 0.1


class TestMst:
    def layout(self):
        return star_layout(9, StarVariant.STAR)

    def test_activity_graph_covers_all_ancillas(self):
        layout = self.layout()
        graph = build_activity_graph(layout, {})
        assert graph.number_of_nodes() == layout.num_ancilla
        assert nx.is_connected(graph)

    def test_activity_array_is_slot_ordered(self):
        layout = self.layout()
        ancillas = layout.ancilla_positions()
        values = activity_array(layout, {ancillas[3]: 0.25, (0, 0): 0.5})
        assert values.dtype == np.float64 and len(values) == len(ancillas)
        assert values[3] == 0.25 and values.sum() == 0.25

    def test_activity_length_must_match_slots(self):
        with pytest.raises(ValueError, match="ancilla slots"):
            AncillaMst(self.layout(), np.zeros(3))

    def test_mst_paths_match_networkx_reference(self):
        """Every tree path equals the path on networkx's Kruskal MST, under
        zero activity and under four random activity maps."""
        layout = self.layout()
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(0)
        activities = [{}] + [{pos: float(rng.random()) for pos in ancillas}
                             for _ in range(4)]
        for activity in activities:
            assert_paths_match_reference(layout, activity)

    def test_path_query_endpoints(self):
        layout = self.layout()
        mst = AncillaMst(layout, np.zeros(layout.num_ancilla))
        start, goal = (0, 1), (4, 5)
        path = mst.path(start, goal)
        assert path[0] == start and path[-1] == goal
        # every hop is grid-adjacent
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_path_to_unknown_node_is_none(self):
        layout = self.layout()
        mst = AncillaMst(layout, np.zeros(layout.num_ancilla))
        assert mst.path((0, 1), (99, 99)) is None

    def test_mst_avoids_high_activity_edges(self):
        """The minimax property: the bottleneck activity along the MST path is
        never worse than the direct (shortest) route through a hot ancilla."""
        layout = self.layout()
        hot = (2, 1)
        mst = AncillaMst(layout, activity_array(layout, {hot: 1.0}))
        # (1, 1) and (3, 1) have a direct route through the hot tile and a
        # detour around it; the minimax tree must pick the detour.
        assert hot not in mst.path((1, 1), (3, 1))

    def test_async_pipeline_latency(self):
        layout = self.layout()
        idle = np.zeros(layout.num_ancilla)
        pipeline = AsyncMstPipeline(layout, period=25, latency=50)
        pipeline.tick(0, idle)
        assert pipeline.current is None
        pipeline.tick(25, idle)
        assert pipeline.current is None  # first result lands at t=50
        pipeline.tick(50, idle)
        assert pipeline.current is not None
        assert pipeline.current.snapshot_cycle == 0
        assert pipeline.computations_started >= 2

    def test_async_pipeline_uses_stale_snapshot(self):
        layout = self.layout()
        pipeline = AsyncMstPipeline(layout, period=10, latency=30)
        pipeline.tick(0, np.zeros(layout.num_ancilla))
        for cycle in range(10, 80, 10):
            pipeline.tick(cycle, np.full(layout.num_ancilla, 0.9))
        # The currently available tree corresponds to a snapshot taken
        # latency cycles before it became available.
        assert pipeline.current.snapshot_cycle <= 80 - 30

    def test_pipeline_snapshots_lazily(self):
        layout = self.layout()
        pipeline = AsyncMstPipeline(layout, period=10, latency=0)
        calls = []

        def snapshot():
            calls.append(1)
            return np.zeros(layout.num_ancilla)

        for cycle in (0, 3, 9, 10, 15):
            pipeline.tick(cycle, snapshot)
        assert len(calls) == pipeline.computations_started == 2

    def test_pipeline_rejects_bad_parameters(self):
        layout = self.layout()
        with pytest.raises(ValueError):
            AsyncMstPipeline(layout, period=0, latency=10)
        with pytest.raises(ValueError):
            AsyncMstPipeline(layout, period=10, latency=-1)

    def test_incremental_update_matches_recompute(self):
        layout = self.layout()
        incremental = IncrementalMst(layout,
                                     np.full(layout.num_ancilla, 0.1))
        edges = incremental.edges()[:20]
        rng = np.random.default_rng(0)
        for u, v in edges:
            incremental.update_edge(u, v, float(rng.random()))
            assert incremental.matches_full_recompute()

    def test_incremental_update_unknown_edge_rejected(self):
        layout = self.layout()
        incremental = IncrementalMst(layout)
        with pytest.raises(KeyError):
            incremental.update_edge((0, 1), (5, 5), 0.3)

    def test_incremental_edges_are_the_oracle_graph_edges(self):
        """``edges()`` lists the activity graph's edges in the oracle
        graph's iteration order, and the initial tree is the oracle's."""
        layout = self.layout()
        rng = np.random.default_rng(1)
        values = rng.random(layout.num_ancilla)
        incremental = IncrementalMst(layout, values)
        positions = layout.ancilla_positions()
        activity = dict(zip(positions, values.tolist()))
        reference = nx.minimum_spanning_tree(
            build_activity_graph(layout, activity), algorithm="kruskal")
        assert incremental.edges() == list(
            build_activity_graph(layout, {}).edges())
        assert {frozenset((positions[u], positions[v]))
                for u, neighbors in enumerate(incremental._tree)
                for v in neighbors} == set(map(frozenset, reference.edges()))

    def test_incremental_activity_length_must_match_slots(self):
        with pytest.raises(ValueError, match="ancilla slots"):
            IncrementalMst(self.layout(), np.zeros(3))


def assert_paths_match_reference(layout, activity):
    """Every ``AncillaMst.path`` equals the path on networkx's Kruskal
    spanning forest of the same activity map; ``None`` across components."""
    mst = AncillaMst(layout, activity_array(layout, activity))
    reference = nx.minimum_spanning_tree(
        build_activity_graph(layout, activity), algorithm="kruskal")
    paths = dict(nx.all_pairs_shortest_path(reference))
    ancillas = layout.ancilla_positions()
    for index, start in enumerate(ancillas):
        for goal in ancillas[index:]:
            assert mst.path(start, goal) == paths[start].get(goal), (
                start, goal)


def _walled_compressed_layout():
    """Compressed STAR fabric with one ancilla walled off from the rest, so
    the activity graph is disconnected and its MST is a forest."""
    layout, _ = compress_layout(star_layout(8, StarVariant.STAR), 0.5, seed=3)
    ancillas = layout.ancilla_positions()
    island = ancillas[len(ancillas) // 2]
    for neighbor in layout.ancilla_neighbors(island):
        layout.disable(neighbor)
    assert layout.is_ancilla(island) and not layout.ancilla_neighbors(island)
    return layout


_TIE_FABRICS = {"intact": star_layout(8, StarVariant.STAR),
                "compressed": _walled_compressed_layout()}


@seed(25)
@settings(max_examples=40, deadline=5_000, derandomize=True, database=None)
@given(data=st.data(), fabric=st.sampled_from(sorted(_TIE_FABRICS)))
def test_mst_paths_match_networkx_under_ties(data, fabric):
    """Real snapshots take few distinct ``k/100`` levels and are mostly
    zero, so most edge weights tie and Kruskal's result rests on the stable
    order of equal-weight edges."""
    layout = _TIE_FABRICS[fabric]
    levels = data.draw(st.lists(st.integers(1, 100), min_size=1, max_size=4),
                       "levels")
    values = data.draw(st.lists(
        st.one_of(st.just(0), st.just(0), st.sampled_from(levels)),
        min_size=layout.num_ancilla, max_size=layout.num_ancilla), "values")
    activity = {position: value / 100 for position, value
                in zip(layout.ancilla_positions(), values)}
    assert_paths_match_reference(layout, activity)


def oracle_forest_weight(layout, weights):
    """networkx's MST weight over the activity graph with per-edge
    ``weights`` (in ``FlatGrid`` edge order)."""
    graph = build_activity_graph(layout, {})
    for (u, v), weight in zip(list(graph.edges()), weights):
        graph.edges[u, v]["weight"] = weight
    return nx.minimum_spanning_tree(graph, algorithm="kruskal").size(
        weight="weight")


@seed(27)
@settings(max_examples=40, deadline=5_000, derandomize=True, database=None)
@given(data=st.data(), fabric=st.sampled_from(sorted(_TIE_FABRICS)),
       distinct=st.booleans())
def test_incremental_mst_tracks_full_recompute(data, fabric, distinct):
    """After a random ``update_edge`` sequence the incremental tree's weight
    equals networkx's and a fresh ``_kruskal``'s on the same edge weights.

    Tied runs draw weights from a few ``k/100`` levels, as real snapshots
    do.  Distinct runs first give every edge its own weight (in a random
    order), and every later update a value no other update uses; the MST is
    then unique, so the edge sets must match too."""
    layout = _TIE_FABRICS[fabric]
    incremental = IncrementalMst(layout)
    edges = incremental.edges()
    weights = [0.0] * len(edges)
    levels = data.draw(st.lists(st.integers(0, 100), min_size=1, max_size=4),
                       "levels")
    steps = itertools.count(1)

    def update(index, level):
        # A per-step offset below the level granularity keeps values unique.
        weights[index] = level / 100 + (next(steps) / 10**6 if distinct
                                        else 0.0)
        incremental.update_edge(*edges[index], weights[index])

    if distinct:
        for index in data.draw(st.permutations(range(len(edges))), "order"):
            update(index, data.draw(st.integers(0, 100)))
    for index, level in data.draw(st.lists(st.tuples(
            st.integers(0, len(edges) - 1), st.sampled_from(levels)),
            min_size=1, max_size=80), "updates"):
        update(index, level)

    flat = FlatGrid.for_layout(layout)
    fresh = _kruskal(flat, weights)
    pairs = zip(flat.edge_u.tolist(), flat.edge_v.tolist())
    total = incremental.total_weight()
    assert total == pytest.approx(sum(
        weight for (u, v), weight in zip(pairs, weights) if v in fresh[u]))
    assert total == pytest.approx(oracle_forest_weight(layout, weights))
    assert incremental.matches_full_recompute()
    if distinct:
        assert incremental._tree == [set(neighbors) for neighbors in fresh]


def test_product_runs_with_networkx_blocked():
    """networkx is a test-only dependency: with it unimportable, the
    package, the runner and the CLI import, a RESCQ job runs and the
    Section 5.4.1 incremental MST updates."""
    code = textwrap.dedent("""
        import sys
        sys.modules["networkx"] = None
        import repro, repro.cli, repro.sim.runner
        from repro.fabric import StarVariant, star_layout
        from repro.scheduling import IncrementalMst, RescqScheduler
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import default_layout
        from repro.workloads.scenarios import clifford_t_circuit

        circuit = clifford_t_circuit(n=4, depth=4, seed=1)
        result = RescqScheduler().run(
            circuit, default_layout(circuit),
            SimulationConfig(mst_period=10, mst_latency=10), seed=0)
        assert result.total_cycles > 0
        incremental = IncrementalMst(star_layout(9, StarVariant.STAR))
        for index, (u, v) in enumerate(incremental.edges()[:30]):
            incremental.update_edge(u, v, (index * 7 % 11) / 10)
        assert incremental.matches_full_recompute()
        print("ok")
    """)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "ok"
