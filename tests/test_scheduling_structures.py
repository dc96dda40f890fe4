"""Tests for activity tracking, ancilla queues and MST maintenance."""

import networkx as nx
import numpy as np
import pytest

from repro.fabric import StarVariant, star_layout
from repro.kernel import ActivityTracker
from repro.scheduling import (
    AncillaMst,
    AsyncMstPipeline,
    IncrementalMst,
    QueueEntry,
    QueueSet,
    build_activity_graph,
)


def activity(tracker, position, now):
    """One tile's activity, read through the bulk ``snapshot`` query."""
    return tracker.snapshot([position], now)[position]


class TestActivityTracker:
    def test_activity_zero_before_any_work(self):
        tracker = ActivityTracker(window=100)
        assert activity(tracker, (0, 0), now=50) == 0.0

    def test_activity_ratio(self):
        tracker = ActivityTracker(window=100)
        tracker.record_busy((0, 0), 0, 30)
        assert activity(tracker, (0, 0), now=100) == pytest.approx(0.3)

    def test_old_intervals_fall_out_of_window(self):
        tracker = ActivityTracker(window=10)
        tracker.record_busy((0, 0), 0, 5)
        assert activity(tracker, (0, 0), now=100) == 0.0

    def test_partial_overlap_with_window(self):
        tracker = ActivityTracker(window=10)
        tracker.record_busy((0, 0), 0, 15)
        # window is [10, 20): 5 busy cycles
        assert activity(tracker, (0, 0), now=20) == pytest.approx(0.5)

    def test_activity_clamped_to_one(self):
        tracker = ActivityTracker(window=10)
        tracker.record_busy((0, 0), 0, 10)
        tracker.record_busy((0, 0), 0, 10)
        assert activity(tracker, (0, 0), now=10) == 1.0

    def test_early_window_uses_elapsed_time(self):
        tracker = ActivityTracker(window=100)
        tracker.record_busy((0, 0), 0, 5)
        assert activity(tracker, (0, 0), now=10) == pytest.approx(0.5)

    def test_empty_interval_ignored(self):
        tracker = ActivityTracker(window=10)
        tracker.record_busy((0, 0), 5, 5)
        assert activity(tracker, (0, 0), now=10) == 0.0

    def test_snapshot(self):
        tracker = ActivityTracker(window=10)
        tracker.record_busy((0, 0), 0, 10)
        snap = tracker.snapshot([(0, 0), (0, 1)], now=10)
        assert snap[(0, 0)] == 1.0 and snap[(0, 1)] == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ActivityTracker(window=0)


class TestQueues:
    def test_enqueue_and_head(self):
        queues = QueueSet([(0, 0), (0, 1)])
        entry = QueueEntry(5, "rz")
        queue = queues.enqueue((0, 0), entry)
        assert queue is queues[(0, 0)]
        assert queue.entries == [entry]
        assert queue.is_at_head(5)
        assert not queues[(0, 1)].is_at_head(5)

    def test_seniority_order_preserved(self):
        queues = QueueSet([(0, 0)])
        queues.enqueue((0, 0), QueueEntry(1, "rz"))
        queues.enqueue((0, 0), QueueEntry(2, "cnot"))
        assert [e.gate_index for e in queues[(0, 0)].entries] == [1, 2]
        assert queues[(0, 0)].is_at_head(1)
        assert not queues[(0, 0)].is_at_head(2)

    def test_remove_gate_everywhere(self):
        queues = QueueSet([(0, 0), (0, 1), (1, 0)])
        own = [queues.enqueue(pos, QueueEntry(7, "rz"))
               for pos in ((0, 0), (0, 1))]
        queues.enqueue((0, 1), QueueEntry(8, "cnot"))
        new_heads = queues.remove_gate_everywhere(7, own)
        assert len(queues[(0, 0)]) == 0
        # Other gates' entries stay, and the next one becomes the head; the
        # emptied queue names no head.
        assert queues[(0, 1)].is_at_head(8)
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
        assert queue.is_at_head(4)
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

    def test_mst_paths_match_networkx_reference(self):
        """Every tree path equals the path on networkx's Kruskal MST, under
        zero activity and under four random activity maps."""
        layout = self.layout()
        ancillas = layout.ancilla_positions()
        rng = np.random.default_rng(0)
        activities = [{}] + [{pos: float(rng.random()) for pos in ancillas}
                             for _ in range(4)]
        for activity in activities:
            mst = AncillaMst(layout, activity)
            reference = nx.minimum_spanning_tree(
                build_activity_graph(layout, activity), algorithm="kruskal")
            for index, start in enumerate(ancillas):
                for goal in ancillas[index + 1:]:
                    assert mst.path(start, goal) == nx.shortest_path(
                        reference, start, goal), (start, goal)

    def test_path_query_endpoints(self):
        layout = self.layout()
        mst = AncillaMst(layout, {})
        start, goal = (0, 1), (4, 5)
        path = mst.path(start, goal)
        assert path[0] == start and path[-1] == goal
        # every hop is grid-adjacent
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_path_to_unknown_node_is_none(self):
        layout = self.layout()
        mst = AncillaMst(layout, {})
        assert mst.path((0, 1), (99, 99)) is None

    def test_mst_avoids_high_activity_edges(self):
        """The minimax property: the bottleneck activity along the MST path is
        never worse than the direct (shortest) route through a hot ancilla."""
        layout = self.layout()
        activity = {pos: 0.0 for pos in layout.ancilla_positions()}
        hot = (2, 1)
        activity[hot] = 1.0
        mst = AncillaMst(layout, activity)
        # (1, 1) and (3, 1) have a direct route through the hot tile and a
        # detour around it; the minimax tree must pick the detour.
        assert hot not in mst.path((1, 1), (3, 1))

    def test_async_pipeline_latency(self):
        layout = self.layout()
        pipeline = AsyncMstPipeline(layout, period=25, latency=50)
        pipeline.tick(0, {})
        assert pipeline.current is None
        pipeline.tick(25, {})
        assert pipeline.current is None  # first result lands at t=50
        pipeline.tick(50, {})
        assert pipeline.current is not None
        assert pipeline.current.snapshot_cycle == 0
        assert pipeline.computations_started >= 2

    def test_async_pipeline_uses_stale_snapshot(self):
        layout = self.layout()
        pipeline = AsyncMstPipeline(layout, period=10, latency=30)
        pipeline.tick(0, {pos: 0.0 for pos in layout.ancilla_positions()})
        for cycle in range(10, 80, 10):
            pipeline.tick(cycle, {pos: 0.9 for pos in layout.ancilla_positions()})
        # The currently available tree corresponds to a snapshot taken
        # latency cycles before it became available.
        assert pipeline.current.snapshot_cycle <= 80 - 30

    def test_pipeline_rejects_bad_parameters(self):
        layout = self.layout()
        with pytest.raises(ValueError):
            AsyncMstPipeline(layout, period=0, latency=10)
        with pytest.raises(ValueError):
            AsyncMstPipeline(layout, period=10, latency=-1)

    def test_incremental_update_matches_recompute(self):
        layout = self.layout()
        activity = {pos: 0.1 for pos in layout.ancilla_positions()}
        incremental = IncrementalMst(layout, activity)
        edges = list(incremental.graph.edges())[:20]
        import numpy as np
        rng = np.random.default_rng(0)
        for u, v in edges:
            incremental.update_edge(u, v, float(rng.random()))
            assert incremental.matches_full_recompute()

    def test_incremental_update_unknown_edge_rejected(self):
        layout = self.layout()
        incremental = IncrementalMst(layout)
        with pytest.raises(KeyError):
            incremental.update_edge((0, 1), (5, 5), 0.3)
