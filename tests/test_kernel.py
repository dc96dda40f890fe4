"""Tests for the shared simulation kernel (clock, fabric state, lifecycle,
profiler, routing index) and the vectorised RUS sampling that feeds it."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, default_layout
from repro.circuits import Circuit
from repro.fabric import StarVariant, star_layout
from repro.fabric.flat import FlatGrid
from repro.kernel import (FabricState, GateLifecycle, KernelProfile,
                          SimulationClock)
from repro.lattice import (OrientationTracker, RoutingIndex,
                           bfs_ancilla_path, enumerate_cnot_plans)
from repro.rus import InjectionModel, PreparationModel
from repro.scheduling import (AutoBraidScheduler, GreedyScheduler,
                              RescqScheduler)
from repro.sim.results import GateTrace
from repro.workloads.scenarios import clifford_rz_circuit


# ---------------------------------------------------------------------------
# SimulationClock
# ---------------------------------------------------------------------------

class TestSimulationClock:
    def test_orders_by_cycle_then_push_order(self):
        clock = SimulationClock()
        clock.push(5, "b", (1,))
        clock.push(3, "a", (2,))
        clock.push(5, "c", (3,))
        assert clock.next_event_cycle() == 3
        clock.advance(5)
        drained = list(clock.pop_due(5))
        assert drained == [("a", (2,)), ("b", (1,)), ("c", (3,))]
        assert clock.next_event_cycle() is None
        assert clock.events_processed == 3

    def test_pop_due_leaves_future_events(self):
        clock = SimulationClock()
        clock.push(1, "now", ())
        clock.push(9, "later", ())
        assert [tag for tag, _ in clock.pop_due(5)] == ["now"]
        assert clock.next_event_cycle() == 9

    def test_events_pushed_during_sweep_are_picked_up(self):
        clock = SimulationClock()
        clock.push(2, "first", ())
        seen = []
        for tag, _ in clock.pop_due(4):
            seen.append(tag)
            if tag == "first":
                clock.push(3, "chained", ())
        assert seen == ["first", "chained"]

    def test_push_order_is_the_tie_break(self):
        """Within one cycle, events fire in push order, not payload order."""
        clock = SimulationClock()
        for i in reversed(range(20)):
            clock.push(4, "prep", (i,))
        assert [payload[0] for _, payload in clock.pop_due(10)] == \
            list(reversed(range(20)))

    def test_push_at_the_due_cycle_fires_in_the_same_sweep(self):
        clock = SimulationClock()
        clock.push(2, "first", ())
        clock.advance(2)
        seen = []
        for tag, _ in clock.pop_due(2):
            seen.append(tag)
            if tag == "first":
                clock.push(clock.now, "chained", ())
        assert seen == ["first", "chained"]
        assert clock.next_event_cycle() is None


# ---------------------------------------------------------------------------
# FabricState
# ---------------------------------------------------------------------------

class TestFabricState:
    @pytest.fixture
    def fabric(self, star9):
        return FabricState(star9, 9, activity_window=50)

    def test_initial_state_is_idle(self, fabric):
        assert all(fabric.anc_free[pos] <= 0 for pos in fabric.ancillas)
        assert all(free <= 0 for free in fabric.data_free)

    def test_occupy_and_truncate_ancilla(self, fabric):
        tile = fabric.ancillas[0]
        fabric.occupy_ancilla(tile, 0, 10)
        assert fabric.anc_free[tile] > 5
        fabric.truncate_ancilla(tile, 5)
        assert fabric.anc_free[tile] <= 5
        # Truncation never extends occupancy.
        fabric.truncate_ancilla(tile, 9)
        assert fabric.anc_free[tile] == 5

    def test_occupy_data_accounts_busy_cycles(self, fabric):
        fabric.occupy_data(3, 2, 7)
        fabric.occupy_data(3, 9, 12)
        assert fabric.data_free[3] == 12
        assert fabric.data_busy[3] == 8

    def test_layer_barrier_raises_floors_only(self, fabric):
        tile = fabric.ancillas[0]
        fabric.occupy_ancilla(tile, 0, 30)
        fabric.layer_barrier(20)
        assert fabric.anc_free[tile] == 30  # already past the barrier
        assert all(fabric.anc_free[pos] >= 20 for pos in fabric.ancillas)
        assert all(free >= 20 for free in fabric.data_free)

    def test_holds(self, fabric):
        tile = fabric.ancillas[0]
        assert tile not in fabric.anc_holding
        fabric.hold(tile, 42)
        assert fabric.anc_holding[tile] == 42
        fabric.release_hold(tile)
        assert tile not in fabric.anc_holding

    def test_activity_snapshot_requires_window(self, star9):
        fabric = FabricState(star9, 9)
        with pytest.raises(RuntimeError):
            fabric.activity_snapshot(0)

    def test_activity_snapshot_reflects_busy_intervals(self, fabric):
        tile = fabric.ancillas[2]
        fabric.occupy_ancilla(tile, 0, 25)
        snapshot = fabric.activity_snapshot(50)
        # One value per ancilla, in ``fabric.ancillas`` (FlatGrid slot) order.
        assert snapshot.shape == (len(fabric.ancillas),)
        assert (FlatGrid.for_layout(fabric.layout).anc_positions
                == fabric.ancillas)
        assert snapshot[2] == pytest.approx(0.5)
        assert snapshot.sum() == snapshot[2]


# ---------------------------------------------------------------------------
# GateLifecycle
# ---------------------------------------------------------------------------

class TestGateLifecycle:
    def test_release_and_retire_flow(self):
        circuit = Circuit(2, name="chain")
        circuit.h(0).cnot(0, 1).h(1)
        lifecycle = GateLifecycle(circuit)
        lifecycle.release_initial()
        assert lifecycle.release_cycle[0] == 0
        assert not lifecycle.all_completed
        newly = lifecycle.retire(
            GateTrace(0, "h", (0,), scheduled_cycle=0, start_cycle=0,
                      end_cycle=2), now=2)
        assert newly == [1]
        assert lifecycle.release_cycle[1] == 2
        assert len(lifecycle.traces) == 1
        lifecycle.retire(GateTrace(1, "cnot", (0, 1), scheduled_cycle=2,
                                   start_cycle=2, end_cycle=4), now=4)
        lifecycle.retire(GateTrace(2, "h", (1,), scheduled_cycle=4,
                                   start_cycle=4, end_cycle=6), now=6)
        assert lifecycle.all_completed
        assert lifecycle.num_pending == 0


# ---------------------------------------------------------------------------
# Deadlock diagnostics (the DeadlockError message names stuck gates)
# ---------------------------------------------------------------------------

class TestDeadlockDiagnostics:
    def test_describe_pending_names_gates(self):
        circuit = clifford_rz_circuit(4, depth=3, seed=0)
        lifecycle = GateLifecycle(circuit)
        description = lifecycle.describe_pending()
        assert description.startswith("#")
        first = description.split(",")[0]          # e.g. "#0 rz"
        index = int(first.split()[0].lstrip("#"))
        assert circuit[index].name in first

    def test_describe_pending_truncates(self):
        circuit = clifford_rz_circuit(8, depth=4, seed=1)
        description = GateLifecycle(circuit).describe_pending(limit=2)
        assert description.endswith("...")
        assert description.count("#") == 2


# ---------------------------------------------------------------------------
# KernelProfile
# ---------------------------------------------------------------------------

class TestKernelProfile:
    def test_counters_accumulate(self):
        profile = KernelProfile()
        profile.add("sim_prep_cycles", 3.0)
        profile.add("sim_prep_cycles", 2.0)
        profile.add("events")
        flat = profile.as_dict()
        assert flat["sim_prep_cycles"] == 5.0
        assert flat["events"] == 1.0

    def test_timer_records_wall_time(self):
        profile = KernelProfile()
        with profile.timer("routing"):
            pass
        with profile.timer("routing"):
            pass
        flat = profile.as_dict()
        assert "wall_routing_s" in flat
        assert flat["wall_routing_s"] >= 0.0

    def test_nested_timers_are_exclusive(self):
        import time as _time
        profile = KernelProfile()
        with profile.timer("mst"):
            with profile.timer("routing"):
                _time.sleep(0.02)
        # The inner phase's seconds are booked once, under "routing" only;
        # "mst" keeps just its own (here: negligible) remainder.
        assert profile.wall["routing"] >= 0.02
        assert profile.wall["mst"] < profile.wall["routing"]
        assert profile.wall["mst"] >= 0.0

    def test_nested_timer_same_phase_does_not_double_count(self):
        import time as _time
        profile = KernelProfile()
        with profile.timer("routing"):
            with profile.timer("routing"):
                _time.sleep(0.01)
        # Re-entrant phase: total booked equals elapsed once, not twice.
        assert 0.01 <= profile.wall["routing"] < 0.02

    def test_profile_rows_share_of_total_column(self, qft6):
        from repro.api.resultset import ResultSet
        from repro.exec.jobs import plan_jobs
        layout = default_layout(qft6)
        config = SimulationConfig(mst_period=10, mst_latency=20,
                                  profile_enabled=True)
        jobs = plan_jobs([RescqScheduler()], qft6, config, layout, seeds=1)
        rows = ResultSet.from_jobs(jobs, [job.run() for job in jobs]) \
            .profile_rows()
        row = rows[0]
        # The MST tick is booked as its activity snapshot plus its builds.
        assert "share_routing" in row and "share_mst_build" in row
        assert "share_mst_snapshot" in row and "share_mst" not in row
        assert "share_total" not in row  # the denominator gets no share
        for phase in ("routing", "mst_snapshot", "mst_build"):
            expected = row[f"wall_{phase}_s"] / row["wall_total_s"]
            assert row[f"share_{phase}"] == pytest.approx(expected, abs=1e-4)
            assert 0.0 <= row[f"share_{phase}"] <= 1.0

    def test_mst_counters_separate_started_from_built(self, qft6):
        config = SimulationConfig(mst_period=10, mst_latency=20,
                                  profile_enabled=True)
        result = RescqScheduler().run(qft6, default_layout(qft6), config,
                                      seed=3)
        profile = result.profile
        # ``mst_builds`` counts computations started; a run ends with the
        # last ``latency / period`` of them still pending, never built.
        assert profile["mst_trees"] == result.metadata["mst_computations"]
        assert 0 < profile["mst_trees"] < profile["mst_builds"]
        assert profile["mst_builds"] - profile["mst_trees"] <= 20 // 10
        # A published tree is built on its first read only, so no more
        # trees are built than were published.
        assert 0 < profile["mst_trees_built"] <= profile["mst_trees"]
        assert profile["wall_mst_snapshot_s"] > 0.0
        assert profile["wall_mst_build_s"] > 0.0

    def test_profile_enabled_runs_are_bit_identical(self, qft6):
        layout = default_layout(qft6)
        base = SimulationConfig(mst_period=10, mst_latency=20)
        profiled = base.with_updates(profile_enabled=True)
        for scheduler in (RescqScheduler(), GreedyScheduler()):
            plain = scheduler.run(qft6, layout, base, seed=3)
            traced = scheduler.run(qft6, layout, profiled, seed=3)
            assert plain.traces == traced.traces
            assert plain.total_cycles == traced.total_cycles
            assert not plain.profile
            assert traced.profile
            assert traced.profile["wall_total_s"] > 0.0
            assert traced.profile["sim_prep_cycles"] > 0

    def test_profile_rows_aggregates_and_unions_columns(self, qft6):
        from repro.api.resultset import ResultSet
        from repro.exec.jobs import plan_jobs
        layout = default_layout(qft6)
        config = SimulationConfig(mst_period=10, mst_latency=20,
                                  profile_enabled=True)
        jobs = plan_jobs([GreedyScheduler(), RescqScheduler()], qft6, config,
                         layout, seeds=2)
        results = ResultSet.from_jobs(jobs, [job.run() for job in jobs])
        rows = results.profile_rows()
        assert [row["scheduler"] for row in rows] == ["greedy", "rescq"]
        assert all(row["runs"] == 2 for row in rows)
        # Columns are unioned and ordered identically across policies, so a
        # first-row-keyed table renderer shows every counter.
        assert [list(row) for row in rows] == [list(rows[0])] * len(rows)
        rescq_row = rows[1]
        assert rescq_row["scheduling_passes"] > 0
        assert rows[0]["scheduling_passes"] == 0.0  # layer-sync: no passes
        assert rescq_row["wall_total_s"] > 0
        # Unprofiled runs contribute no rows.
        plain = ResultSet.from_jobs(jobs, [
            job.scheduler.run(job.circuit, job.layout,
                              config.with_updates(profile_enabled=False),
                              seed=job.seed)
            for job in jobs])
        assert plain.profile_rows() == []

    def test_export_include_profile_round_trip(self, qft6):
        from repro.analysis.export import result_from_dict, result_to_dict
        layout = default_layout(qft6)
        config = SimulationConfig(mst_period=10, mst_latency=20,
                                  profile_enabled=True)
        result = RescqScheduler().run(qft6, layout, config, seed=1)
        assert "profile" not in result_to_dict(result)  # byte-stable default
        payload = result_to_dict(result, include_profile=True)
        assert payload["profile"] == result.profile
        restored = result_from_dict(payload)
        assert restored.profile == result.profile
        assert restored.traces == result.traces

    def test_cli_run_profile_flag(self, capsys):
        from repro.cli import main
        assert main(["run", "VQE_n13", "--seeds", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "kernel profile" in out
        assert "wall_total_s" in out
        assert "sim_prep_cycles" in out

    def test_cli_run_profile_out_writes_canonical_record(self, capsys,
                                                         tmp_path):
        import json
        from repro.canonical import canonical_dumps
        from repro.cli import main
        out_path = tmp_path / "profile.json"
        # --profile-out implies --profile.
        assert main(["run", "VQE_n13", "--seeds", "1", "--schedulers",
                     "rescq", "--profile-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "kernel profile" in out
        raw = out_path.read_text(encoding="utf-8")
        record = json.loads(raw)
        assert record["kind"] == "kernel_profile"
        assert record["profile_rows"][0]["scheduler"] == "rescq"
        assert record["profile_rows"][0]["wall_total_s"] > 0
        # Byte-stable: the file is canonical JSON of its own payload.
        assert raw == canonical_dumps(record, indent=2) + "\n"

    def test_profile_counts_match_traces(self, dnn6):
        layout = default_layout(dnn6)
        config = SimulationConfig(mst_period=10, mst_latency=20,
                                  profile_enabled=True)
        result = RescqScheduler().run(dnn6, layout, config, seed=0)
        prep_attempts = sum(t.preparation_attempts for t in result.traces)
        # Every preparation attempt contributed >= 1 simulated cycle.
        assert result.profile["sim_prep_cycles"] >= prep_attempts
        assert result.profile["events"] >= len(result.traces)


# ---------------------------------------------------------------------------
# RoutingIndex
# ---------------------------------------------------------------------------

class TestRoutingIndex:
    def test_matches_uncached_enumeration(self, star9):
        index = RoutingIndex(star9)
        orientation = OrientationTracker(9)
        for control, target in ((0, 1), (0, 8), (3, 5), (7, 2)):
            cached = index.enumerate_plans(orientation, control, target)
            fresh = enumerate_cnot_plans(star9, orientation, control, target)
            assert cached == fresh
        orientation.rotate(0)
        assert (index.enumerate_plans(orientation, 0, 1)
                == enumerate_cnot_plans(star9, orientation, 0, 1))

    def test_repeat_queries_hit_the_cache(self, star9):
        index = RoutingIndex(star9)
        orientation = OrientationTracker(9)
        first = index.enumerate_plans(orientation, 0, 5)
        hits_before = index.plan_cache_hits
        second = index.enumerate_plans(orientation, 0, 5)
        assert second is first
        assert index.plan_cache_hits == hits_before + 1

    def test_for_layout_is_shared_and_survives_pickle_strip(self, star9):
        import pickle
        index = RoutingIndex.for_layout(star9)
        assert RoutingIndex.for_layout(star9) is index
        index.path(*star9.ancilla_positions()[:2])  # attaches the FlatGrid
        # The caches really are attached, so the checks below can fail.
        assert hasattr(star9, "_routing_index")
        assert hasattr(star9, "_flat_grid")
        clone = pickle.loads(pickle.dumps(star9))
        assert not hasattr(clone, "_routing_index")
        assert not hasattr(clone, "_flat_grid")
        fresh = RoutingIndex.for_layout(clone)
        assert fresh is not index and fresh.layout is clone

    @pytest.mark.parametrize("mutation", ["disable", "enable"])
    def test_layout_mutation_clears_every_cache(self, star9, mutation):
        index = RoutingIndex(star9)
        orientation = OrientationTracker(9)
        plans = index.enumerate_plans(orientation, 0, 8)
        tile = plans[0].path[len(plans[0].path) // 2]
        if mutation == "enable":
            star9.disable(tile)
            index.enumerate_plans(orientation, 0, 8)
        ancillas = star9.ancilla_positions()
        start, goal = ancillas[0], ancillas[-1]
        index.path(start, goal)
        index.enumerate_plans(orientation, 0, 1)
        assert index._plans and index._paths and index._attachments

        if mutation == "enable":
            star9.enable_ancilla(tile)
        else:
            star9.disable(tile)
        # Every query syncs first; a moved version clears every cache.
        index._sync()
        assert not (index._plans or index._paths or index._attachments)

        runs = index.bfs_runs
        fresh = index.enumerate_plans(orientation, 0, 8)
        assert index.bfs_runs > runs
        assert fresh == enumerate_cnot_plans(star9, orientation, 0, 8)
        if mutation == "disable":
            assert all(tile not in plan.ancillas_used for plan in fresh)
        assert all(index.path(a, b) == bfs_ancilla_path(star9, a, b)
                   for a, b in ((start, goal), (ancillas[2], ancillas[5])))
        assert (index.enumerate_plans(orientation, 0, 1)
                == enumerate_cnot_plans(star9, orientation, 0, 1))

    def test_enumeration_runs_one_search_per_control_attachment(self, star9):
        index = RoutingIndex(star9)
        orientation = OrientationTracker(9)
        index.enumerate_plans(orientation, 0, 8)
        assert index.bfs_runs == len(index.attachments(orientation, 0, "Z"))
        # Re-enumerating with every path memoised runs no further search.
        index._plans.clear()
        index.enumerate_plans(orientation, 0, 8)
        assert index.bfs_runs == len(index.attachments(orientation, 0, "Z"))

    def test_path_matches_bfs(self, star9):
        index = RoutingIndex(star9)
        ancillas = star9.ancilla_positions()
        for start, goal in ((ancillas[0], ancillas[-1]),
                            (ancillas[2], ancillas[5])):
            assert index.path(start, goal) == bfs_ancilla_path(
                star9, start, goal)


# ---------------------------------------------------------------------------
# Vectorised RUS sampling
# ---------------------------------------------------------------------------

class TestVectorisedSampling:
    @pytest.mark.parametrize("distance,p", [(7, 1e-4), (5, 1e-3), (13, 1e-5)])
    def test_batched_prep_draws_are_stream_equivalent(self, distance, p):
        model = PreparationModel(distance=distance, physical_error_rate=p)
        scalar_rng = np.random.default_rng(11)
        batch_rng = np.random.default_rng(11)
        scalar = [model.sample_cycles(scalar_rng) for _ in range(500)]
        batch = model.sample_cycles_batch(batch_rng, 500)
        assert scalar == batch.tolist()
        # The stream positions agree afterwards too.
        assert scalar_rng.random() == batch_rng.random()

    def test_batched_attempts_are_stream_equivalent(self):
        model = PreparationModel(distance=7, physical_error_rate=1e-4)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert ([model.sample_attempts(a) for _ in range(200)]
                == model.sample_attempts_batch(b, 200).tolist())

    def test_batched_injection_counts_distribution(self):
        model = InjectionModel()
        rng = np.random.default_rng(0)
        counts = model.sample_injection_counts(rng, 20000)
        assert counts.min() >= 1
        # Equation 1: E[injections] = 2 for a generic angle.
        assert 1.9 < counts.mean() < 2.1
        clifford = model.sample_injection_counts(rng, 10, theta=math.pi / 2)
        assert clifford.tolist() == [0] * 10
        t_gate = model.sample_injection_counts(rng, 5000, theta=math.pi / 4)
        assert t_gate.max() <= 2


# ---------------------------------------------------------------------------
# Determinism properties (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def random_circuits(draw):
    num_qubits = draw(st.integers(2, 5))
    num_gates = draw(st.integers(1, 20))
    circuit = Circuit(num_qubits, name="random")
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["rz", "h", "cnot"]))
        if kind == "cnot" and num_qubits >= 2:
            control = draw(st.integers(0, num_qubits - 1))
            target = draw(st.integers(0, num_qubits - 2))
            if target >= control:
                target += 1
            circuit.cnot(control, target)
        elif kind == "h":
            circuit.h(draw(st.integers(0, num_qubits - 1)))
        else:
            circuit.rz(draw(st.integers(0, num_qubits - 1)),
                       draw(st.floats(0.05, 3.0)))
    return circuit


def _shuffled_layout(circuit, order_seed: int):
    """The STAR layout with data_positions inserted in a shuffled order.

    If any scheduler behaviour leaked a dependence on dict insertion order,
    results would differ between insertion orders.
    """
    reference = star_layout(circuit.num_qubits, StarVariant.STAR)
    items = list(reference.data_positions.items())
    np.random.default_rng(order_seed).shuffle(items)
    from repro.fabric import GridLayout
    return GridLayout(reference.rows, reference.cols, dict(items),
                      name=reference.name)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(circuit=random_circuits(), seed=st.integers(0, 2 ** 16))
def test_kernel_event_ordering_is_deterministic(circuit, seed):
    """Identical (circuit, seed) -> identical traces, twice in a row, for
    every policy, and independent of dict insertion order in the layout."""
    config = SimulationConfig(mst_period=10, mst_latency=20)
    for scheduler in (RescqScheduler(), GreedyScheduler(),
                      AutoBraidScheduler()):
        runs = [scheduler.run(circuit, _shuffled_layout(circuit, order), config,
                              seed=seed)
                for order in (0, 1)]
        repeat = scheduler.run(circuit, _shuffled_layout(circuit, 0), config,
                               seed=seed)
        assert runs[0].traces == runs[1].traces == repeat.traces
        assert (runs[0].total_cycles == runs[1].total_cycles
                == repeat.total_cycles)
        assert runs[0].data_busy_cycles == runs[1].data_busy_cycles
