"""The lazy MST pipeline against an eager reference (Figure 8).

:class:`AsyncMstPipeline` builds a published snapshot's tree on the first
read of ``current``; the reference builds every publication at once.  At
every read both must offer the same snapshot and the same paths.  Given a
snapshot callable, the pipeline also takes the snapshot itself only at that
first read, for the computation's start cycle, while the activity store is
pruned back to the oldest computation that can still be built; the
reference snapshots an unpruned store at every start.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.fabric import StarVariant, star_layout
from repro.kernel import ActivityTracker, FabricState, KernelProfile, SimulationKernel
from repro.scheduling import AncillaMst, AsyncMstPipeline
from repro.scheduling.rescq import RescqPolicy
from repro.sim.config import SimulationConfig
from repro.sim.runner import default_layout

LAYOUT = star_layout(8, StarVariant.STAR)
SLOTS = range(LAYOUT.num_ancilla)
#: Slot pairs whose tree paths are compared at every read.
PAIRS = [(a, b) for a in SLOTS[::4] for b in SLOTS[1::3]]


class EagerPipeline:
    """Figure 8 with a tree built at every publication."""

    def __init__(self, layout, period, latency):
        self.layout = layout
        self.period = period
        self.latency = latency
        self.pending = []
        self.current = None
        self.last_started = None

    def tick(self, cycle, activity):
        still_pending = []
        for started, available, snapshot in self.pending:
            if available <= cycle:
                self.current = AncillaMst(self.layout, snapshot, snapshot_cycle=started)
            else:
                still_pending.append((started, available, snapshot))
        self.pending = still_pending
        if self.last_started is None or cycle - self.last_started >= self.period:
            self.pending.append((cycle, cycle + self.latency, activity))
            self.last_started = cycle


def few_level_activity(snapshot_seed):
    """Activity from four levels, so that most edge weights tie."""
    rng = np.random.default_rng(snapshot_seed)
    return rng.integers(0, 4, size=len(SLOTS)) / 4


@seed(26)
@settings(max_examples=60, deadline=5_000, derandomize=True, database=None)
@given(
    period=st.integers(1, 12),
    latency=st.integers(0, 30),
    steps=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 2**16)),
        min_size=1,
        max_size=40,
    ),
)
def test_lazy_pipeline_matches_eager_reference(period, latency, steps):
    """Each step advances the clock by ``gap`` cycles (0 repeats a cycle),
    ticks both pipelines with the same snapshot and reads ``reads`` times."""
    pipeline = AsyncMstPipeline(LAYOUT, period, latency)
    reference = EagerPipeline(LAYOUT, period, latency)
    read_publications = set()
    cycle = 0
    for gap, reads, snapshot_seed in steps:
        cycle += gap
        activity = few_level_activity(snapshot_seed)
        pipeline.tick(cycle, activity)
        reference.tick(cycle, activity)
        for _ in range(reads):
            tree = pipeline.current
            expected = reference.current
            if expected is None:
                assert tree is None
                continue
            assert tree.snapshot_cycle == expected.snapshot_cycle
            for start, goal in PAIRS:
                assert tree.path(start, goal) == expected.path(start, goal)
            read_publications.add(pipeline.computations_completed)
            # A repeated read returns the tree already built.
            built = pipeline.trees_built
            assert pipeline.current is tree
            assert pipeline.trees_built == built
    # Only the publications some read saw were built.
    assert pipeline.trees_built == len(read_publications)
    assert pipeline.trees_built <= pipeline.computations_completed


def test_superseded_snapshots_are_never_built():
    pipeline = AsyncMstPipeline(LAYOUT, period=1, latency=0)
    for cycle in range(10):
        pipeline.tick(cycle, few_level_activity(cycle))
    assert pipeline.computations_completed == 9
    assert pipeline.trees_built == 0
    assert pipeline.current.snapshot_cycle == 8
    assert pipeline.trees_built == 1


def test_lazy_build_is_booked_under_mst_build():
    """The build runs inside whatever timer encloses the read, as its own
    nested phase."""
    profile = KernelProfile()
    pipeline = AsyncMstPipeline(LAYOUT, period=5, latency=0, profile=profile)
    pipeline.tick(0, few_level_activity(0))
    pipeline.tick(1, few_level_activity(1))
    assert "mst_build" not in profile.wall
    with profile.timer("routing"):
        assert pipeline.current is not None
    assert profile.wall["mst_build"] > 0.0
    assert "routing" in profile.wall
    assert pipeline.trees_built == 1


@seed(35)
@settings(max_examples=60, deadline=5_000, derandomize=True, database=None)
@given(
    period=st.integers(1, 12),
    latency=st.integers(0, 30),
    window=st.integers(1, 40),
    steps=st.lists(
        st.tuples(
            st.integers(0, 9),
            st.lists(
                st.tuples(
                    st.integers(0, len(SLOTS) - 1),
                    st.integers(1, 4),
                    st.integers(1, 25),
                ),
                max_size=6,
            ),
            st.lists(st.integers(0, len(SLOTS) - 1), max_size=3),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_lazy_snapshots_equal_eager_snapshots_at_their_start_cycle(
    period, latency, window, steps
):
    """Each step advances the clock by ``gap`` cycles and follows RESCQ's
    order within a cycle: tick (and prune), then bookings that start now on
    free tiles, truncations and ``reads`` tree reads."""
    fabric = FabricState(LAYOUT, num_qubits=1, activity_window=window)
    unpruned = ActivityTracker(len(SLOTS), window)
    pipeline = AsyncMstPipeline(LAYOUT, period, latency)
    reference = EagerPipeline(LAYOUT, period, latency)
    lazy_snapshots, eager_snapshots = {}, {}

    def snapshot(cycle):
        lazy_snapshots[cycle] = fabric.activity_snapshot(cycle)
        return lazy_snapshots[cycle]

    cycle = 0
    for gap, bookings, truncations, reads in steps:
        cycle += gap
        pipeline.tick(cycle, snapshot)
        oldest = pipeline.oldest_buildable
        fabric.activity.prune(cycle if oldest is None else oldest)
        eager_snapshots.setdefault(cycle, unpruned.snapshot(cycle))
        reference.tick(cycle, eager_snapshots[cycle])
        for first, tiles, duration in bookings:
            slots = [
                slot
                for slot in range(first, min(first + tiles, len(SLOTS)))
                if fabric.anc_free[slot] <= cycle
            ]
            if not slots:
                continue
            start, end = fabric.book("prep", slots, (), cycle, duration)
            assert start == cycle
            unpruned.record(slots, start, end)
        for slot in truncations:
            fabric.truncate_ancilla(slot, cycle)
        for _ in range(reads):
            tree = pipeline.current
            expected = reference.current
            if expected is None:
                assert tree is None
                continue
            started = expected.snapshot_cycle
            assert tree.snapshot_cycle == started
            assert lazy_snapshots[started].tolist() == eager_snapshots[started].tolist()
            for start_slot, goal in PAIRS:
                assert tree.path(start_slot, goal) == expected.path(start_slot, goal)
    # One snapshot per tree built, none for a publication nobody read.
    assert len(lazy_snapshots) == pipeline.trees_built
    assert pipeline.trees_built <= pipeline.computations_started


def test_a_long_run_without_tree_reads_keeps_only_readable_activity():
    """An Rz-only RESCQ run never reads a tree, so it never snapshots, yet
    the activity store keeps no interval that the oldest computation still
    buildable could not see."""
    circuit = Circuit(4, name="rz-only")
    for _ in range(150):
        for qubit in range(4):
            circuit.rz(qubit, 0.3)
    config = SimulationConfig(mst_period=10, mst_latency=20, activity_window=30)
    kernel = SimulationKernel(
        circuit,
        default_layout(circuit),
        config,
        seed=5,
        scheduler_name="rescq",
        activity_window=config.activity_window,
    )
    policy = RescqPolicy(kernel)
    policy.run()
    pipeline, store = policy.mst, kernel.fabric.activity
    now = kernel.clock.now
    assert pipeline.trees_built == 0
    assert now > 20 * config.activity_window
    assert pipeline.computations_started > 50
    oldest = pipeline.oldest_buildable
    bound = (now if oldest is None else oldest) - config.activity_window
    assert store._by_end and min(store._by_end) > bound
    assert sorted(store._ends) == sorted(store._by_end)
