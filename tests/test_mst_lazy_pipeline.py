"""The lazy MST pipeline against an eager reference (Figure 8).

:class:`AsyncMstPipeline` builds a published snapshot's tree on the first
read of ``current``; the reference builds every publication at once.  At
every read both must offer the same snapshot and the same paths.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.fabric import StarVariant, star_layout
from repro.kernel import KernelProfile
from repro.scheduling import AncillaMst, AsyncMstPipeline

LAYOUT = star_layout(8, StarVariant.STAR)
ANCILLAS = LAYOUT.ancilla_positions()
#: Tile pairs whose tree paths are compared at every read.
PAIRS = [(a, b) for a in ANCILLAS[::4] for b in ANCILLAS[1::3]]


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
    return rng.integers(0, 4, size=len(ANCILLAS)) / 4


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
