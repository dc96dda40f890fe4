"""CNOT plan scoring: shared tree walks and the running queue-cost memo.

:meth:`AncillaMst.pair_scores` must give, for every routable attachment
pair, the bottleneck cost and length of the pair's :meth:`AncillaMst.path`
without building it; :meth:`AncillaQueue.pending_cost` must stay the float
that a fresh left-to-right sum gives while it prices only new entries.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_scheduling_structures import _TIE_FABRICS

from repro.fabric.flat import FlatGrid
from repro.scheduling import AncillaMst, QueueEntry, QueueSet

#: Expected-free-time levels: few, so that bottleneck ties are common.
EFT_LEVELS = [0.0, 1 / 3, 2.5, 7.0]
#: A position that is no ancilla of any fabric under test.
OFF_TREE = (99, 99)


def brute_force_scores(tree, starts, goals, cost):
    scores = []
    for i, start in enumerate(starts):
        for j, goal in enumerate(goals):
            path = tree.path(start, goal)
            if path is not None:
                scores.append((i, j, max(cost(tile) for tile in path), len(path)))
    return scores


@seed(26)
@settings(max_examples=80, deadline=5_000, derandomize=True, database=None)
@given(data=st.data(), fabric=st.sampled_from(sorted(_TIE_FABRICS)))
def test_pair_scores_match_brute_force(data, fabric):
    """Covers a spanning forest (the compressed fabric), endpoints off the
    tree, and two endpoints on one slot."""
    layout = _TIE_FABRICS[fabric]
    flat = FlatGrid.for_layout(layout)
    count = flat.num_ancilla
    activity = data.draw(
        st.lists(st.integers(0, 3), min_size=count, max_size=count), "activity"
    )
    tree = AncillaMst(layout, np.array(activity) / 3)
    eft = data.draw(
        st.lists(st.sampled_from(EFT_LEVELS), min_size=count, max_size=count), "eft"
    )
    # Endpoints are slots, the position off the fabric included (-1).
    endpoint = st.one_of(st.integers(0, count - 1), st.just(flat.slot_of(OFF_TREE)))
    starts = data.draw(st.lists(endpoint, min_size=1, max_size=4), "starts")
    goals = data.draw(st.lists(endpoint, min_size=1, max_size=4), "goals")
    if data.draw(st.booleans(), "shared slot"):
        goals.append(starts[0])
    priced = []

    def cost(tile):
        priced.append(tile)
        return eft[tile]

    expected = brute_force_scores(tree, starts, goals, eft.__getitem__)
    assert tree.pair_scores(starts, goals, cost) == expected
    # Every tile is priced at most once.
    assert len(priced) == len(set(priced))


#: (action, gate kind, gate or entry choice, read the cost afterwards)
QUEUE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "append", "remove"]),
        st.sampled_from(["rz", "cnot", "h"]),
        st.integers(0, 7),
        st.booleans(),
    ),
    max_size=60,
)


@seed(26)
@settings(max_examples=100, deadline=2_000, derandomize=True, database=None)
@given(ops=QUEUE_OPS)
def test_pending_cost_is_bit_identical_to_a_fresh_sum(ops):
    """Mixed appends and removals, read after some of them: the memo that
    prices only new entries matches a fresh left-to-right sum bit for bit."""
    prices = {"rz": 0.1, "cnot": 1 / 3, "h": 0.7}
    queues = QueueSet(1)
    queue = queues[0]
    for action, kind, choice, read in ops:
        if action == "append" or not queue.entries:
            queues.enqueue(0, QueueEntry(choice, kind))
        else:
            queue.remove_gate(queue.entries[choice % len(queue)].gate_index)
        if read:
            fresh = 0.0
            for entry in queue.entries:
                fresh += prices[entry.gate_kind]
            assert queue.pending_cost(prices).hex() == fresh.hex()
