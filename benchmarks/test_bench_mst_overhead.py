"""Section 5.4.1 — classical overhead of maintaining the activity MST.

The paper measures ~92 us to update the MST on a 100x100 grid and ~330 us on a
1000x1000 grid (k=200 edge updates) on an M2 laptop.  We benchmark our Python
implementation of the same incremental-update path and verify the structural
claim: per-update work scales far better than recomputing the tree from
scratch, and the incremental tree stays exactly equivalent to a full Kruskal.
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.fabric import StarVariant, star_layout
from repro.scheduling import AncillaMst, IncrementalMst, activity_array


GRID_QUBITS = 100          # 100 STAR blocks -> a 20x20 tile grid
EDGE_UPDATES = 200         # the paper's k=200 updates per recomputation window


def _random_updates(incremental, count, seed=0):
    rng = np.random.default_rng(seed)
    edges = incremental.edges()
    for _ in range(count):
        u, v = edges[int(rng.integers(len(edges)))]
        incremental.update_edge(u, v, float(rng.random()))


def test_bench_mst_incremental_updates(benchmark):
    layout = star_layout(GRID_QUBITS, StarVariant.STAR)
    activity = {pos: 0.1 for pos in layout.ancilla_positions()}
    incremental = IncrementalMst(layout, activity_array(layout, activity))

    def run():
        _random_updates(incremental, EDGE_UPDATES)
        return incremental

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.matches_full_recompute()


def test_bench_mst_full_recompute_comparison(benchmark):
    """Report incremental-update vs full-recompute wall clock (Section 5.4.1)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for qubits in (25, 100, 225):
        layout = star_layout(qubits, StarVariant.STAR)
        activity = {pos: 0.1 for pos in layout.ancilla_positions()}
        values = activity_array(layout, activity)

        incremental = IncrementalMst(layout, values)
        start = time.perf_counter()
        _random_updates(incremental, EDGE_UPDATES)
        incremental_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(3):
            AncillaMst(layout, values)
        full_seconds = (time.perf_counter() - start) / 3

        rows.append({
            "data_qubits": qubits,
            "ancilla_tiles": layout.num_ancilla,
            "incremental_us_per_update": round(
                1e6 * incremental_seconds / EDGE_UPDATES, 1),
            "full_recompute_us": round(1e6 * full_seconds, 1),
        })
    print()
    print(format_table(rows, title="Section 5.4.1: MST maintenance cost"))
    # The per-update incremental cost must be far below one full recompute on
    # the largest grid (the asymptotic argument of Section 5.4.1).
    largest = rows[-1]
    assert (largest["incremental_us_per_update"]
            < largest["full_recompute_us"])
