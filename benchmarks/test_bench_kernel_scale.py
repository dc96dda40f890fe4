"""Large-fabric scale benchmark — the routing-core trajectory.

Where ``test_bench_kernel_throughput`` tracks the small-fabric Figure 10
workload, this benchmark pins the large-fabric scale points:

* ``tiles1k``  — a 250-qubit clifford+Rz scenario on a 1024-tile STAR
  fabric (~3.7k gates).
* ``gates100k`` — the same fabric with a >100k-gate circuit (a single pass
  already takes over a wall-minute, so it runs cold only).
* ``tiles4k`` — a 1000-qubit scenario on a 4096-tile fabric, so the
  largest fabric's wall is tracked.

Each point gets a FRESH layout and is timed twice: the ``cold`` run pays
for every routing query (``RoutingIndex.for_layout`` memoises shortest
paths, plans and attachment candidates on the layout, so a warm run mostly
bypasses routing), and the ``warm`` run shows the steady-state seed-sweep
cost.  The regression baseline gates the cold numbers.

Results are merged into ``BENCH_kernel.json`` at the repo root under the
``scale_points`` key (creating the file when the throughput benchmark has
not run first).  Every point carries the same provenance block as the
throughput record: the git revision and the Python and numpy versions.
Normalised throughput uses the same calibration-loop yardstick as the
throughput benchmark so numbers transfer between hosts.

Regression guard: ``benchmarks/BENCH_kernel_scale_baseline.json`` commits
the normalised throughput per point.  With ``RESCQ_BENCH_STRICT=1`` the
benchmark fails when any entry drops more than 20% below baseline.
Refresh intentionally with::

    RESCQ_BENCH_REBASE=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_kernel_scale.py -s
"""

from __future__ import annotations

import json
import os
import time

from repro import SimulationConfig
from repro.scheduling import SCHEDULER_REGISTRY
from repro.sim.runner import default_layout
from repro.workloads.scenarios import clifford_rz_circuit

from test_bench_kernel_throughput import (
    OUTPUT_PATH, REGRESSION_TOLERANCE, _calibration_loop_seconds, _provenance)

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_kernel_scale_baseline.json")

STRICT = bool(int(os.environ.get("RESCQ_BENCH_STRICT", "0")))
REBASE = bool(int(os.environ.get("RESCQ_BENCH_REBASE", "0")))

#: (name, circuit kwargs, time a warm second run?).  250 data qubits on the
#: STAR layout is a 32x32 = 1024-tile fabric; 1000 data qubits is
#: 64x64 = 4096 tiles.
SCALE_POINTS = (
    ("tiles1k", dict(n=250, depth=20, seed=3), True),
    ("gates100k", dict(n=250, depth=560, seed=3), False),
    ("tiles4k", dict(n=1000, depth=6, seed=3), True),
)


def test_bench_kernel_scale():
    calibration_s = _calibration_loop_seconds()
    provenance = _provenance()
    config = SimulationConfig()

    points = {}
    for name, kwargs, warm_round in SCALE_POINTS:
        circuit = clifford_rz_circuit(**kwargs)
        layout = default_layout(circuit)
        tiles = layout.rows * layout.cols
        assert tiles >= 1000, f"{name}: fabric is only {tiles} tiles"
        walls = []
        for _round in range(2 if warm_round else 1):
            scheduler = SCHEDULER_REGISTRY.create("rescq")
            start = time.perf_counter()
            result = scheduler.run(circuit, layout, config, seed=0)
            walls.append(time.perf_counter() - start)
        cold = walls[0]
        row = {
            "circuit": dict(kwargs),
            "tiles": tiles,
            "gates": len(circuit.gates),
            "cold_wall_s": round(cold, 4),
            "sim_cycles": result.total_cycles,
            "cycles_per_sec": round(result.total_cycles / cold, 1),
            "normalised_throughput": round(
                result.total_cycles / cold * calibration_s, 1),
            "provenance": provenance,
        }
        if len(walls) > 1:
            row["warm_wall_s"] = round(walls[1], 4)
        points[name] = row

    assert points["gates100k"]["gates"] >= 100_000

    # Merge into the shared report so scale points live next to the fig10
    # numbers (the two benchmarks may run in either order, or alone).
    report = {}
    if os.path.exists(OUTPUT_PATH):
        with open(OUTPUT_PATH, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    report["scale_points"] = points
    report.setdefault("calibration_loop_s", round(calibration_s, 5))
    with open(OUTPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print()
    print(f"calibration loop: {calibration_s * 1000:.1f} ms")
    for name, row in points.items():
        warm = (f", warm {row['warm_wall_s']:.2f}s"
                if "warm_wall_s" in row else "")
        print(f"{name:>10}: {row['cycles_per_sec']:>8.0f} cycles/s  "
              f"(normalised {row['normalised_throughput']:.0f}, "
              f"cold {row['cold_wall_s']:.2f}s{warm}, "
              f"{row['tiles']} tiles, {row['gates']} gates)")
    print(f"wrote {OUTPUT_PATH}")

    baseline = None
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    if REBASE or baseline is None:
        payload = {
            "machine": "refresh via RESCQ_BENCH_REBASE=1",
            "calibration_loop_s": round(calibration_s, 5),
            "normalised_throughput": {
                name: row["normalised_throughput"]
                for name, row in points.items()},
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"rebased {BASELINE_PATH}")
        return

    failures = []
    for name, row in points.items():
        reference = baseline["normalised_throughput"].get(name)
        if reference is None:
            continue
        floor = reference * (1.0 - REGRESSION_TOLERANCE)
        if row["normalised_throughput"] < floor:
            failures.append(
                f"{name}: normalised throughput "
                f"{row['normalised_throughput']:.0f} < {floor:.0f} "
                f"(baseline {reference:.0f} - {REGRESSION_TOLERANCE:.0%})")
    if failures:
        message = "kernel scale regression:\n  " + "\n  ".join(failures)
        if STRICT:
            raise AssertionError(message)
        print(f"[warn] {message}")
