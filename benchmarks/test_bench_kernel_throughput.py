"""Kernel throughput benchmark — the repo's scheduler-performance trajectory.

Runs the (scaled) Figure 10 workload under all three schedulers and records
**simulated cycles per wall-clock second** to ``BENCH_kernel.json`` at the
repo root.  Because absolute wall time is machine-dependent, every number is
also *normalised* by a small pure-Python calibration loop timed on the same
machine: ``normalised_throughput = cycles/sec x calibration_loop_seconds``
is "simulated cycles per calibration unit", which transfers between hosts of
different speeds.

Regression guard: ``benchmarks/BENCH_kernel_baseline.json`` commits the
normalised throughput of the current kernel.  With ``RESCQ_BENCH_STRICT=1``
(set by CI) the benchmark **fails when any scheduler's normalised throughput
drops more than 20%** below that baseline, and when the estimated speedup
over the recorded pre-kernel-extraction simulator falls below 1.5x.
The report carries a ``provenance`` block (git revision, ``-dirty`` when the
tree had uncommitted changes, and the Python and numpy versions) so records
can be compared across revisions.  Refresh the baseline intentionally with::

    RESCQ_BENCH_REBASE=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_kernel_throughput.py -s
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time

import numpy as np

from repro import SimulationConfig
from repro.scheduling import DEFAULT_SCHEDULER_NAMES, SCHEDULER_REGISTRY
from repro.sim.runner import default_layout

from conftest import SEEDS, evaluation_suite

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_kernel.json")
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_kernel_baseline.json")

STRICT = bool(int(os.environ.get("RESCQ_BENCH_STRICT", "0")))
REBASE = bool(int(os.environ.get("RESCQ_BENCH_REBASE", "0")))

#: Maximum tolerated normalised-throughput drop vs the committed baseline.
REGRESSION_TOLERANCE = 0.20
#: Required wall-clock improvement over the pre-kernel simulator (ISSUE 3).
REQUIRED_SPEEDUP = 1.5


def _calibration_loop_seconds() -> float:
    """Time a fixed pure-Python workload (the machine-speed yardstick)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i & 1023
        best = min(best, time.perf_counter() - start)
    assert acc >= 0
    return best


def _provenance() -> dict:
    """Where a bench record came from: git revision and library versions."""
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {"git_revision": revision,
            "python": platform.python_version(),
            "numpy": np.__version__}


def test_bench_kernel_throughput():
    config = SimulationConfig()
    circuits = evaluation_suite()
    # Layouts are built outside the timed region: layout construction is
    # per-circuit setup, not scheduler work, and including it understated
    # scheduler throughput by ~25% on the laptop-scale suite.
    layouts = [default_layout(circuit) for circuit in circuits]
    calibration_s = _calibration_loop_seconds()

    per_scheduler = {}
    total_wall = 0.0
    total_cycles = 0
    for name in DEFAULT_SCHEDULER_NAMES:
        # Best of two passes: one-shot wall times are noisy on shared
        # runners, and the regression gate compares against a fixed baseline.
        wall = float("inf")
        for _round in range(2):
            start = time.perf_counter()
            sim_cycles = 0
            gates = 0
            for circuit, layout in zip(circuits, layouts):
                scheduler = SCHEDULER_REGISTRY.create(name)
                for seed in range(SEEDS):
                    result = scheduler.run(circuit, layout, config, seed=seed)
                    sim_cycles += result.total_cycles
                    gates += result.num_gates
            wall = min(wall, time.perf_counter() - start)
        throughput = sim_cycles / wall
        per_scheduler[name] = {
            "wall_s": round(wall, 4),
            "sim_cycles": sim_cycles,
            "gates": gates,
            "cycles_per_sec": round(throughput, 1),
            "normalised_throughput": round(throughput * calibration_s, 1),
        }
        total_wall += wall
        total_cycles += sim_cycles

    baseline = None
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    report = {
        "suite": "fig10-workload",
        "full_scale": bool(int(os.environ.get("RESCQ_FULL", "0"))),
        "seeds": SEEDS,
        "calibration_loop_s": round(calibration_s, 5),
        "total": {
            "wall_s": round(total_wall, 4),
            "sim_cycles": total_cycles,
            "cycles_per_sec": round(total_cycles / total_wall, 1),
            "normalised_throughput": round(total_cycles / total_wall
                                           * calibration_s, 1),
        },
        "per_scheduler": per_scheduler,
        "provenance": _provenance(),
    }

    if baseline is not None and "pre_kernel" in baseline:
        # Estimate what the pre-kernel simulator would take on THIS machine
        # by rescaling its recorded wall time with the calibration ratio.
        pre = baseline["pre_kernel"]
        scale = calibration_s / pre.get("calibration_loop_s",
                                        baseline["calibration_loop_s"])
        estimated_pre_wall = pre["wall_s"] * scale
        report["speedup_vs_pre_kernel"] = round(
            estimated_pre_wall / total_wall, 2)
        report["pre_kernel_wall_s_estimated"] = round(estimated_pre_wall, 4)

    with open(OUTPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print()
    print(f"calibration loop: {calibration_s * 1000:.1f} ms")
    for name, row in per_scheduler.items():
        print(f"{name:>10}: {row['cycles_per_sec']:>10.0f} cycles/s  "
              f"(normalised {row['normalised_throughput']:.0f}, "
              f"{row['wall_s']:.2f}s wall)")
    if "speedup_vs_pre_kernel" in report:
        print(f"speedup vs pre-kernel simulator: "
              f"{report['speedup_vs_pre_kernel']:.2f}x")
    print(f"wrote {OUTPUT_PATH}")

    if REBASE or baseline is None:
        payload = {
            "machine": "refresh via RESCQ_BENCH_REBASE=1",
            "calibration_loop_s": round(calibration_s, 5),
            "seeds": SEEDS,
            "normalised_throughput": {
                name: row["normalised_throughput"]
                for name, row in per_scheduler.items()},
        }
        if baseline is not None and "pre_kernel" in baseline:
            payload["pre_kernel"] = baseline["pre_kernel"]
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"rebased {BASELINE_PATH}")
        return

    # Regression guard (>20% normalised-throughput drop fails under CI).
    failures = []
    for name, row in per_scheduler.items():
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
        message = "kernel throughput regression:\n  " + "\n  ".join(failures)
        if STRICT:
            raise AssertionError(message)
        print(f"[warn] {message}")

    if STRICT and "speedup_vs_pre_kernel" in report:
        assert report["speedup_vs_pre_kernel"] >= REQUIRED_SPEEDUP, (
            f"fig10 wall-clock speedup {report['speedup_vs_pre_kernel']:.2f}x "
            f"fell below the required {REQUIRED_SPEEDUP}x vs the pre-kernel "
            f"simulator")
