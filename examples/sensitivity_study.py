#!/usr/bin/env python3
"""Sensitivity study: reproduce the Section 5.2 sweeps on a laptop budget.

Runs the three representative workload families (rotation-dominated dnn,
mixed gcm, routing-dominated qft) through the distance, error-rate and
MST-period sweeps of Figures 11-13 and prints the resulting series.

Each sweep is one registered :class:`repro.api.SweepAxis` driven through
:func:`repro.analysis.run_axis_sweep`; at paper sizes the same axes can be
swept on registered benchmarks from a spec file, e.g.::

    rescq exp <(echo '{"benchmarks": ["dnn_n16"], "grid": {"distance": [5, 7, 9]}}')

Run with::

    python examples/sensitivity_study.py            # scaled-down, ~1 minute
    python examples/sensitivity_study.py --full     # closer to paper sizes
"""

import argparse

from repro.analysis import format_table, run_axis_sweep
from repro.scheduling import DEFAULT_SCHEDULER_NAMES
from repro.workloads import dnn_circuit, gcm_circuit, get_benchmark, qft_circuit


def build_circuits(full: bool):
    if full:
        return [get_benchmark(name).build()
                for name in ("dnn_n16", "gcm_n13", "qft_n18")]
    return [dnn_circuit(10, layers=3),
            gcm_circuit(10, generator_terms=24),
            qft_circuit(10)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="use the Table 3 sized circuits")
    parser.add_argument("--seeds", type=int, default=2)
    args = parser.parse_args()

    circuits = build_circuits(args.full)
    schedulers = DEFAULT_SCHEDULER_NAMES

    print("=== Figure 11: sensitivity to code distance (p = 1e-4) ===")
    results = run_axis_sweep("distance", schedulers, circuits,
                             values=(5, 7, 9, 11, 13), seeds=args.seeds)
    print(format_table(results.grid_rows()))

    print("=== Figure 12: sensitivity to physical error rate (d = 7) ===")
    results = run_axis_sweep("error-rate", schedulers, circuits,
                             values=(1e-3, 1e-4, 1e-5), seeds=args.seeds)
    print(format_table(results.grid_rows()))

    print("=== Figure 13: RESCQ sensitivity to MST recomputation period ===")
    results = run_axis_sweep("mst-period", ["rescq"], circuits,
                             values=(25, 50, 100, 200), seeds=args.seeds)
    print(format_table(results.grid_rows()))


if __name__ == "__main__":
    main()
