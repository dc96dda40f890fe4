#!/usr/bin/env python3
"""Quickstart: declare an experiment, run it, slice the results.

This is the five-minute tour of the library:

1. describe an experiment declaratively — benchmark x schedulers x seeds —
   as an :class:`repro.api.ExperimentSpec` (a JSON-serializable artifact);
2. execute it through :func:`repro.api.run_experiment`, which plans
   simulation jobs and runs them through the execution engine;
3. slice the returned :class:`repro.api.ResultSet` per scheduler and print
   total cycle counts, idle fractions and per-gate latency summaries.

The same spec serialises with ``spec.to_json()``; write that to
``my_experiment.json`` and re-run it with ``rescq exp my_experiment.json``.

Run with::

    python examples/quickstart.py
"""

from repro.api import BENCHMARKS, ExperimentSpec, run_experiment
from repro.analysis import format_table
from repro.sim import default_layout


def main() -> None:
    spec = ExperimentSpec(
        name="quickstart",
        benchmarks=("qft_n18",),
        schedulers=("greedy", "autobraid", "rescq"),
        seeds=3,
    )
    print(spec.describe())

    circuit = BENCHMARKS.get("qft_n18").build()
    stats = circuit.stats()
    print(f"workload: {circuit.name}  qubits={stats.num_qubits}  "
          f"Rz={stats.num_rz}  CNOT={stats.num_cnot}  depth={stats.depth}")

    layout = default_layout(circuit)
    print(f"layout:   {layout.rows}x{layout.cols} tiles, "
          f"{layout.num_ancilla} ancilla ({layout.ancilla_per_data:.1f} per data qubit)")

    results = run_experiment(spec)
    cells = results.comparison_rows()

    table = []
    baseline = cells["autobraid"].mean_cycles
    for name, cell in cells.items():
        example_result = cell.results[0]
        table.append({
            "scheduler": name,
            "mean_cycles": round(cell.mean_cycles, 1),
            "vs_autobraid": round(cell.mean_cycles / baseline, 2),
            "idle_fraction": round(cell.mean_idle_fraction, 3),
            "mean_rz_latency": round(example_result.mean_latency("rz"), 2),
            "mean_cnot_latency": round(example_result.mean_latency("cnot"), 2),
        })
    print()
    print(format_table(table, title=f"{circuit.name} @ "
                                    f"{spec.base_config().describe()}"))

    speedup = baseline / cells["rescq"].mean_cycles
    print(f"RESCQ speedup over AutoBraid on this workload: {speedup:.2f}x")
    print()
    print("the same experiment as a shareable JSON spec:")
    print(spec.to_json())


if __name__ == "__main__":
    main()
