#!/usr/bin/env python3
"""Hardware/software co-design: trading ancilla for space (Section 5.3).

Sweeps the STAR grid from 0% to 100% compression for a rotation-heavy
workload, printing the achieved ancilla-per-data ratio, the resulting cycle
counts for the static baseline and RESCQ, and an ASCII rendering of the
compressed grid (the Figure 15 picture).

Run with::

    python examples/grid_compression.py
"""

from repro import SimulationConfig
from repro.analysis import format_table, run_axis_sweep
from repro.api import SWEEP_AXES
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.workloads import dnn_circuit


def main() -> None:
    circuit = dnn_circuit(8, layers=3)
    config = SimulationConfig()
    base_layout = star_layout(circuit.num_qubits, StarVariant.STAR)
    axis = SWEEP_AXES.get("compression")

    # The Figure 14 sweep on an unregistered circuit: one planned job list,
    # then one comparison per compression point.
    results = run_axis_sweep(axis, ["autobraid", "rescq"], [circuit],
                             base=config, seeds=3)
    rows = []
    for fraction in axis.default_values:
        # The same compressed grid the sweep ran on, for its report and art.
        layout, report = compress_layout(base_layout, fraction,
                                         seed=axis.layout_seed)
        point = results.filter(compression=fraction)
        cells = {name: cell.mean_cycles
                 for name, cell in point.comparison_rows().items()}
        rows.append({
            "requested_compression": fraction,
            "achieved_compression": round(report.achieved_fraction, 2),
            "ancilla_per_data": round(layout.ancilla_per_data, 2),
            "autobraid_cycles": round(cells["autobraid"], 1),
            "rescq_cycles": round(cells["rescq"], 1),
            "rescq_advantage": round(cells["autobraid"] / cells["rescq"], 2),
        })
        if fraction in (0.0, 1.0):
            print(f"--- grid at {int(fraction * 100)}% requested compression "
                  f"(D = data, . = ancilla) ---")
            print(layout.ascii_art())
            print()

    print(format_table(rows, title=f"Grid compression sweep for {circuit.name} "
                                   f"({config.describe()})"))
    most_constrained = rows[-1]
    print(f"RESCQ advantage on the most constrained grid: "
          f"{most_constrained['rescq_advantage']:.2f}x")


if __name__ == "__main__":
    main()
