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
from repro.analysis import format_table
from repro.api import ResultSet
from repro.exec import plan_jobs
from repro.fabric import StarVariant, compress_layout, star_layout
from repro.scheduling import AutoBraidScheduler, RescqScheduler
from repro.service import ExperimentService
from repro.workloads import dnn_circuit


def main() -> None:
    circuit = dnn_circuit(8, layers=3)
    config = SimulationConfig()
    base_layout = star_layout(circuit.num_qubits, StarVariant.STAR)
    schedulers = [AutoBraidScheduler(), RescqScheduler()]
    engine = ExperimentService()

    # Unregistered circuit + hand-built layouts: plan jobs explicitly and
    # fold them through ResultSet (the declarative spec path needs names).
    rows = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        layout, report = compress_layout(base_layout, fraction, seed=13)
        jobs = plan_jobs(schedulers, circuit, config, layout, seeds=3)
        point = ResultSet.from_jobs(jobs, engine.run(jobs))
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
