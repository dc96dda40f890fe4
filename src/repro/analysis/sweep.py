"""Parameter sweeps behind the sensitivity figures (Section 5.2, 5.3).

A sweep runs a set of schedulers on a set of benchmarks while varying one
registered :class:`~repro.api.axes.SweepAxis` (code distance, physical error
rate, MST period, or grid compression), returning flat :class:`SweepRow`
records that the benchmark harnesses and examples print as the series of
Figures 11-14.

Sweeps are planned as one flat job list — every
(circuit, value, scheduler, seed) point — and executed in a single
:meth:`~repro.exec.engine.ExecutionEngine.run` call, so a parallel engine
fans the *entire* grid out at once instead of parallelising one comparison
cell at a time.  Row order is deterministic: circuits in input order, values
in input order, schedulers by name.  For registered benchmarks the same
sweep can be written as an :class:`~repro.api.spec.ExperimentSpec` grid and
run with :func:`repro.api.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits import Circuit
from ..exec import ExecutionEngine, SimJob, plan_jobs
from ..sim import SimulationConfig, default_layout

__all__ = ["SweepRow", "run_axis_sweep"]


@dataclass(frozen=True)
class SweepRow:
    """One measured point of a sensitivity sweep."""

    benchmark: str
    scheduler: str
    parameter: str
    value: float
    mean_cycles: float
    min_cycles: float
    max_cycles: float
    idle_fraction: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "scheduler": self.scheduler,
            self.parameter: self.value,
            "mean_cycles": round(self.mean_cycles, 2),
            "min_cycles": self.min_cycles,
            "max_cycles": self.max_cycles,
            "idle_fraction": round(self.idle_fraction, 4),
        }


def run_axis_sweep(axis, schedulers, circuits: Sequence[Circuit],
                   values: Optional[Sequence[float]] = None,
                   base: Optional[SimulationConfig] = None,
                   seeds: int = 3,
                   engine: Optional[ExecutionEngine] = None) -> List[SweepRow]:
    """Sweep one :class:`~repro.api.axes.SweepAxis` over ``circuits``.

    ``axis`` decides which config field (or layout property) each value
    drives and how the layout is built per point; ``values`` defaults to the
    axis's paper values and ``base`` to the headline configuration.  This is
    the single engine behind the benchmark harnesses and the ``rescq sweep``
    subcommand.
    """
    from ..api.resultset import ResultSet
    if isinstance(axis, str):
        from ..api.axes import get_axis
        axis = get_axis(axis)
    engine = engine if engine is not None else ExecutionEngine()
    base = base or SimulationConfig()
    swept = list(values if values is not None else axis.default_values)
    # Plan the whole grid up front ...
    jobs: List[SimJob] = []
    for circuit in circuits:
        for value in swept:
            config = axis.config_for(base, value)
            compression = (axis.value_type(value)
                           if axis.parameter == "compression" else 0.0)
            layout = default_layout(circuit, compression,
                                    seed=axis.layout_seed)
            jobs.extend(plan_jobs(schedulers, circuit, config, layout, seeds,
                                  tags={axis.parameter: value}))
    # ... execute it in one engine call (order-preserving) and fold the
    # tagged results back into rows.
    results = engine.run(jobs)
    return ResultSet.from_jobs(jobs, results).sweep_rows(axis.parameter)
