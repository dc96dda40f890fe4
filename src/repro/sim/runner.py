"""Layout defaults and comparison-row aggregation for simulation results.

Work is planned as :class:`~repro.exec.jobs.SimJob` lists and executed
through an :class:`~repro.exec.engine.ExecutionEngine`; experiments are
described declaratively with :class:`repro.api.ExperimentSpec` and run via
:func:`repro.api.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..circuits import Circuit
from ..exec.jobs import SimJob
from ..fabric import GridLayout, StarVariant, compress_layout, star_layout
from .results import SimulationResult

__all__ = ["default_layout", "ComparisonRow", "aggregate_comparison"]


def default_layout(circuit: Circuit, compression: float = 0.0,
                   seed: int = 0,
                   variant: StarVariant = StarVariant.STAR) -> GridLayout:
    """The STAR grid the paper evaluates on, optionally compressed.

    One 2x2 STAR block per program qubit (Figure 1c); ``compression`` in
    ``[0, 1]`` applies the Section 5.3 co-design sweep with layout seed
    ``seed``.  Every STAR layout is built here: the registered layout
    builders (:data:`repro.api.LAYOUTS`, one per ``variant``) and the
    sensitivity sweeps call it.
    """
    layout = star_layout(circuit.num_qubits, variant)
    if compression > 0.0:
        layout, _report = compress_layout(layout, compression, seed=seed)
    return layout


@dataclass
class ComparisonRow:
    """Aggregate of one (benchmark, scheduler) cell of Figure 10."""

    benchmark: str
    scheduler: str
    mean_cycles: float
    min_cycles: float
    max_cycles: float
    mean_idle_fraction: float
    runs: int
    results: List[SimulationResult] = field(default_factory=list, repr=False)


def aggregate_comparison(jobs: Sequence[SimJob],
                         results: Sequence[SimulationResult]
                         ) -> Dict[str, ComparisonRow]:
    """Fold positionally-aligned ``(jobs, results)`` into comparison rows.

    Rows are keyed and ordered by scheduler name (ascending), and each row's
    ``results`` list is ordered by seed — deterministic regardless of the
    executor that produced ``results``.  This is a view over
    :meth:`repro.api.resultset.ResultSet.comparison_rows`, the canonical
    aggregation.
    """
    from ..api.resultset import ResultSet
    return ResultSet.from_jobs(jobs, results).comparison_rows()
