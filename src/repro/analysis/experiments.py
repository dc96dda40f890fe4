"""End-to-end experiment drivers for the headline results (Figures 5 and 10).

These functions reproduce the paper's main evaluation loop: run every
benchmark under every scheduler, normalise execution times to a baseline and
report the geometric mean speed-up (Figure 10), and accumulate post-schedule
completion-latency histograms for CNOT and Rz gates (Figure 5).

Every driver plans its full (circuit x scheduler x seed) grid through
:func:`~repro.api.spec.plan_experiment`, the planner behind
:meth:`~repro.api.spec.ExperimentSpec.expand`, and executes it through a
single :meth:`~repro.service.service.ExperimentService.run` call, so a
pooled or cached engine accelerates the whole experiment, not one benchmark
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.resultset import ResultSet
from ..api.spec import plan_experiment
from ..circuits import Circuit
from ..scheduling import DEFAULT_SCHEDULER_NAMES
from ..service.service import ExperimentService
from ..sim import SimulationConfig, geometric_mean

__all__ = ["ExecutionSummary", "run_execution_comparison",
           "latency_histograms"]


@dataclass
class ExecutionSummary:
    """The Figure 10 table: per-benchmark normalised execution times."""

    baseline: str
    #: benchmark -> scheduler -> mean cycles
    cycles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: benchmark -> scheduler -> (min, max) cycles (the error bars)
    spread: Dict[str, Dict[str, tuple]] = field(default_factory=dict)

    def normalised(self) -> Dict[str, Dict[str, float]]:
        """Execution time of every scheduler normalised to the baseline."""
        table: Dict[str, Dict[str, float]] = {}
        for benchmark, per_scheduler in self.cycles.items():
            reference = per_scheduler.get(self.baseline)
            if not reference:
                continue
            table[benchmark] = {name: value / reference
                                for name, value in per_scheduler.items()}
        return table

    def geomean_speedup(self, scheduler: str = "rescq",
                        over: Optional[str] = None) -> float:
        """Geometric-mean speed-up of ``scheduler`` over ``over`` (Figure 10)."""
        over = over or self.baseline
        ratios = []
        for per_scheduler in self.cycles.values():
            if scheduler in per_scheduler and over in per_scheduler:
                if per_scheduler[scheduler] > 0:
                    ratios.append(per_scheduler[over] / per_scheduler[scheduler])
        return geometric_mean(ratios)

    def schedulers(self) -> List[str]:
        names: List[str] = []
        for per_scheduler in self.cycles.values():
            for name in per_scheduler:
                if name not in names:
                    names.append(name)
        return names


def _run(circuits: Sequence[Circuit], schedulers,
         config: Optional[SimulationConfig], seeds: int,
         engine: Optional[ExperimentService]) -> ResultSet:
    """Plan circuits x schedulers x seeds at one config and run it once."""
    jobs = plan_experiment(
        circuits,
        schedulers if schedulers is not None else DEFAULT_SCHEDULER_NAMES,
        config or SimulationConfig(), seeds=seeds)
    engine = engine if engine is not None else ExperimentService()
    return ResultSet.from_jobs(jobs, engine.run(jobs))


def run_execution_comparison(circuits: Sequence[Circuit],
                             schedulers=None,
                             config: Optional[SimulationConfig] = None,
                             seeds: int = 3,
                             baseline: str = "autobraid",
                             engine: Optional[ExperimentService] = None
                             ) -> ExecutionSummary:
    """Run the Figure 10 experiment over ``circuits``.

    ``schedulers`` are scheduler instances or registered names (default:
    the paper's three).  The paper normalises to the static baselines and
    reports a ~2x geometric mean improvement for RESCQ at d=7, p=1e-4.
    """
    results = _run(circuits, schedulers, config, seeds, engine)
    summary = ExecutionSummary(baseline=baseline)
    for (benchmark,), subset in results.group_by("benchmark").items():
        comparison = subset.comparison_rows()
        summary.cycles[benchmark] = {
            name: cell.mean_cycles for name, cell in comparison.items()}
        summary.spread[benchmark] = {
            name: (cell.min_cycles, cell.max_cycles)
            for name, cell in comparison.items()}
    return summary


def latency_histograms(circuits: Sequence[Circuit],
                       schedulers=None,
                       config: Optional[SimulationConfig] = None,
                       seeds: int = 2,
                       max_cycles: int = 30,
                       engine: Optional[ExperimentService] = None
                       ) -> Dict[str, Dict[str, Dict[int, int]]]:
    """Figure 5: per-scheduler histograms of post-schedule gate latency.

    Returns ``{scheduler: {"cnot": {cycles: count}, "rz": {cycles: count}}}``
    accumulated over all provided benchmarks.
    """
    histograms: Dict[str, Dict[str, Dict[int, int]]] = {}
    for row in _run(circuits, schedulers, config, seeds, engine):
        per_kind = histograms.setdefault(row.scheduler, {"cnot": {}, "rz": {}})
        for kind, store in per_kind.items():
            for bucket, count in row.result.latency_histogram(
                    kind, max_cycles=max_cycles).items():
                store[bucket] = store.get(bucket, 0) + count
    for per_scheduler in histograms.values():
        for kind in per_scheduler:
            per_scheduler[kind] = dict(sorted(per_scheduler[kind].items()))
    return histograms
