"""End-to-end experiment drivers for the headline results (Figures 5 and 10).

These functions reproduce the paper's main evaluation loop: run every
benchmark under every scheduler, normalise execution times to a baseline and
report the geometric mean speed-up (Figure 10), and accumulate post-schedule
completion-latency histograms for CNOT and Rz gates (Figure 5).

Every driver plans its full (circuit x scheduler x seed) grid as one job
list and executes it through a single
:meth:`~repro.exec.engine.ExecutionEngine.run` call, so a parallel or cached
engine accelerates the whole experiment, not one benchmark at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuits import Circuit
from ..exec import ExecutionEngine, SimJob, plan_jobs
from ..scheduling import DEFAULT_SCHEDULER_NAMES, SCHEDULER_REGISTRY
from ..sim import (
    SimulationConfig,
    aggregate_comparison,
    default_layout,
    geometric_mean,
)

__all__ = ["default_schedulers", "ExecutionSummary", "run_execution_comparison",
           "latency_histograms"]


def default_schedulers(mst_period: int = 25):
    """The three schedulers the paper compares: greedy, AutoBraid, RESCQ."""
    return [SCHEDULER_REGISTRY.create(name)
            for name in DEFAULT_SCHEDULER_NAMES]


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


def _run_grid(circuits: Sequence[Circuit], schedulers,
              config: SimulationConfig, seeds: int,
              engine: ExecutionEngine):
    """Plan circuits x schedulers x seeds, run once, yield per-circuit rows."""
    plans = []
    jobs: List[SimJob] = []
    for circuit in circuits:
        layout = default_layout(circuit)
        circuit_jobs = plan_jobs(schedulers, circuit, config, layout, seeds)
        plans.append((circuit, circuit_jobs))
        jobs.extend(circuit_jobs)
    results = engine.run(jobs)
    cursor = 0
    for circuit, circuit_jobs in plans:
        chunk = results[cursor:cursor + len(circuit_jobs)]
        cursor += len(circuit_jobs)
        yield circuit, aggregate_comparison(circuit_jobs, chunk)


def run_execution_comparison(circuits: Sequence[Circuit],
                             schedulers=None,
                             config: Optional[SimulationConfig] = None,
                             seeds: int = 3,
                             baseline: str = "autobraid",
                             engine: Optional[ExecutionEngine] = None
                             ) -> ExecutionSummary:
    """Run the Figure 10 experiment over ``circuits``.

    The paper normalises to the static baselines and reports a ~2x geometric
    mean improvement for RESCQ at d=7, p=1e-4.
    """
    schedulers = schedulers if schedulers is not None else default_schedulers()
    config = config or SimulationConfig()
    engine = engine or ExecutionEngine()
    summary = ExecutionSummary(baseline=baseline)
    for circuit, comparison in _run_grid(circuits, schedulers, config, seeds,
                                         engine):
        summary.cycles[circuit.name] = {
            name: cell.mean_cycles for name, cell in comparison.items()}
        summary.spread[circuit.name] = {
            name: (cell.min_cycles, cell.max_cycles)
            for name, cell in comparison.items()}
    return summary


def latency_histograms(circuits: Sequence[Circuit],
                       schedulers=None,
                       config: Optional[SimulationConfig] = None,
                       seeds: int = 2,
                       max_cycles: int = 30,
                       engine: Optional[ExecutionEngine] = None
                       ) -> Dict[str, Dict[str, Dict[int, int]]]:
    """Figure 5: per-scheduler histograms of post-schedule gate latency.

    Returns ``{scheduler: {"cnot": {cycles: count}, "rz": {cycles: count}}}``
    accumulated over all provided benchmarks.
    """
    schedulers = schedulers if schedulers is not None else default_schedulers()
    config = config or SimulationConfig()
    engine = engine or ExecutionEngine()
    histograms: Dict[str, Dict[str, Dict[int, int]]] = {}
    for scheduler in schedulers:
        histograms[scheduler.name] = {"cnot": {}, "rz": {}}
    for _circuit, comparison in _run_grid(circuits, schedulers, config, seeds,
                                          engine):
        for scheduler in schedulers:
            cell = comparison[scheduler.name]
            for result in cell.results:
                for kind in ("cnot", "rz"):
                    for bucket, count in result.latency_histogram(
                            kind, max_cycles=max_cycles).items():
                        store = histograms[scheduler.name][kind]
                        store[bucket] = store.get(bucket, 0) + count
    for per_scheduler in histograms.values():
        for kind in per_scheduler:
            per_scheduler[kind] = dict(sorted(per_scheduler[kind].items()))
    return histograms
