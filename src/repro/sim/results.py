"""Simulation outputs: per-gate traces and run-level results."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["GateTrace", "SimulationResult", "geometric_mean",
           "aggregate_results"]


@dataclass(frozen=True)
class GateTrace:
    """Timing record of one executed gate.

    ``scheduled_cycle`` is the cycle at which the gate became ready (all its
    dependency predecessors had completed); ``start_cycle`` is when hardware
    work for it began; ``end_cycle`` is when it retired.  Figure 5 plots
    ``end_cycle - scheduled_cycle`` ("the time taken ... to complete after
    they are scheduled").
    """

    gate_index: int
    kind: str                      # "cnot", "rz", "h"
    qubits: Tuple[int, ...]
    scheduled_cycle: int
    start_cycle: int
    end_cycle: int
    injections: int = 0
    preparation_attempts: int = 0
    edge_rotations: int = 0

    @property
    def latency_after_schedule(self) -> int:
        return self.end_cycle - self.scheduled_cycle


@dataclass
class SimulationResult:
    """Everything a single (benchmark, scheduler, config, seed) run produced."""

    benchmark: str
    scheduler: str
    seed: int
    total_cycles: int
    num_qubits: int
    traces: List[GateTrace] = field(default_factory=list)
    #: Cycles each data qubit spent occupied by an operation.
    data_busy_cycles: Dict[int, int] = field(default_factory=dict)
    config_summary: str = ""
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Per-phase cycle / wall-time counters (populated only when the run's
    #: config set ``profile_enabled``; see repro.kernel.profiler).  Pure
    #: observability — excluded from serialised results by default.
    profile: Dict[str, float] = field(default_factory=dict)

    # -- per-kind latency views (Figure 5) -------------------------------------

    def latencies(self, kind: Optional[str] = None) -> List[int]:
        return [trace.latency_after_schedule for trace in self.traces
                if kind is None or trace.kind == kind]

    def mean_latency(self, kind: Optional[str] = None) -> float:
        values = self.latencies(kind)
        return statistics.fmean(values) if values else 0.0

    def latency_histogram(self, kind: str,
                          max_cycles: int = 30) -> Dict[int, int]:
        """Histogram of post-schedule completion latency, clamped at ``max_cycles``."""
        histogram: Dict[int, int] = {}
        for value in self.latencies(kind):
            bucket = min(value, max_cycles)
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return dict(sorted(histogram.items()))

    # -- idle-time accounting (Figures 11/12 idling panels) -----------------------

    def idle_fraction(self) -> float:
        """Average fraction of the run each data qubit spent idle."""
        if self.total_cycles <= 0 or self.num_qubits == 0:
            return 0.0
        fractions = []
        for qubit in range(self.num_qubits):
            busy = self.data_busy_cycles.get(qubit, 0)
            fractions.append(1.0 - min(busy, self.total_cycles) / self.total_cycles)
        return statistics.fmean(fractions)

    # -- counters -------------------------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.traces)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregate the paper reports across benchmarks)."""
    filtered = [value for value in values if value > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(value) for value in filtered) / len(filtered))


def aggregate_results(results: Iterable[SimulationResult]) -> Dict[str, float]:
    """Mean/min/max total cycles across repeated seeded runs of one configuration."""
    cycles = [result.total_cycles for result in results]
    if not cycles:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "runs": 0}
    return {
        "mean": statistics.fmean(cycles),
        "min": float(min(cycles)),
        "max": float(max(cycles)),
        "runs": float(len(cycles)),
    }
