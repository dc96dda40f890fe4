"""The execution engine: cache lookup + executor dispatch for job plans.

:class:`ExecutionEngine` is the single object the rest of the codebase deals
with.  Callers plan a list of :class:`~repro.exec.jobs.SimJob` records and
hand it to :meth:`ExecutionEngine.run`; the engine resolves each job from the
cache when possible, fans the misses out through its executor, stores fresh
results back, and returns results in job order — so callers can slice the
result list positionally against their plan regardless of how (or whether)
the work was parallelised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .cache import DirectoryCache
from .executors import Executor, SerialExecutor
from .jobs import SimJob
from ..sim.results import SimulationResult

__all__ = ["ExecutionEngine", "EngineStats"]


@dataclass
class EngineStats:
    """Cumulative accounting over an engine's lifetime."""

    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0

    def describe(self) -> str:
        return (f"jobs={self.jobs} executed={self.executed} "
                f"cache_hits={self.cache_hits}")


class ExecutionEngine:
    """Runs job plans through an executor with optional result caching.

    Parameters
    ----------
    executor:
        How cache misses are executed; defaults to :class:`SerialExecutor`.
    cache:
        Optional :class:`~repro.exec.cache.DirectoryCache`.  When set,
        every job is first looked up by fingerprint and every fresh result
        is stored back.
    """

    def __init__(self, executor: Optional[Executor] = None,
                 cache: Optional[DirectoryCache] = None) -> None:
        self.executor = executor or SerialExecutor()
        self.cache = cache
        self.stats = EngineStats()

    def run(self, jobs: Sequence[SimJob]) -> List[SimulationResult]:
        """Execute ``jobs`` and return their results in job order."""
        jobs = list(jobs)
        self.stats.jobs += len(jobs)
        if not jobs:
            return []

        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        pending: List[int] = []
        if self.cache is not None:
            for index, job in enumerate(jobs):
                cached = self.cache.get(job.fingerprint())
                if cached is not None:
                    results[index] = cached
                else:
                    pending.append(index)
            self.stats.cache_hits += len(jobs) - len(pending)
        else:
            pending = list(range(len(jobs)))

        if pending:
            fresh = self.executor.run_jobs([jobs[index] for index in pending])
            self.stats.executed += len(pending)
            for index, result in zip(pending, fresh):
                results[index] = result
                if self.cache is not None:
                    self.cache.put(jobs[index].fingerprint(), result)

        return results  # type: ignore[return-value]

    def describe(self) -> str:
        text = f"[exec] {self.stats.describe()}"
        if self.cache is not None:
            text += f" {self.cache.stats.describe()}"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = "on" if self.cache is not None else "off"
        return (f"ExecutionEngine(executor={self.executor.describe()}, "
                f"cache={cache})")
