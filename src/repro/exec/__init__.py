"""Job-based experiment execution: planning, executors, and result caching.

Every sweep and comparison in the reproduction reduces to running a set of
independent (circuit, scheduler, config, layout, seed) points.  This package
makes that explicit:

* :mod:`repro.exec.jobs` — :class:`SimJob`, an immutable description of one
  simulation point with a stable content-hash fingerprint, plus planning
  helpers;
* :mod:`repro.exec.executors` — pluggable strategies for running a list of
  jobs: :class:`SerialExecutor` (the deterministic reference) and
  :class:`ParallelExecutor` (a ``ProcessPoolExecutor`` fan-out);
* :mod:`repro.exec.cache` — :class:`DirectoryCache`, the concurrent-safe
  result cache (write-once JSON files), so repeated sweeps — and concurrent
  ``rescq serve`` submissions — skip already-measured points;
* :mod:`repro.exec.engine` — :class:`ExecutionEngine`, which ties an executor
  and an optional cache together and is the object the runner, sweeps, CLI
  (``--jobs`` / ``--cache``) and benchmark harnesses all accept.

Executors preserve job order, and scheduler runs are seeded per job, so for
the same job list every executor produces the same list of
:class:`~repro.sim.results.SimulationResult` objects.
"""

from .cache import (
    CacheCheck,
    CacheEntry,
    CacheStats,
    DirectoryCache,
    open_cache_backend,
)
from .engine import EngineStats, ExecutionEngine
from .executors import Executor, ParallelExecutor, SerialExecutor
from .jobs import SimJob, job_fingerprint, plan_jobs

__all__ = [
    "SimJob",
    "job_fingerprint",
    "plan_jobs",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "CacheEntry",
    "CacheCheck",
    "DirectoryCache",
    "CacheStats",
    "open_cache_backend",
    "ExecutionEngine",
    "EngineStats",
]
