"""Job-based experiment execution: planning and result caching.

Every sweep and comparison in the reproduction reduces to running a set of
independent (circuit, scheduler, config, layout, seed) points.  This package
makes that explicit:

* :mod:`repro.exec.jobs` — :class:`SimJob`, an immutable description of one
  simulation point with a stable content-hash fingerprint, plus planning
  helpers;
* :mod:`repro.exec.cache` — :class:`DirectoryCache`, the concurrent-safe
  result cache (write-once JSON files), so repeated sweeps — and concurrent
  ``rescq serve`` submissions — skip already-measured points.

Plans run through :class:`~repro.service.service.ExperimentService`, the one
job runner (``build_engine`` in :mod:`repro.api.facade` builds it from the
CLI's ``--jobs`` / ``--cache``).  Scheduler runs are seeded per job, so the
same job list gives the same list of
:class:`~repro.sim.results.SimulationResult` objects inline or across
worker processes.
"""

from .cache import (
    CacheCheck,
    CacheEntry,
    CacheStats,
    DirectoryCache,
    open_cache_backend,
)
from .jobs import SimJob, job_fingerprint, plan_jobs

__all__ = [
    "SimJob",
    "job_fingerprint",
    "plan_jobs",
    "CacheEntry",
    "CacheCheck",
    "DirectoryCache",
    "CacheStats",
    "open_cache_backend",
]
