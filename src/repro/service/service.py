"""ExperimentService: cache + single-flight + executor, behind one object.

This is the one job runner: batch runs (``rescq run/sweep/exp``, the
analysis drivers, the benchmark harnesses) and ``rescq serve`` both hand it
an expanded :class:`~repro.exec.jobs.SimJob` plan, and it resolves every job
to a future through three layers —

1. **single-flight** — an identical job already running (submitted by this
   or any concurrent request) is joined, not re-executed;
2. **cache** — a finished identical job is returned straight from the
   :class:`~repro.exec.cache.DirectoryCache`;
3. **execution** — everything else runs inline in the calling thread
   (``executor=None``, the ``--jobs 1`` path) or is fanned out over the
   work-stealing :class:`~repro.service.executor.ServiceExecutor`, and is
   stored back into the cache on completion.

The result: submitting the same :class:`~repro.api.spec.ExperimentSpec` N
times — sequentially or concurrently — executes each unique simulation
point exactly once.  :meth:`ExperimentService.run` returns a plan's results
in plan order, whichever way the jobs ran.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import CancelledError, Future
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..api.envelope import JobStatus
from ..exec.cache import DirectoryCache
from .executor import ServiceExecutor
from .singleflight import SingleFlight

__all__ = ["AdmissionError", "ExperimentService", "ResolvedJob",
           "ServiceStats"]


class AdmissionError(RuntimeError):
    """The service is over its pending-jobs high-water mark; try again later.

    Carries ``retry_after`` (seconds) so HTTP front ends can answer
    ``429 Too Many Requests`` with a ``Retry-After`` header instead of
    queueing the request unboundedly.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class ServiceStats:
    """Cumulative accounting over the service's lifetime."""

    requests: int = 0
    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    errors: int = 0
    rejected: int = 0  # requests refused by admission control (HTTP 429)

    def describe(self) -> str:
        return (f"requests={self.requests} jobs={self.jobs} "
                f"executed={self.executed} cache_hits={self.cache_hits} "
                f"deduped={self.deduped} errors={self.errors} "
                f"rejected={self.rejected}")


@dataclass(frozen=True)
class ResolvedJob:
    """One planned job, its resolution source, and the future of its result."""

    job: object  # SimJob
    fingerprint: str
    source: str  # one of JobStatus.SOURCES
    future: "Future"

    def status(self) -> JobStatus:
        return JobStatus(
            fingerprint=self.fingerprint,
            benchmark=self.job.benchmark,
            scheduler=self.job.scheduler_name,
            seed=self.job.seed,
            params=dict(self.job.tags),
            source=self.source,
        )


class ExperimentService:
    """Deduplicating, cache-backed job resolution for batch runs and serve.

    With ``executor=None`` every job runs inline, in the thread that submits
    it, and a job's own exception reaches the caller unchanged through its
    future; :meth:`run` then stops at the first failing job.  Used as a
    context manager, the service drains on a clean exit and cancels queued
    work when the block raises.
    """

    def __init__(self, executor: Optional[ServiceExecutor] = None,
                 cache: Optional[DirectoryCache] = None,
                 max_pending: Optional[int] = None,
                 retry_after: float = 1.0) -> None:
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        self.executor = executor
        self.cache = cache
        #: Admission-control high-water mark on the pending-jobs gauge
        #: (``executor.queue_depth``: submitted-but-unfinished jobs).  A
        #: request arriving while the gauge is at or above the mark is
        #: rejected with :class:`AdmissionError` instead of queued; ``None``
        #: disables admission control.  One admitted plan may overshoot the
        #: mark — the bound is on *queueing*, not on plan size.
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.singleflight = SingleFlight()
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()

    # -- resolution ------------------------------------------------------------

    def resolve(self, job) -> ResolvedJob:
        """Resolve one job through single-flight, cache, then the executor.

        Thread-safe; never blocks on the simulation itself (the returned
        future materialises the result).
        """
        key = job.fingerprint()
        leader, flight = self.singleflight.begin(key)
        if not leader:
            with self._stats_lock:
                self.stats.deduped += 1
            return ResolvedJob(job=job, fingerprint=key, source="deduped",
                               future=flight)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                with self._stats_lock:
                    self.stats.cache_hits += 1
                self.singleflight.finish(key, cached)
                return ResolvedJob(job=job, fingerprint=key, source="cache",
                                   future=flight)
        with self._stats_lock:
            self.stats.executed += 1
        if self.executor is None:
            execution: "Future" = Future()
            try:
                execution.set_result(job.run())
            except Exception as exc:  # noqa: BLE001 - the caller gets it
                execution.set_exception(exc)
        else:
            try:
                execution = self.executor.submit(job)
            except RuntimeError as exc:  # shut down, or workers cannot spawn
                self.singleflight.fail(key, exc)
                raise
        execution.add_done_callback(
            lambda done, key=key: self._publish(key, done))
        return ResolvedJob(job=job, fingerprint=key, source="executed",
                           future=flight)

    def _publish(self, key: str, done: "Future") -> None:
        """Store the leader's result (write-once) and release the flight."""
        exc = CancelledError() if done.cancelled() else done.exception()
        if exc is not None:
            with self._stats_lock:
                self.stats.errors += 1
            self.singleflight.fail(key, exc)
            return
        result = done.result()
        if self.cache is not None:
            try:
                self.cache.put(key, result)
            except Exception:  # noqa: BLE001 - cache faults must not lose results
                pass
        self.singleflight.finish(key, result)

    @property
    def pending_jobs(self) -> int:
        """The admission-control gauge: submitted-but-unfinished jobs."""
        return 0 if self.executor is None else self.executor.queue_depth

    def admit(self, jobs: Sequence) -> None:
        """Raise :class:`AdmissionError` if the pending gauge is at the mark.

        Deduplicated and cached jobs never reach the executor, so a burst of
        *identical* submissions sails through admission (the gauge only
        counts unique in-flight simulations); it is a flood of *distinct*
        work that trips the mark.
        """
        if self.max_pending is None:
            return
        pending = self.pending_jobs
        if pending >= self.max_pending:
            with self._stats_lock:
                self.stats.rejected += 1
            raise AdmissionError(
                f"{pending} pending job(s) at/above the max_pending="
                f"{self.max_pending} high-water mark; retry after "
                f"{self.retry_after:g}s", retry_after=self.retry_after)

    def submit_plan(self, jobs: Sequence) -> List[ResolvedJob]:
        """Resolve a whole job plan, preserving plan order.

        Raises :class:`AdmissionError` (without resolving anything) when the
        pending-jobs gauge is at the high-water mark.
        """
        return list(self._resolve_plan(jobs))

    def _resolve_plan(self, jobs: Sequence) -> Iterator[ResolvedJob]:
        with self._stats_lock:
            self.stats.requests += 1
        self.admit(jobs)
        with self._stats_lock:
            self.stats.jobs += len(jobs)
        for job in jobs:
            yield self.resolve(job)

    def run(self, jobs: Sequence) -> List[object]:
        """Resolve ``jobs`` and return their results in plan order.

        Inline, each job runs only once the one before it has succeeded, so
        the first failing job stops the plan and its exception is raised.
        """
        plan = (self._resolve_plan(jobs) if self.executor is None
                else self.submit_plan(jobs))
        return [item.future.result() for item in plan]

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time stats for the ``/stats`` endpoint."""
        with self._stats_lock:
            stats: Dict[str, object] = asdict(self.stats)
        stats["in_flight"] = len(self.singleflight)
        stats["queue_depth"] = self.pending_jobs
        stats["max_pending"] = self.max_pending
        if self.cache is not None:
            cache_stats = self.cache.stats
            stats["cache"] = {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
            }
        return stats

    def counts_for(self, resolved: Sequence[ResolvedJob]
                   ) -> Dict[str, int]:
        """Per-request summary counts (the trailing NDJSON summary record)."""
        sources = Counter(item.source for item in resolved)
        return {"jobs": len(resolved), "executed": sources["executed"],
                "cache_hits": sources["cache"], "deduped": sources["deduped"]}

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self, drain: bool = True) -> None:
        """Drain the executor (``drain=False`` cancels queued work)."""
        if self.executor is not None:
            self.executor.shutdown(drain=drain)

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.shutdown(drain=exc_type is None)

    def describe(self) -> str:
        text = f"[service] {self.stats.describe()}"
        if self.cache is not None:
            text += f" {self.cache.stats.describe()}"
        return text
