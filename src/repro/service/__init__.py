"""repro.service: the sharded experiment service behind ``rescq serve``.

Layers, bottom up:

* :mod:`~repro.service.executor` — a work-stealing process pool with
  per-job timeouts, bounded retry on worker death, and graceful drain;
* :mod:`~repro.service.singleflight` — in-flight deduplication so an
  identical job submitted concurrently runs exactly once;
* :mod:`~repro.service.service` — cache + single-flight + executor behind
  one :class:`ExperimentService` object;
* :mod:`~repro.service.httpcore` — the shared HTTP/1.1 transport dialect
  (framing, limits, the stdlib asyncio client used by the cluster router);
* :mod:`~repro.service.server` — the asyncio HTTP front end (NDJSON
  streaming, ``/healthz``, ``/stats``).
"""

from .executor import (JobFailedError, JobTimeoutError, ServiceExecutor,
                       WorkerCrashError)
from .server import ExperimentServer
from .service import (AdmissionError, ExperimentService, ResolvedJob,
                      ServiceStats)
from .singleflight import SingleFlight

__all__ = [
    "AdmissionError",
    "ExperimentServer",
    "ExperimentService",
    "JobFailedError",
    "JobTimeoutError",
    "ResolvedJob",
    "ServiceExecutor",
    "ServiceStats",
    "SingleFlight",
    "WorkerCrashError",
]
