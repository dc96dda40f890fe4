"""repro.service: the one job runner, and the experiment server around it.

Layers, bottom up:

* :mod:`~repro.service.executor` — a work-stealing process pool with
  per-job timeouts, bounded retry on worker death, and graceful drain;
* :mod:`~repro.service.singleflight` — in-flight deduplication so an
  identical job submitted concurrently runs exactly once;
* :mod:`~repro.service.service` — cache + single-flight + inline or pooled
  execution behind one :class:`ExperimentService` object, the runner behind
  both batch runs and ``rescq serve``;
* :mod:`~repro.service.httpcore` — the one HTTP layer of server, router,
  chaos proxy and CLI (listener, framing, limits, submission reader, clients);
* :mod:`~repro.service.server` — the asyncio HTTP front end (NDJSON
  streaming, ``/healthz``, ``/stats``).

Attribute access is lazy (PEP 562): batch runs import
:mod:`~repro.service.service` on every ``import repro``, and should not pay
for the asyncio HTTP front end they never start.
"""

_EXPORTS = {
    "JobFailedError": "executor",
    "JobTimeoutError": "executor",
    "ServiceExecutor": "executor",
    "WorkerCrashError": "executor",
    "ExperimentServer": "server",
    "AdmissionError": "service",
    "ExperimentService": "service",
    "ResolvedJob": "service",
    "ServiceStats": "service",
    "SingleFlight": "singleflight",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
