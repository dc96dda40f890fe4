"""Layer spans for the traced benchmark run.

The traced run wraps public entry points of each layer, resolved by name at
start-up, and records one span per call: name, start, end, parent span and
the request it belongs to.  The program itself is not edited; wrappers are
installed on the classes in the benchmark's own process and removed again
before the output checks run.

Aggregates (calls, inclusive seconds, self seconds) are exact for every
call.  Individual spans are kept in memory up to a cap and written out as
NDJSON when the run ends.  A layer's self time is its span's duration minus
the time its child spans cover, so self times over a job add up to the job
wall without double counting.

A target that no longer exists (a later refactor may delete it) is recorded
as ``absent`` instead of failing the run.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: span name -> "module:Class.method" targets whose calls it records.
SPAN_TARGETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("lattice.enumerate_plans",
     ("repro.lattice.routing:RoutingIndex.enumerate_plans",)),
    ("lattice.path", ("repro.lattice.routing:RoutingIndex.path",)),
    ("scheduling.schedule_pass",
     ("repro.scheduling.rescq:RescqPolicy.schedule_pass",)),
    ("kernel.handle_event",
     ("repro.scheduling.rescq:RescqPolicy.handle_event",
      "repro.scheduling.rescq:RescqPolicy.handle_event_batch")),
    ("scheduling.mst_tick", ("repro.scheduling.mst:AsyncMstPipeline.tick",)),
    ("scheduling.mst_path", ("repro.scheduling.mst:AncillaMst.path",)),
    ("scheduling.queue_ops",
     ("repro.scheduling.queues:QueueSet.enqueue",
      "repro.scheduling.queues:QueueSet.remove_gate_everywhere")),
    ("rus.sample",
     ("repro.rus.preparation:PreparationModel.sample_cycles",
      "repro.rus.preparation:PreparationModel.sample_cycles_batch",
      "repro.rus.preparation:PreparationModel.sample_attempts",
      "repro.rus.preparation:PreparationModel.sample_attempts_batch",
      "repro.rus.injection:InjectionModel.sample_outcome",
      "repro.rus.injection:InjectionModel.sample_outcomes_batch",
      "repro.rus.injection:InjectionModel.sample_injection_count",
      "repro.rus.injection:InjectionModel.sample_injection_counts")),
    ("kernel.activity_snapshot",
     ("repro.kernel.fabric_state:FabricState.activity_snapshot",)),
    ("kernel.retire",
     ("repro.kernel.lifecycle:GateLifecycle.retire",
      "repro.kernel.lifecycle:GateLifecycle.retire_many")),
    ("api.envelope_parse",
     ("repro.api.envelope:SubmissionEnvelope.from_payload",)),
    ("api.validate_expand",
     ("repro.api.spec:ExperimentSpec.validate",
      "repro.api.spec:ExperimentSpec.expand")),
    ("exec.fingerprint", ("repro.exec.jobs:SimJob.fingerprint",)),
    ("exec.cache_get",
     ("repro.exec.cache:DirectoryCache.get",
      "repro.exec.cache:SQLiteCache.get")),
    ("exec.cache_put",
     ("repro.exec.cache:DirectoryCache.put",
      "repro.exec.cache:SQLiteCache.put")),
    ("service.submit_plan",
     ("repro.service.service:ExperimentService.submit_plan",)),
    ("service.executor_submit",
     ("repro.service.executor:ServiceExecutor.submit",)),
    ("api.row_encode", ("repro.api.resultset:ResultRow.summary",)),
)

#: Injection outcomes are drawn inline by the RESCQ policy; counting the
#: calls of its outcome handler gives the exact success ratio.
OUTCOME_TARGET = "repro.scheduling.rescq:RescqPolicy._apply_injection_outcome"


def resolve(target: str):
    """``"module:Class.attr"`` -> ``(owner class, attr name, raw attribute)``.

    Returns ``None`` when the module, class or attribute no longer exists.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class Tracer:
    """Installs span wrappers and collects their aggregates and spans."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        #: span name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (name, start, end, span id, parent id, request key)
        self.spans: List[tuple] = []
        self.dropped = 0
        self.absent: List[str] = []
        self.counters: Dict[str, float] = {}
        #: Executor submissions: seconds from submit to future done.
        self.executor_waits: List[float] = []
        self._installed: List[Tuple[type, str, object]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        #: The request a span belongs to (set when an envelope is parsed;
        #: each connection handler runs in its own asyncio task context).
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None)
        #: id(spec) -> request key, so validate/expand calls that run in a
        #: worker thread (outside the handler's context) keep their key.
        self._spec_requests: Dict[int, str] = {}

    # -- recording ---------------------------------------------------------------

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        current = self._current
        parent = current.get()
        frame = [next(self._ids), 0.0]
        token = current.set(frame)
        start = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = _clock()
            current.reset(token)
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            own = elapsed - frame[1]
            with self._lock:
                total = self.totals.get(name)
                if total is None:
                    total = self.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += elapsed
                total[2] += own
                if len(self.spans) < self.max_spans:
                    self.spans.append((name, start, end, frame[0],
                                       parent[0] if parent else 0,
                                       self.request.get()))
                else:
                    self.dropped += 1

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + 1.0

    # -- installation -------------------------------------------------------------

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        found = resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        elif callable(raw):
            wrapped = make(raw)
        else:
            self.absent.append(target)
            return
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def install(self) -> "Tracer":
        for name, targets in SPAN_TARGETS:
            for target in targets:
                self._patch(target, self._span_wrapper(name, target))
        self._patch(OUTCOME_TARGET, self._outcome_wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def _span_wrapper(self, name: str, target: str):
        call = self.call
        if target.endswith("SubmissionEnvelope.from_payload"):
            return lambda func: self._envelope_wrapper(name, func)
        if target.endswith(("ExperimentSpec.validate",
                            "ExperimentSpec.expand")):
            return lambda func: self._spec_wrapper(name, func)
        if target.endswith("ServiceExecutor.submit"):
            return lambda func: self._submit_wrapper(name, func)

        def make(func):
            def wrapper(*args, **kwargs):
                return call(name, func, *args, **kwargs)
            wrapper.__wrapped__ = func
            return wrapper
        return make

    def _envelope_wrapper(self, name: str, func):
        def wrapper(cls, payload):
            envelope = self.call(name, func, cls, payload)
            key = envelope.request_id or f"spec:{envelope.spec.name}"
            self.request.set(key)
            with self._lock:
                self._spec_requests[id(envelope.spec)] = key
            return envelope
        wrapper.__wrapped__ = func
        return wrapper

    def _spec_wrapper(self, name: str, func):
        def wrapper(spec, *args, **kwargs):
            token = None
            if self.request.get() is None:
                key = self._spec_requests.get(id(spec))
                if key is not None:
                    token = self.request.set(key)
            try:
                return self.call(name, func, spec, *args, **kwargs)
            finally:
                if token is not None:
                    self.request.reset(token)
        wrapper.__wrapped__ = func
        return wrapper

    def _submit_wrapper(self, name: str, func):
        waits = self.executor_waits

        def wrapper(executor, job):
            submitted = _clock()
            future = self.call(name, func, executor, job)
            future.add_done_callback(
                lambda _done: waits.append(_clock() - submitted))
            return future
        wrapper.__wrapped__ = func
        return wrapper

    def _outcome_wrapper(self, func):
        count = self.count

        def wrapper(policy, task, success):
            count("injection_outcomes")
            if success:
                count("injection_successes")
            return func(policy, task, success)
        wrapper.__wrapped__ = func
        return wrapper

    # -- results ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def self_seconds(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def write(self, path: str, header: Optional[dict] = None) -> None:
        """Write the kept spans as NDJSON (one header line, then spans)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "header": header or {}, "spans_kept": len(self.spans),
                "spans_dropped": self.dropped, "absent": self.absent,
                "totals": self.totals}, sort_keys=True) + "\n")
            for name, start, end, span_id, parent, request in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "id": span_id, "parent": parent,
                     "request_id": request}) + "\n")
