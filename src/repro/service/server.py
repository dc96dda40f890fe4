"""The asyncio HTTP front end of ``rescq serve``.

A deliberately small HTTP/1.1 implementation on stdlib asyncio — no
framework, no new dependencies.  The transport (the listener, connection
loop, framing, limits, status table, submission reader and Retry-After rule)
lives in :mod:`repro.service.httpcore`, shared with the cluster's
:class:`~repro.cluster.router.ShardRouter`; this module is the route table.
Routes:

``POST /experiments``
    Body: an :class:`~repro.api.spec.ExperimentSpec` JSON document or a
    :class:`~repro.api.envelope.SubmissionEnvelope`.  The response streams
    NDJSON: one canonical-JSON row per job **in plan order** as results
    materialise, then one trailing ``{"type": "summary", ...}`` record with
    the request's executed/cache/dedup counts.  Identical specs submitted
    twice produce byte-identical row streams (the summary line differs —
    the second run executes nothing).  An envelope ``indices`` field runs a
    sub-plan: only the jobs at those plan positions (the shard fan-out wire
    format).  When the service is over its admission high-water mark the
    submission is refused with ``429`` + ``Retry-After`` before any job is
    queued.
``GET /healthz``
    Liveness: ``200 {"status": "ok"}``, or ``503 {"status": "collapsed",
    ...}`` once the worker pool has collapsed for good, so the router's
    membership probe marks the shard DEAD and moves its keys elsewhere.
``GET /stats``
    The service's cumulative counters, in-flight table size, executor queue
    depth, and admission mark, plus ``plan_memo: {hits, misses, entries}``
    of this process's plan memo (:data:`~repro.service.httpcore.PLAN_MEMO`).
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..api.envelope import SubmissionReport
from ..api.resultset import ResultRow
from .httpcore import (PLAN_MEMO, HttpError, close, connection_handler,
                       listen, read_submission, retry_after_header,
                       send_head, send_json, send_line)
from .executor import COLLAPSE_MESSAGE
from .service import AdmissionError, ExperimentService

__all__ = ["ExperimentServer"]


class ExperimentServer:
    """Serve an :class:`ExperimentService` over HTTP."""

    def __init__(self, service: ExperimentService, host: str = "127.0.0.1",
                 port: int = 8765) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections; updates ``self.port``.

        The worker pool is warmed before the socket opens so the first
        request never pays worker start-up latency.
        """
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, self.service.executor.start)
        self._server, self.port = await listen(
            connection_handler(self._route, self._handlers),
            self.host, self.port)

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, finish in-flight requests, drain the executor."""
        await close(self._server, self._handlers)
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, lambda: self.service.shutdown(drain))

    # -- routing ---------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET for /healthz")
            if self.service.executor.collapsed:
                await send_json(writer, 503, {"status": "collapsed",
                                              "error": COLLAPSE_MESSAGE})
            else:
                await send_json(writer, 200, {"status": "ok"})
        elif path == "/stats":
            if method != "GET":
                raise HttpError(405, "use GET for /stats")
            await send_json(writer, 200, {**self.service.snapshot(),
                                          "plan_memo": PLAN_MEMO.stats()})
        elif path in ("/experiments", "/"):
            if method != "POST":
                raise HttpError(
                    405, "submit an ExperimentSpec with POST /experiments")
            await self._handle_submission(body, writer)
        else:
            raise HttpError(
                404, f"unknown path {path!r}; routes: POST /experiments, "
                     f"GET /healthz, GET /stats")

    # -- submission ------------------------------------------------------------

    async def _handle_submission(self, body: bytes,
                                 writer: asyncio.StreamWriter) -> None:
        envelope, planned, _spec_bytes = await read_submission(body)
        try:
            resolved = self.service.submit_plan(
                [job for _position, job in planned])
        except AdmissionError as exc:
            raise HttpError(429, str(exc), headers=retry_after_header(
                exc.retry_after)) from None
        await send_head(writer, 200, content_type="application/x-ndjson")
        errors = 0
        for item in resolved:
            try:
                result = await asyncio.wrap_future(item.future)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - stream the failure
                record = {"type": "error", "fingerprint": item.fingerprint,
                          "message": str(exc)}
                await send_line(writer, record)
                errors += 1
                continue
            row = ResultRow(benchmark=item.job.benchmark,
                            scheduler=item.job.scheduler_name,
                            seed=item.job.seed,
                            params=dict(item.job.tags),
                            result=result).summary()
            if envelope.include_status:
                row["status"] = item.status().to_dict()
            await send_line(writer, row)
        counts = self.service.counts_for(resolved)
        report = SubmissionReport(name=envelope.spec.name,
                                  request_id=envelope.request_id,
                                  errors=errors,
                                  **counts)
        await send_line(writer, report.to_dict())
