"""The asyncio HTTP front end of ``rescq serve``.

A deliberately small HTTP/1.1 implementation on ``asyncio.start_server`` —
no framework, no new dependencies.  The transport dialect (the connection
loop, framing, limits, status table) lives in :mod:`repro.service.httpcore`,
shared with the cluster's :class:`~repro.cluster.router.ShardRouter`.
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
    depth, and admission mark.

Connections are ``Connection: close`` — each request gets a fresh
connection, which keeps the framing trivial and streams naturally (the end
of the response is the end of the stream).
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional

from ..api.envelope import EnvelopeError, SubmissionEnvelope, SubmissionReport
from ..api.resultset import ResultRow
from .httpcore import (HttpError, connection_handler, send_head, send_json,
                       send_line)
from .executor import COLLAPSE_MESSAGE
from .service import AdmissionError, ExperimentService

__all__ = ["ExperimentServer"]


def _retry_after_header(exc: AdmissionError) -> Dict[str, str]:
    """Admission refusals carry a whole-second ``Retry-After`` (RFC 9110)."""
    return {"Retry-After": str(max(1, math.ceil(exc.retry_after)))}


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
        self._server = await asyncio.start_server(
            connection_handler(self._route, self._handlers),
            host=self.host, port=self.port)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, finish in-flight requests, drain the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
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
            await send_json(writer, 200, self.service.snapshot())
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
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        try:
            envelope = SubmissionEnvelope.from_payload(payload)
        except EnvelopeError as exc:
            raise HttpError(400, str(exc)) from None
        loop = asyncio.get_event_loop()
        try:
            # Expansion builds circuits and layouts; keep the event loop
            # responsive (healthz during a huge expansion) by planning in a
            # thread.
            planned = await loop.run_in_executor(None, envelope.plan)
        except EnvelopeError as exc:
            raise HttpError(400, str(exc)) from None
        jobs = [job for _position, job in planned]

        try:
            resolved = self.service.submit_plan(jobs)
        except AdmissionError as exc:
            raise HttpError(429, str(exc),
                            headers=_retry_after_header(exc)) from None
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
