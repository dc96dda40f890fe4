"""The one HTTP layer of ``rescq serve``, ``rescq route`` and their tools.

:class:`~repro.service.server.ExperimentServer`,
:class:`~repro.cluster.router.ShardRouter` and the cluster's
:class:`~repro.cluster.chaos.ChaosProxy` speak the same deliberately small
dialect: ``Connection: close`` framing (one request per connection, the end
of the response is the end of the stream), bounded request heads and bodies,
canonical-JSON payloads.  This module is the single home for that dialect:

* the listener (:func:`listen`, :func:`close`, :func:`spawn`) all three
  bind, discover their port and shut down with;
* the connection loop, the parsing/writing helpers, the status table and
  the size limits (one ``MAX_BODY`` constant guards every process in a
  cluster);
* the submission reader both front ends accept ``POST /experiments`` with,
  and the one ``Retry-After`` rule for their 429s;
* the process's plan memo (:data:`PLAN_MEMO`) that reader plans through:
  a spec's canonical JSON bytes, plus the size and mtime of each ``.qasm``
  file it names, map to its whole fingerprinted job plan, so each process
  plans a spec once.  Least recently used plans are evicted past
  :data:`PLAN_MEMO_ENTRIES` plans or :data:`PLAN_MEMO_WEIGHT` summed gates
  + tiles + jobs; invalid specs are never held.  Both front ends report
  its ``{hits, misses, entries}`` as ``plan_memo`` in ``GET /stats``;
* the asyncio client the router talks to its shards with, and the blocking
  client of the cluster harness and ``rescq cluster status``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import threading
from collections import OrderedDict
from typing import (TYPE_CHECKING, AsyncIterator, Awaitable, Callable, Dict,
                    List, Mapping, NamedTuple, Optional, Set, Tuple)
from urllib.parse import urlsplit

from ..api.envelope import EnvelopeError, SubmissionEnvelope
from ..api.spec import ExperimentSpec, SpecValidationError
from ..canonical import canonical_dumps

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.jobs import SimJob

__all__ = [
    "HttpError",
    "blocking_request",
    "close",
    "connection_handler",
    "listen",
    "MAX_BODY",
    "MAX_HEADERS",
    "MAX_REQUEST_LINE",
    "PLAN_MEMO",
    "PlanMemo",
    "STATUS_TEXT",
    "Submission",
    "parse_http_url",
    "read_request",
    "read_submission",
    "retry_after_header",
    "send_head",
    "send_json",
    "send_line",
    "spawn",
    "http_request",
    "iter_ndjson",
    "open_http_stream",
]

#: Longest accepted request/header line, in bytes.
MAX_REQUEST_LINE = 8192
#: Maximum number of request headers.
MAX_HEADERS = 100
#: Maximum request body size, in bytes.  Shared by every HTTP front end in
#: the package (server and router reject oversized POSTs identically), so a
#: request the router accepts is never rejected by the shard it lands on.
MAX_BODY = 16 * 1024 * 1024

STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """An HTTP-level rejection carrying its status and optional headers."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Mapping[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


# -- server-side parsing -------------------------------------------------------

async def read_request(reader: asyncio.StreamReader
                       ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Read one full request: ``(method, path, headers, body)``.

    Raises :class:`HttpError` on malformed input and on heads/bodies that
    exceed the module limits; the body of an oversized ``Content-Length`` is
    never read into memory (413 fires on the declared length alone).
    """
    method, path, headers = await _read_head(reader)
    body = await _read_body(reader, headers)
    return method, path, headers, body


async def _read_head(reader: asyncio.StreamReader
                     ) -> Tuple[str, str, Dict[str, str]]:
    line = await reader.readline()
    if not line:
        raise HttpError(400, "empty request")
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return method.upper(), path, headers
        if len(line) > MAX_REQUEST_LINE:
            raise HttpError(400, "header line too long")
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise HttpError(400, "too many headers")


async def _read_body(reader: asyncio.StreamReader,
                     headers: Dict[str, str]) -> bytes:
    length_text = headers.get("content-length")
    if not length_text:
        return b""
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400,
                        f"bad Content-Length {length_text!r}") from None
    if length < 0 or length > MAX_BODY:
        raise HttpError(413, f"body of {length} bytes exceeds the "
                             f"{MAX_BODY} byte limit")
    return await reader.readexactly(length)


class PlanMemo:
    """A bounded LRU map from a spec's memo key to its expanded job plan.

    The key is the spec's canonical JSON bytes plus the stat signature of
    every ``.qasm`` file it names (see :func:`read_submission`); the value
    is the spec's whole job plan with every fingerprint computed.  Jobs are
    immutable records, so requests share them.  What is held is bounded
    twice: at most ``max_entries`` plans, and at most ``max_weight`` summed
    :func:`plan_weight`.  The least recently used plans go first, and a
    plan heavier than the whole budget is never stored.  Front ends on
    different event loops of one process share the memo, so it locks.
    """

    def __init__(self, max_entries: int, max_weight: int) -> None:
        self.max_entries = max_entries
        self.max_weight = max_weight
        self.hits = 0
        self.misses = 0
        self._plans: "OrderedDict[tuple, Tuple[List[SimJob], int]]" = \
            OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[List["SimJob"]]:
        """The plan held under ``key`` (now most recently used), or None."""
        with self._lock:
            held = self._plans.get(key)
            if held is None:
                self.misses += 1
                return None
            self.hits += 1
            self._plans.move_to_end(key)
            return held[0]

    def put(self, key: tuple, jobs: List["SimJob"]) -> None:
        """Hold ``jobs`` under ``key``, evicting down to the bounds."""
        weight = plan_weight(jobs)
        if weight > self.max_weight:
            return
        with self._lock:
            if key in self._plans:
                return
            self._plans[key] = (jobs, weight)
            self._weight += weight
            while (len(self._plans) > self.max_entries
                   or self._weight > self.max_weight):
                _key, (_jobs, evicted) = self._plans.popitem(last=False)
                self._weight -= evicted

    def stats(self) -> Dict[str, int]:
        """``{hits, misses, entries}``, as ``GET /stats`` reports them."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._plans)}


def plan_weight(jobs: List["SimJob"]) -> int:
    """What a plan holds: the gates of its distinct circuits, the tiles of
    its distinct layouts, and one per job."""
    gates = {id(job.circuit): len(job.circuit) for job in jobs}
    tiles = {id(job.layout): job.layout.rows * job.layout.cols
             for job in jobs}
    return sum(gates.values()) + sum(tiles.values()) + len(jobs)


#: Most plans :data:`PLAN_MEMO` holds.  An n=4 scenario plan of four jobs
#: is about 16 KB, so a full memo of them is about 2 MB.
PLAN_MEMO_ENTRIES = 128
#: Most summed :func:`plan_weight` :data:`PLAN_MEMO` holds.  A 1000-qubit
#: spec on 4,096 tiles weighs about 5,600 (about 3 MB), so at most a few
#: such plans are held at once.
PLAN_MEMO_WEIGHT = 32_768
#: The process's plan memo, which :func:`read_submission` plans through.
PLAN_MEMO = PlanMemo(PLAN_MEMO_ENTRIES, PLAN_MEMO_WEIGHT)


class Submission(NamedTuple):
    """A decoded ``POST /experiments`` body."""

    envelope: SubmissionEnvelope
    #: The ``(plan position, job)`` pairs the envelope runs.
    planned: List[Tuple[int, "SimJob"]]
    #: The spec's canonical JSON: the memo key, and what the router
    #: splices into each shard envelope.
    spec_bytes: bytes


def _qasm_signature(spec: ExperimentSpec) -> Tuple[tuple, ...]:
    """``(path, size, mtime_ns)`` of each ``.qasm`` file ``spec`` names.

    Part of the memo key, so a rewritten file is planned again, as
    ``workloads.registry``'s import memo re-parses it (a file that cannot
    be stat'ed signs as ``(path,)``; its spec fails validation).
    """
    signature = []
    for name in spec.benchmarks:
        if name.endswith(".qasm"):
            try:
                stat = os.stat(name)
            except OSError:
                signature.append((name,))
                continue
            signature.append((name, stat.st_size, stat.st_mtime_ns))
    return tuple(signature)


async def read_submission(body: bytes) -> Submission:
    """Decode a ``POST /experiments`` body into a :class:`Submission`.

    The spec's plan comes from :data:`PLAN_MEMO` when this process holds
    it; the lookup runs on the event loop, so a hit costs no thread hop.
    A miss expands the spec and computes every job's fingerprint in a
    thread (building circuits and layouts and hashing them is slow, and a
    huge grid must not block ``/healthz``), then stores the plan.  The
    envelope's ``indices`` are selected after the lookup, so all sub-plans
    of one spec share an entry.  Bad JSON, a bad envelope, an invalid spec
    and out-of-range ``indices`` are 400s on every submission: an invalid
    spec is never stored, and ``indices`` are checked against the plan
    each time.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(400, f"body is not valid JSON: {exc}") from None
    try:
        envelope = SubmissionEnvelope.from_payload(payload)
    except EnvelopeError as exc:
        raise HttpError(400, str(exc)) from None
    spec = envelope.spec
    spec_bytes = canonical_dumps(spec.to_dict()).encode("utf-8")
    key = (spec_bytes, _qasm_signature(spec))
    jobs = PLAN_MEMO.get(key)
    if jobs is None:
        def expand() -> List["SimJob"]:
            expanded = spec.expand()
            for job in expanded:
                job.fingerprint()  # memoised on the job
            return expanded

        try:
            jobs = await asyncio.get_event_loop().run_in_executor(None,
                                                                  expand)
        except SpecValidationError as exc:
            raise HttpError(400, str(exc)) from None
        PLAN_MEMO.put(key, jobs)
    try:
        planned = envelope.select(jobs)
    except EnvelopeError as exc:
        raise HttpError(400, str(exc)) from None
    return Submission(envelope, planned, spec_bytes)


def retry_after_header(seconds: float) -> Dict[str, str]:
    """A 429's ``Retry-After``: whole seconds (RFC 9110), at least 1."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


# -- listening -----------------------------------------------------------------

async def listen(on_connection: Callable[..., None], host: str, port: int
                 ) -> Tuple[asyncio.AbstractServer, int]:
    """Bind ``host:port`` and return ``(server, bound_port)``.

    ``port`` 0 binds an ephemeral port; the bound one is read back from
    the socket, which is what ``RESCQ_READY ... port=`` reports.
    """
    server = await asyncio.start_server(on_connection, host=host, port=port)
    for sock in server.sockets or ():
        return server, sock.getsockname()[1]
    return server, port


async def close(server: Optional[asyncio.AbstractServer],
                tasks: Set["asyncio.Task"], cancel: bool = False) -> None:
    """Stop accepting, then await (or, with ``cancel``, cancel) ``tasks``."""
    if server is not None:
        server.close()
        await server.wait_closed()
    if cancel:
        for task in list(tasks):
            task.cancel()
    if tasks:
        await asyncio.gather(*list(tasks), return_exceptions=True)


def spawn(tasks: Set["asyncio.Task"], coro: Awaitable[None]) -> None:
    """Run ``coro`` as a task kept in ``tasks`` until it ends."""
    task = asyncio.ensure_future(coro)
    tasks.add(task)
    task.add_done_callback(tasks.discard)


# -- connection handling -------------------------------------------------------

def connection_handler(
        route: Callable[[str, str, bytes, asyncio.StreamWriter],
                        Awaitable[None]],
        handlers: Set["asyncio.Task"]) -> Callable[..., None]:
    """A :func:`listen` callback for one front end.

    Each connection runs as a task kept in ``handlers`` until it ends (so
    ``stop`` can await the requests in flight): it reads one request, hands
    ``(method, path, body, writer)`` to the front end's ``route`` table and
    closes.  An :class:`HttpError` becomes its status with ``{"error":
    message}``, any other exception a 500 ``internal error: ...``; a client
    that hangs up mid-request gets nothing.
    """
    async def serve(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, _headers, body = await read_request(reader)
                await route(method, path, body, writer)
            except HttpError as exc:
                await send_json(writer, exc.status, {"error": exc.message},
                                headers=exc.headers)
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            except Exception as exc:  # noqa: BLE001 - last-resort handler
                try:
                    await send_json(
                        writer, 500, {"error": f"internal error: {exc}"})
                except (ConnectionError, RuntimeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def on_connection(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        spawn(handlers, serve(reader, writer))
    return on_connection


# -- server-side writing -------------------------------------------------------

async def send_head(writer: asyncio.StreamWriter, status: int,
                    content_type: str,
                    content_length: Optional[int] = None,
                    headers: Optional[Mapping[str, str]] = None) -> None:
    lines = [f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()


async def send_line(writer: asyncio.StreamWriter,
                    record: Mapping[str, object]) -> None:
    """Write one canonical-JSON NDJSON record."""
    writer.write((canonical_dumps(dict(record)) + "\n").encode("utf-8"))
    await writer.drain()


async def send_json(writer: asyncio.StreamWriter, status: int,
                    payload: Mapping[str, object],
                    headers: Optional[Mapping[str, str]] = None) -> None:
    body = (canonical_dumps(dict(payload)) + "\n").encode("utf-8")
    await send_head(writer, status, "application/json",
                    content_length=len(body), headers=headers)
    writer.write(body)
    await writer.drain()


# -- client side ---------------------------------------------------------------

def parse_http_url(url: str) -> Tuple[str, int, str]:
    """Split ``http://host:port[/base]`` into ``(host, port, base_path)``.

    Only plain ``http`` is supported (the cluster protocol is loopback/LAN
    plumbing, not a public edge).  Raises ``ValueError`` naming ``url``
    otherwise, including for a port that is not a number in 0-65535.
    """
    split = urlsplit(url)
    if split.scheme != "http":
        raise ValueError(f"expected an http://host:port URL, got {url!r}")
    if not split.hostname:
        raise ValueError(f"URL {url!r} has no host")
    try:
        port = split.port
    except ValueError as exc:
        raise ValueError(f"URL {url!r} has a bad port: {exc}") from None
    base = split.path.rstrip("/")
    return split.hostname, 80 if port is None else port, base


def blocking_request(host: str, port: int, method: str, path: str,
                     payload=None, raw: Optional[bytes] = None,
                     timeout: float = 300.0) -> Tuple[int, dict, bytes]:
    """One blocking HTTP exchange: ``(status, headers, body)``.

    ``payload`` is sent as JSON, ``raw`` as given; header names come back
    lowercased.  For callers outside an event loop (the cluster harness,
    ``rescq cluster status``); the router uses :func:`http_request`.
    Raises ``OSError`` when the peer cannot be reached or does not answer
    in HTTP.
    """
    body = raw if raw is not None else (
        json.dumps(payload).encode("utf-8")
        if payload is not None else None)
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        headers = {name.lower(): value
                   for name, value in response.getheaders()}
        return response.status, headers, response.read()
    except http.client.HTTPException as exc:
        raise OSError(f"no HTTP answer from {host}:{port}: {exc!r}") from None
    finally:
        connection.close()


async def open_http_stream(host: str, port: int, method: str, path: str,
                           body: Optional[bytes] = None,
                           connect_timeout: Optional[float] = 5.0,
                           head_timeout: Optional[float] = None,
                           ) -> Tuple[int, Dict[str, str],
                                      asyncio.StreamReader,
                                      asyncio.StreamWriter]:
    """Issue one request and return ``(status, headers, reader, writer)``.

    The response body is left unread on ``reader`` so callers can stream it
    (``Connection: close`` framing: read until EOF).  ``connect_timeout``
    bounds the TCP connect + request write; ``head_timeout`` bounds the wait
    for the response head (``None`` waits indefinitely, which is right for
    ``POST /experiments`` — the head only arrives once the spec is expanded).
    Raises ``OSError``/``asyncio.TimeoutError`` on connection-level failure.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), connect_timeout)
    try:
        head = [f"{method} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                "Connection: close"]
        if body is not None:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if body:
            writer.write(body)
        await asyncio.wait_for(writer.drain(), connect_timeout)
        status_line = await asyncio.wait_for(reader.readline(), head_timeout)
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise OSError(f"malformed response head {status_line!r} "
                          f"from {host}:{port}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS):
            line = await asyncio.wait_for(reader.readline(), head_timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, reader, writer
    except BaseException:
        writer.close()
        raise


async def http_request(host: str, port: int, method: str, path: str,
                       body: Optional[bytes] = None,
                       timeout: Optional[float] = 5.0
                       ) -> Tuple[int, Dict[str, str], bytes]:
    """Buffered request/response (for small control-plane exchanges)."""
    status, headers, reader, writer = await open_http_stream(
        host, port, method, path, body=body, connect_timeout=timeout,
        head_timeout=timeout)
    try:
        data = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
    return status, headers, data


async def iter_ndjson(reader: asyncio.StreamReader
                      ) -> AsyncIterator[bytes]:
    """Yield raw NDJSON lines (newline included) until EOF."""
    while True:
        line = await reader.readline()
        if not line:
            return
        yield line
