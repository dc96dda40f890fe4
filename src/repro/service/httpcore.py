"""Shared HTTP/1.1 plumbing for the experiment server and the shard router.

Both :class:`~repro.service.server.ExperimentServer` and
:class:`~repro.cluster.router.ShardRouter` speak the same deliberately small
dialect: ``Connection: close`` framing (one request per connection, the end
of the response is the end of the stream), bounded request heads and bodies,
canonical-JSON payloads.  This module is the single home for that dialect —
the connection loop, the parsing/writing helpers, the status table, the
size limits (one ``MAX_BODY`` constant guards every process in a cluster)
and the minimal asyncio client the router uses to talk to its shards.

Nothing here knows about experiments; it is transport only.
"""

from __future__ import annotations

import asyncio
from typing import (AsyncIterator, Awaitable, Callable, Dict, Mapping,
                    Optional, Set, Tuple)
from urllib.parse import urlsplit

from ..canonical import canonical_dumps

__all__ = [
    "HttpError",
    "connection_handler",
    "MAX_BODY",
    "MAX_HEADERS",
    "MAX_REQUEST_LINE",
    "STATUS_TEXT",
    "parse_http_url",
    "read_request",
    "send_head",
    "send_json",
    "send_line",
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


# -- connection handling -------------------------------------------------------

def connection_handler(
        route: Callable[[str, str, bytes, asyncio.StreamWriter],
                        Awaitable[None]],
        handlers: Set["asyncio.Task"]) -> Callable[..., None]:
    """An ``asyncio.start_server`` callback for one front end.

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
        task = asyncio.ensure_future(serve(reader, writer))
        handlers.add(task)
        task.add_done_callback(handlers.discard)
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

    Only plain ``http`` shards are supported (the cluster protocol is
    loopback/LAN plumbing, not a public edge).  Raises ``ValueError`` with
    an actionable message otherwise.
    """
    split = urlsplit(url)
    if split.scheme != "http":
        raise ValueError(
            f"shard URLs must use http://, got {url!r}")
    if not split.hostname:
        raise ValueError(f"shard URL {url!r} has no host")
    port = split.port if split.port is not None else 80
    base = split.path.rstrip("/")
    return split.hostname, port, base


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
