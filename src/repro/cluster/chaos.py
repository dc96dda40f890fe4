"""Deterministic fault injection: a TCP proxy between router and shard.

Every robustness claim in this package is only as good as the failure it
was tested against, so the failures are *first-class objects*:

* :class:`Fault` — one injectable failure, by kind:

  - ``refuse``   — close the client connection at accept time, before a
    byte is read (the proxy-level stand-in for connect-refused: the
    router's in-flight request dies with an ``OSError``);
  - ``close``    — read the full request, then close without answering
    (accept-then-close);
  - ``truncate`` — proxy the exchange but cut the client off after
    forwarding ``rows`` NDJSON body lines of the response
    (mid-stream shard death, the case the router must re-route);
  - ``stall``    — proxy the exchange after ``delay`` seconds of added
    latency;
  - ``rewrite``  — swallow the exchange and answer with a synthetic
    ``status`` (e.g. 500, or 429 with ``retry_after``) without touching
    the upstream;
  - ``reset``    — like ``rewrite``, but send only the head and half the
    body, then abort the connection with a TCP reset (``SO_LINGER`` 0),
    so the client's read of the body fails with a connection reset.

* :class:`FaultPlan` — an ordered per-connection schedule of faults.
  Connection *i* through the proxy experiences ``faults[i]``; connections
  past the end of the plan pass through untouched.  A plan is either
  written out explicitly (so every chaos test *names* its exact failure
  sequence) or derived from a seed via :meth:`FaultPlan.seeded` — both are
  fully deterministic.

* :class:`ChaosProxy` — a stdlib-asyncio TCP proxy applying a plan.  The
  cluster harness wires one in front of a shard via
  :meth:`~repro.cluster.harness.ClusterHarness.with_faults`, so chaos
  tests exercise the *real* router/shard wire path with the fault folded
  into the middle.

Nothing here sleeps on hidden clocks or draws from global RNGs: the only
randomness is the explicit seed handed to :meth:`FaultPlan.seeded`.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..service.httpcore import close, listen, spawn

__all__ = ["Fault", "FaultPlan", "ChaosProxy"]

FAULT_KINDS = ("refuse", "close", "truncate", "stall", "rewrite", "reset")


@dataclass(frozen=True)
class Fault:
    """One injectable failure (see the module docstring for the kinds)."""

    kind: str
    rows: int = 0                       # truncate: body rows forwarded first
    delay: float = 0.0                  # stall: added latency, seconds
    status: int = 500                   # rewrite/reset: synthetic status
    retry_after: Optional[float] = None  # rewrite 429: Retry-After header

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"kinds: {FAULT_KINDS}")
        if self.rows < 0:
            raise ValueError("truncate rows must be >= 0")
        if self.delay < 0:
            raise ValueError("stall delay must be >= 0")

    def describe(self) -> str:
        if self.kind == "truncate":
            return f"truncate(rows={self.rows})"
        if self.kind == "stall":
            return f"stall(delay={self.delay:g})"
        if self.kind == "rewrite":
            extra = (f",retry_after={self.retry_after:g}"
                     if self.retry_after is not None else "")
            return f"rewrite(status={self.status}{extra})"
        return self.kind


class FaultPlan:
    """An ordered, deterministic per-connection fault schedule.

    ``faults[i]`` is applied to the *i*-th connection accepted by the
    proxy; ``None`` entries (and every connection past the end of the
    plan) pass through cleanly.  The plan is consumed statefully —
    :meth:`reset` rewinds it for reuse across test cases.
    """

    def __init__(self, faults: Sequence[Optional[Fault]] = ()) -> None:
        self.faults: Tuple[Optional[Fault], ...] = tuple(faults)
        self._cursor = 0

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls(())

    @classmethod
    def seeded(cls, seed: int, length: int,
               kinds: Sequence[str] = ("close", "truncate", "stall"),
               rate: float = 0.5, max_rows: int = 3,
               max_delay: float = 0.05) -> "FaultPlan":
        """Derive a reproducible plan from ``seed`` alone.

        Each of the ``length`` slots is independently faulted with
        probability ``rate``; faulted slots draw a kind uniformly from
        ``kinds`` and kind-specific parameters from the same seeded
        stream.  Identical arguments always produce the identical plan.
        """
        rng = random.Random(seed)
        faults: List[Optional[Fault]] = []
        for _ in range(length):
            if rng.random() >= rate:
                faults.append(None)
                continue
            kind = kinds[rng.randrange(len(kinds))]
            if kind == "truncate":
                faults.append(Fault("truncate", rows=rng.randrange(
                    max_rows + 1)))
            elif kind == "stall":
                faults.append(Fault("stall",
                                    delay=rng.random() * max_delay))
            elif kind == "rewrite":
                faults.append(Fault("rewrite", status=500))
            else:
                faults.append(Fault(kind))
        return cls(faults)

    def next(self) -> Optional[Fault]:
        """The fault for the next connection (``None`` = pass through)."""
        if self._cursor < len(self.faults):
            fault = self.faults[self._cursor]
            self._cursor += 1
            return fault
        self._cursor += 1
        return None

    def describe(self) -> str:
        parts = [fault.describe() if fault else "pass"
                 for fault in self.faults]
        return f"plan[{', '.join(parts) or 'empty'}]"


async def _read_raw_request(reader: asyncio.StreamReader) -> bytes:
    """Read one full raw HTTP request (head + Content-Length body).

    Returns whatever arrived if the client hangs up early — the proxy
    never errors on a half request, it just forwards (or drops) it.
    """
    blob = b""
    while b"\r\n\r\n" not in blob:
        chunk = await reader.read(65536)
        if not chunk:
            return blob
        blob += chunk
    head, _sep, body = blob.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _sep2, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = 0
    while len(body) < length:
        chunk = await reader.read(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


class ChaosProxy:
    """A TCP proxy in front of one shard, applying a :class:`FaultPlan`.

    ``applied`` records the fault (or ``None``) consumed by each accepted
    connection, in order, so tests can assert the schedule actually fired.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan or FaultPlan.none()
        self.host = host
        self.port = port
        self.applied: List[Optional[Fault]] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._server, self.port = await listen(self._on_connection,
                                               self.host, self.port)

    async def stop(self) -> None:
        await close(self._server, self._handlers, cancel=True)

    # -- connection handling ---------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        fault = self.plan.next()
        self.applied.append(fault)
        spawn(self._handlers, self._handle(reader, writer, fault))

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      fault: Optional[Fault]) -> None:
        upstream_writer: Optional[asyncio.StreamWriter] = None
        try:
            if fault is not None and fault.kind == "refuse":
                return  # close before reading a byte
            request = await _read_raw_request(reader)
            if not request:
                return
            if fault is not None and fault.kind == "close":
                return  # accept-then-close: request read, no answer
            if fault is not None and fault.kind in ("rewrite", "reset"):
                await self._answer(writer, fault)
                return
            if fault is not None and fault.kind == "stall":
                await asyncio.sleep(fault.delay)
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port)
            upstream_writer.write(request)
            await upstream_writer.drain()
            if fault is not None and fault.kind == "truncate":
                await self._relay_truncated(upstream_reader, writer,
                                            fault.rows)
            else:
                await self._relay(upstream_reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            # Close both before awaiting either: a cancel from stop() inside
            # the first wait must not leave the other writer open.
            writers = [closing for closing in (writer, upstream_writer)
                       if closing is not None]
            for closing in writers:
                closing.close()
            for closing in writers:
                try:
                    await closing.wait_closed()
                except (ConnectionError, RuntimeError, OSError):
                    pass

    @staticmethod
    async def _answer(writer: asyncio.StreamWriter, fault: Fault) -> None:
        """Answer with a synthetic ``fault.status`` response.

        ``rewrite`` sends the whole response; ``reset`` sends the head and
        half the body, then aborts with ``SO_LINGER`` 0 so the peer gets
        a TCP reset instead of a clean EOF.
        """
        body = (b'{"error":"chaos: injected fault"}\n')
        lines = [f"HTTP/1.1 {fault.status} Chaos",
                 "Content-Type: application/json",
                 "Connection: close",
                 f"Content-Length: {len(body)}"]
        if fault.retry_after is not None:
            lines.append(f"Retry-After: {fault.retry_after:g}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        if fault.kind == "reset":
            writer.write(body[:len(body) // 2])
            await writer.drain()
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            writer.transport.abort()
            return
        writer.write(body)
        await writer.drain()

    @staticmethod
    async def _relay(upstream_reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        while True:
            chunk = await upstream_reader.read(65536)
            if not chunk:
                break
            writer.write(chunk)
            await writer.drain()

    @staticmethod
    async def _relay_truncated(upstream_reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter,
                               rows: int) -> None:
        """Forward the response head plus ``rows`` body lines, then cut.

        The cut lands exactly after the ``rows``-th body newline, so the
        client sees that many complete NDJSON records followed by EOF —
        the shape of a shard dying mid-stream.
        """
        in_body = False
        remaining = rows
        head_buffer = b""
        while True:
            chunk = await upstream_reader.read(65536)
            if not chunk:
                break
            if not in_body:
                head_buffer += chunk
                marker = head_buffer.find(b"\r\n\r\n")
                if marker < 0:
                    continue
                in_body = True
                boundary = marker + 4
                chunk = head_buffer[boundary:]
                writer.write(head_buffer[:boundary])
                await writer.drain()
            cursor = 0
            while remaining > 0:
                newline = chunk.find(b"\n", cursor)
                if newline < 0:
                    break
                cursor = newline + 1
                remaining -= 1
            if remaining == 0:
                writer.write(chunk[:cursor])
                await writer.drain()
                return  # cut: connection closes in the handler's finally
            writer.write(chunk)
            await writer.drain()
