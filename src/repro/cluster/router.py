"""The ``rescq route`` shard router: N serve instances, one front end.

The router owns no executor and no cache — it is a fan-out/merge layer
over a fleet of :class:`~repro.service.server.ExperimentServer` shards,
with a live view of which shards are actually serving:

1. **Membership.**  The router owns a
   :class:`~repro.cluster.membership.ShardSet`.  A periodic health loop
   (``--health-interval``) probes every member's ``/healthz`` and moves
   shards between LIVE/SUSPECT/DEAD (``--dead-after`` consecutive
   failures); shard faults during routing mark a shard SUSPECT
   immediately; recovered shards rejoin automatically; ``POST /shards``
   adds or drains members at runtime.
2. **Expand.**  An incoming spec is validated and expanded locally (plan
   expansion is deterministic, so the router and every shard derive the
   identical job list from the same spec bytes).  The plan comes from the
   process's plan memo (:data:`~repro.service.httpcore.PLAN_MEMO`) when
   it holds the spec.
3. **Place.**  Each job's fingerprint is rendezvous-hashed onto the
   *routable* (LIVE + SUSPECT) members
   (:func:`~repro.cluster.hashring.rank_nodes`), so identical jobs always
   land on the same shard and hit its single-flight/cache layers, and a
   membership change moves only the minimal ``~1/N`` of keys.
4. **Fan out.**  Each shard receives one ``POST /experiments`` whose
   envelope carries the original spec plus ``indices`` — the plan
   positions it owns.  No circuits cross the wire.
5. **Merge, with retry.**  The per-shard NDJSON streams are merged back
   into plan order; data rows pass through as raw bytes (preserving the
   byte-identical-rows property of the single-server service).

One placement loop serves the first fan-out and every retry.  Each shard
exchange ends as a *stream* (a 200 whose rows are pumped), an *admission*
refusal (a 429 with a ``Retry-After`` hint), or a *fault*: a connect
error, any other status, a failed read of the head or the body, or a
stream that ends with positions unfinished.  A fault suspects the shard
in the membership, skips it for the rest of the attempt and hands its
positions back, to be placed on their next-ranked shard.  When no untried
shard remains, one of the request's ``max_attempts`` is spent: a backoff
with full jitter (seeded RNG injectable), capped by the optional
per-request deadline, after which every routable shard may be tried
again.  Retries are safe because results are cache-idempotent:
fingerprinted jobs are write-once in the cache and single-flighted in the
service, so re-asking for a position can only return the same canonical
bytes.

Whether the router has sent its 200 head is the only fork.  Before it, a
429 propagates as 429 + the **largest** shard-provided ``Retry-After``
(capped against the deadline) and exhaustion is a 502.  After it, a 429
waits out its hint as one attempt, and exhaustion emits one error record
per unfinished position.

``GET /healthz`` probes every shard and reports ``ok``/``degraded``
(503); ``GET /stats`` nests router counters, the router process's
``plan_memo`` counters, cluster-wide aggregates, per-shard snapshots and
the membership table; ``GET/POST /shards`` is the admin surface.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..api.envelope import SubmissionEnvelope, SubmissionReport
from ..canonical import canonical_dumps
from ..service.httpcore import (PLAN_MEMO, HttpError, close,
                                connection_handler, http_request,
                                iter_ndjson, listen, open_http_stream,
                                read_submission, retry_after_header,
                                send_head, send_json, send_line, spawn)
from .hashring import rank_nodes
from .membership import DRAINING, ShardSet

__all__ = ["RouterStats", "ShardRouter"]


@dataclass
class RouterStats:
    """Cumulative router-side accounting (shard counters live on shards)."""

    requests: int = 0       # submissions accepted for fan-out
    jobs: int = 0           # plan positions routed
    retried: int = 0        # positions a shard fault handed back to placement
    recovered: int = 0      # rows delivered for positions handed back
    gave_up: int = 0        # positions emitted as error records, budget spent
    backoff_waits: int = 0  # backoff and Retry-After sleeps between attempts
    rejected: int = 0       # submissions refused with 429 (shard admission)
    failed: int = 0         # submissions refused with 502 before streaming
    stream_errors: int = 0  # error records in merged streams (any source)

    def snapshot(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "jobs": self.jobs,
            "retried": self.retried,
            "recovered": self.recovered,
            "gave_up": self.gave_up,
            "backoff_waits": self.backoff_waits,
            "rejected": self.rejected,
            "failed": self.failed,
            "stream_errors": self.stream_errors,
        }


class ShardRouter:
    """Route experiment submissions across a fleet of serve shards."""

    def __init__(self, shards: Sequence[str], host: str = "127.0.0.1",
                 port: int = 8766, connect_timeout: float = 5.0,
                 probe_timeout: float = 2.0,
                 health_interval: float = 0.0,
                 dead_after: int = 3,
                 max_attempts: int = 4,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 request_deadline: Optional[float] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.membership = ShardSet(shards, dead_after=dead_after)
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.probe_timeout = probe_timeout
        #: Seconds between automatic health-probe rounds; ``0`` disables
        #: the background loop (tests drive :meth:`probe_once` manually).
        self.health_interval = health_interval
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Optional per-request wall budget, seconds.  Retries (and the
        #: Retry-After hint on 429s) never extend past it.
        self.request_deadline = request_deadline
        self._rng = rng if rng is not None else random.Random()
        self.stats = RouterStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()
        self._probe_loops: set = set()

    @property
    def shards(self) -> Tuple[str, ...]:
        """Every member URL (in join order, regardless of state)."""
        return self.membership.urls

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections; updates ``self.port``."""
        self._server, self.port = await listen(
            connection_handler(self._route, self._handlers),
            self.host, self.port)
        if self.health_interval > 0:
            spawn(self._probe_loops, self._probe_loop())

    async def stop(self) -> None:
        """Stop probing and accepting, and finish in-flight requests."""
        await close(None, self._probe_loops, cancel=True)
        await close(self._server, self._handlers)

    # -- health probing --------------------------------------------------------

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await self.probe_once()

    async def probe_once(self) -> Dict[str, Tuple[str, Optional[dict]]]:
        """One probe round over every non-draining member.

        Feeds the results into the membership state machine (this is the
        body of the background health loop, exposed so tests can drive
        the LIVE/SUSPECT/DEAD transitions without wall-clock sleeps) and
        returns ``{url: (state_text, healthz_payload_or_None)}``.
        """
        targets = self.membership.probe_targets()
        probes = await asyncio.gather(
            *(self._probe(url, "healthz") for url in targets))
        results: Dict[str, Tuple[str, Optional[dict]]] = {}
        for url, (state, payload) in zip(targets, probes):
            if state == "ok":
                self.membership.record_success(url)
            else:
                self.membership.record_failure(url, state)
            results[url] = (state, payload)
        return results

    async def _probe(self, url: str,
                     route: str) -> Tuple[str, Optional[dict]]:
        """GET a shard's ``/healthz`` or ``/stats``: ``(state, payload)``."""
        host, port, base = self.membership.endpoint(url)
        try:
            status, _headers, data = await http_request(
                host, port, "GET", f"{base}/{route}",
                timeout=self.probe_timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            return f"unreachable: {exc}", None
        if status != 200:
            return f"unhealthy: HTTP {status}", None
        try:
            return "ok", json.loads(data.decode("utf-8"))
        except ValueError:
            return f"unhealthy: bad {route} payload", None

    # -- routing ---------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET for /healthz")
            await self._handle_healthz(writer)
        elif path == "/stats":
            if method != "GET":
                raise HttpError(405, "use GET for /stats")
            await self._handle_stats(writer)
        elif path == "/shards":
            await self._handle_shards(method, body, writer)
        elif path in ("/experiments", "/"):
            if method != "POST":
                raise HttpError(
                    405, "submit an ExperimentSpec with POST /experiments")
            await self._handle_submission(body, writer)
        else:
            raise HttpError(
                404, f"unknown path {path!r}; routes: POST /experiments, "
                     f"GET /healthz, GET /stats, GET/POST /shards")

    # -- health / stats / admin ------------------------------------------------

    async def _handle_healthz(self, writer: asyncio.StreamWriter) -> None:
        results = await self.probe_once()
        shard_states = {}
        for url in self.membership.urls:
            if url in results:
                shard_states[url] = results[url][0]
            else:
                shard_states[url] = DRAINING
        healthy = all(state == "ok"
                      for state, _payload in results.values())
        payload = {"status": "ok" if healthy else "degraded",
                   "shards": shard_states,
                   "membership": self.membership.counts()}
        await send_json(writer, 200 if healthy else 503, payload)

    async def _handle_stats(self, writer: asyncio.StreamWriter) -> None:
        urls = self.membership.urls
        probes = await asyncio.gather(
            *(self._probe(url, "stats") for url in urls))
        cluster = {"requests": 0, "jobs": 0, "executed": 0, "cache_hits": 0,
                   "deduped": 0, "errors": 0, "rejected": 0}
        shard_stats: Dict[str, object] = {}
        for url, (_state, snapshot) in zip(urls, probes):
            if snapshot is None:
                shard_stats[url] = None
                continue
            shard_stats[url] = snapshot
            for key in cluster:
                value = snapshot.get(key)
                if isinstance(value, int):
                    cluster[key] += value
        await send_json(writer, 200, {
            "router": self.stats.snapshot(),
            "plan_memo": PLAN_MEMO.stats(),
            "cluster": cluster,
            "shards": shard_stats,
            "membership": self.membership.snapshot(),
        })

    async def _handle_shards(self, method: str, body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        """The admin surface: list members, add a shard, drain a shard."""
        if method == "GET":
            await send_json(writer, 200,
                            {"membership": self.membership.snapshot()})
            return
        if method != "POST":
            raise HttpError(405, "use GET (list) or POST (add/drain) "
                                 "for /shards")
        try:
            payload = json.loads(body.decode("utf-8"))
            action = payload["action"]
            url = payload["url"]
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
            raise HttpError(
                400, f"expected {{\"action\": \"add\"|\"drain\", "
                     f"\"url\": ...}}: {exc}") from None
        if not isinstance(url, str):
            raise HttpError(400, f"shard url must be a string, got {url!r}")
        if action == "add":
            try:
                changed = self.membership.add(url)
            except ValueError as exc:
                raise HttpError(400, str(exc)) from None
        elif action == "drain":
            try:
                self.membership.drain(url)
            except KeyError as exc:
                raise HttpError(404, str(exc.args[0])) from None
            changed = True
        else:
            raise HttpError(400, f"unknown action {action!r}; "
                                 f"actions: add, drain")
        await send_json(writer, 200, {
            "action": action,
            "url": url.rstrip("/"),
            "changed": changed,
            "membership": self.membership.snapshot(),
        })

    # -- retry plumbing --------------------------------------------------------

    @staticmethod
    def _deadline_remaining(deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return deadline - asyncio.get_event_loop().time()

    async def _spend_attempt(self, req: "_Request",
                             hint: Optional[float] = None) -> bool:
        """Spend one of the request's attempts, then wait to place again.

        Returns ``False`` without waiting once ``max_attempts`` are spent
        or the deadline has passed.  Otherwise the shards that failed are
        forgiven (one may have recovered) and the router sleeps for
        ``hint`` (a shard's Retry-After) or, without one, an exponential
        backoff with full jitter — ``U(0, min(cap, base * 2^(n-1)))``,
        drawn from the router's injectable seeded RNG — capped by the
        deadline.
        """
        req.attempts += 1
        remaining = self._deadline_remaining(req.deadline)
        if req.attempts >= self.max_attempts or (
                remaining is not None and remaining <= 0):
            return False
        req.failed.clear()
        if hint is None:
            hint = self._rng.random() * min(
                self.backoff_cap, self.backoff_base * 2 ** (req.attempts - 1))
        if remaining is not None:
            hint = min(hint, remaining)
        if hint > 0:
            self.stats.backoff_waits += 1
            await asyncio.sleep(hint)
        return True

    # -- submission fan-out / merge --------------------------------------------

    async def _handle_submission(self, body: bytes,
                                 writer: asyncio.StreamWriter) -> None:
        envelope, planned, spec_bytes = await read_submission(body)
        fingerprints = {pos: job.fingerprint() for pos, job in planned}
        self.stats.requests += 1
        self.stats.jobs += len(fingerprints)
        deadline = (None if self.request_deadline is None
                    else asyncio.get_event_loop().time()
                    + self.request_deadline)
        req = _Request(envelope, spec_bytes, fingerprints, deadline)
        try:
            try:
                await self._place(req, sorted(fingerprints))
            except HttpError as exc:
                if exc.status == 429:
                    self.stats.rejected += 1
                else:
                    self.stats.failed += 1
                raise
            req.committed = True
            await send_head(writer, 200, content_type="application/x-ndjson")
            await self._merge(req, writer)
        finally:
            await close(None, req.tasks, cancel=True)

    @staticmethod
    def _sub_envelope(req: "_Request", positions: Sequence[int]) -> bytes:
        """The canonical JSON of the envelope a shard gets for
        ``positions``: the request's spec, ``include_status`` and the
        sorted ``indices``.

        ``"spec"`` sorts after the other keys, so the request's canonical
        spec bytes are spliced in last instead of serialising the spec for
        every exchange.
        """
        head: Dict[str, object] = {"indices": sorted(positions)}
        if req.envelope.include_status:
            head["include_status"] = True
        return (canonical_dumps(head)[:-1].encode("utf-8") + b',"spec":'
                + req.spec_bytes + b"}")

    async def _place(self, req: "_Request", positions: List[int]) -> None:
        """Give every position (sorted) an open stream, or give up on it.

        Each pass ranks the pending positions with HRW over the routable
        shards that have not failed this attempt and opens one exchange
        per shard, concurrently.  Faulted positions stay pending for the
        next pass; once no untried shard remains one attempt is spent.
        Before the head is committed a 429 refuses the whole request and
        exhaustion is a 502; after it, a 429 waits out its hint as one
        attempt and exhaustion emits one error row per position.
        """
        pending = positions
        try:
            while pending:
                shards = [url for url in self.membership.routable()
                          if url not in req.failed]
                if not shards:
                    if not await self._spend_attempt(req):
                        await self._give_up(req, pending, req.last_error)
                        return
                    continue
                groups: Dict[str, List[int]] = {}
                for pos in pending:
                    url = rank_nodes(shards, req.fingerprints[pos])[0]
                    groups.setdefault(url, []).append(pos)
                heads = {url: asyncio.get_event_loop().create_future()
                         for url in groups}
                for url, group in groups.items():
                    spawn(req.tasks,
                          self._exchange(req, url, group, heads[url]))
                await asyncio.wait(list(heads.values()))
                pending, hints, refusal = [], [], ""
                for url, group in groups.items():
                    outcome, hint, message = heads[url].result()
                    if outcome == "stream":
                        continue
                    pending.extend(group)
                    if outcome == "admission":
                        hints.append(hint)
                        refusal = message
                pending.sort()
                if hints and not req.committed:
                    # The largest shard hint, capped by the deadline.
                    wait = max(hints)
                    remaining = self._deadline_remaining(req.deadline)
                    if remaining is not None:
                        wait = min(wait, max(0.0, remaining))
                    raise HttpError(429, refusal,
                                    headers=retry_after_header(wait))
                if hints and not await self._spend_attempt(req, max(hints)):
                    await self._give_up(req, pending,
                                        f"admission refused: {refusal}")
                    return
        except Exception as exc:  # noqa: BLE001 - the merge must terminate
            if not req.committed:
                raise
            await self._give_up(req, pending, f"placement error: {exc}")

    async def _give_up(self, req: "_Request", positions: List[int],
                       reason: str) -> None:
        if not req.committed:
            raise HttpError(
                502, f"no shard reachable for {len(positions)} job(s) after "
                     f"{req.attempts} attempt(s) (members: "
                     f"{list(self.membership.urls)}; last error: {reason})")
        for pos in positions:
            self.stats.gave_up += 1
            record = {"type": "error",
                      "fingerprint": req.fingerprints[pos],
                      "message": f"job lost mid-stream and not recovered "
                                 f"after {req.attempts} retry attempt(s): "
                                 f"{reason}"}
            line = (canonical_dumps(record) + "\n").encode("utf-8")
            await req.queue.put(("row", pos, line, True))

    async def _exchange(self, req: "_Request", url: str,
                        positions: List[int], head: asyncio.Future) -> None:
        """One shard exchange: open a stream for ``positions``, pump it.

        ``head`` resolves to ``(outcome, retry_after, message)`` once the
        outcome is known: ``stream`` (a 200, whose rows are now pumped),
        ``admission`` (a 429), or ``fault`` — a connect error, any other
        status, or any exception while reading the head or the body.  The
        shard keeps sub-plan order, so its i-th non-summary line is the
        row for ``positions[i]``; data rows pass through as raw bytes.  A
        stream that ends with positions unfinished is a fault as well,
        and those positions go back to the merge loop as ``lost``.
        """
        host, port, base = self.membership.endpoint(url)
        index = 0
        reason = "disconnected mid-stream"
        shard_writer = None
        try:
            status, headers, reader, shard_writer = await open_http_stream(
                host, port, "POST", f"{base}/experiments",
                body=self._sub_envelope(req, positions),
                connect_timeout=self.connect_timeout, head_timeout=None)
            if status == 200:
                head.set_result(("stream", 0.0, ""))
                async for line in iter_ndjson(reader):
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if (isinstance(record, dict)
                            and record.get("type") == "summary"):
                        await req.queue.put(("summary", record))
                        continue
                    if index < len(positions):
                        is_error = (isinstance(record, dict)
                                    and record.get("type") == "error")
                        if positions[index] in req.retried:
                            self.stats.recovered += 1
                        await req.queue.put(("row", positions[index],
                                             bytes(line), is_error))
                        index += 1
            else:
                message = _error_message(await reader.read(), "no detail")
                if status == 429:
                    try:
                        hint = float(headers.get("retry-after", "1"))
                    except ValueError:
                        hint = 1.0
                    head.set_result(("admission", hint, message))
                    return
                reason = f"HTTP {status}: {message}"
        except Exception as exc:  # noqa: BLE001 - never orphan positions
            reason = str(exc) or type(exc).__name__
        finally:
            if shard_writer is not None:
                shard_writer.close()
        if index < len(positions):
            lost = positions[index:]
            self.membership.record_failure(url, reason)
            req.failed.add(url)
            req.retried.update(lost)
            req.last_error = f"{url}: {reason}"
            self.stats.retried += len(lost)
            if head.done():
                await req.queue.put(("lost", lost))
            else:
                head.set_result(("fault", 0.0, reason))

    async def _merge(self, req: "_Request",
                     writer: asyncio.StreamWriter) -> None:
        """Stream the rows in plan order, then one aggregated summary.

        Exchanges feed the queue with ``row``/``summary`` items and with
        ``lost`` positions, for which a new placement starts.  The loop
        runs until every position was emitted — as a data row, a
        forwarded error, or (once the budget is spent) an error row.
        """
        expected = sorted(req.fingerprints)
        buffered: Dict[int, Tuple[bytes, bool]] = {}
        summaries: List[dict] = []
        next_index = 0
        errors = 0
        while next_index < len(expected):
            item = await req.queue.get()
            if item[0] == "summary":
                summaries.append(item[1])
                continue
            if item[0] == "lost":
                spawn(req.tasks, self._place(req, item[1]))
                continue
            _kind, position, line, is_error = item
            buffered[position] = (line, is_error)
            while (next_index < len(expected)
                   and expected[next_index] in buffered):
                line, is_error = buffered.pop(expected[next_index])
                if is_error:
                    errors += 1
                    self.stats.stream_errors += 1
                writer.write(line)
                await writer.drain()
                next_index += 1
        # A shard's summary line follows its last row: let every exchange
        # finish, then sweep the summaries still queued.
        await asyncio.gather(*req.tasks, return_exceptions=True)
        while not req.queue.empty():
            item = req.queue.get_nowait()
            if item[0] == "summary":
                summaries.append(item[1])

        report = SubmissionReport(
            name=req.envelope.spec.name, jobs=len(expected),
            executed=sum(s.get("executed", 0) for s in summaries),
            cache_hits=sum(s.get("cache_hits", 0) for s in summaries),
            deduped=sum(s.get("deduped", 0) for s in summaries),
            request_id=req.envelope.request_id, errors=errors)
        await send_line(writer, report.to_dict())


@dataclass
class _Request:
    """One submission's routing state, shared by placement and merge."""

    envelope: SubmissionEnvelope
    spec_bytes: bytes                                # canonical spec JSON
    fingerprints: Dict[int, str]
    deadline: Optional[float]
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    failed: Set[str] = field(default_factory=set)    # faulted this attempt
    retried: Set[int] = field(default_factory=set)   # handed back by a fault
    tasks: Set[asyncio.Task] = field(default_factory=set)
    attempts: int = 0
    committed: bool = False                          # 200 head sent
    last_error: str = "no routable shard"


def _error_message(data: bytes, fallback: str) -> str:
    try:
        payload = json.loads(data.decode("utf-8"))
        message = payload.get("error")
        if isinstance(message, str) and message:
            return message
    except (ValueError, AttributeError, UnicodeDecodeError):
        pass
    return fallback
