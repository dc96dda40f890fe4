"""Concurrent-safe result-cache backends keyed by job fingerprint.

A cache maps a :func:`repro.exec.jobs.job_fingerprint` content hash to a
finished :class:`~repro.sim.results.SimulationResult`.  Fingerprints are
stable across interpreter processes and hosts, so a cache can be shared
between the CLI, benchmarks, notebooks and the ``rescq serve`` experiment
service: any submission that revisits a measured point skips the scheduler
run entirely.

Three backends implement the :class:`CacheBackend` protocol:

* :class:`DirectoryCache` — the one local store: one canonical-JSON file
  per entry.  Writes are **write-once**: the payload lands in a temp file
  and is hard-linked into place, so concurrent writers race benignly
  (exactly one wins, every reader sees either a miss or a complete entry,
  never a torn file).  Reads are lock-free.
* :class:`HttpCache` — a client for the ``/cache/<fingerprint>`` peer
  protocol served by :class:`~repro.service.server.ExperimentServer`.  The
  peer's local backend enforces write-once, so N processes (or N cluster
  shards) sharing one peer keep the exactly-once store guarantee over the
  network.
* :class:`TieredCache` — read-through/write-through composition of a near
  (usually local) and a far (usually shared/network) tier; the far tier is
  authoritative for write-once verdicts and listings.

:func:`open_cache_backend` picks a backend from a CLI-friendly spec string
(a directory path, optionally ``dir:``-prefixed, an ``http://`` peer URL,
or a ``near|far`` tier composition), so every ``--cache`` flag accepts
every backend uniformly.
"""

from __future__ import annotations

import abc
import http.client
import json
import os
import random
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..canonical import canonical_dumps
from ..sim.results import SimulationResult

__all__ = [
    "CacheBackend",
    "CacheEntry",
    "CacheCheck",
    "CacheStats",
    "DirectoryCache",
    "HttpCache",
    "TieredCache",
    "open_cache_backend",
]

#: Fingerprints are SHA-256 hex digests; the peer protocol rejects anything
#: else before it touches the path namespace.
FINGERPRINT_PATTERN = re.compile(r"^[0-9a-f]{6,128}$")


@dataclass
class CacheStats:
    """Hit/miss/store counters accumulated over a cache's lifetime.

    The failure counters separate *why* a read degraded to a miss:
    ``connect_errors`` (the peer was unreachable or answered a non-2xx)
    versus ``corrupt_payloads`` (the peer answered but the payload did not
    deserialise — a short read or bit-rot).  ``read_retries`` counts the
    extra read attempts spent before giving up.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    connect_errors: int = 0
    corrupt_payloads: int = 0
    read_retries: int = 0

    def describe(self) -> str:
        text = f"hits={self.hits} misses={self.misses} stores={self.stores}"
        if self.connect_errors:
            text += f" connect_errors={self.connect_errors}"
        if self.corrupt_payloads:
            text += f" corrupt={self.corrupt_payloads}"
        if self.read_retries:
            text += f" read_retries={self.read_retries}"
        return text


@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as reported by :meth:`CacheBackend.entries`."""

    fingerprint: str
    size_bytes: int
    stored_at: float  # seconds since the epoch


@dataclass
class CacheCheck:
    """Outcome of :meth:`CacheBackend.verify`."""

    entries: int = 0
    ok: int = 0
    corrupt: List[str] = field(default_factory=list)

    @property
    def is_healthy(self) -> bool:
        return not self.corrupt

    def describe(self) -> str:
        state = "ok" if self.is_healthy else f"CORRUPT({len(self.corrupt)})"
        return f"entries={self.entries} ok={self.ok} {state}"


def _serialise(result: SimulationResult) -> str:
    # Imported lazily: repro.analysis imports repro.sim, which is still
    # mid-initialisation when this module first loads.
    from ..analysis.export import result_to_dict
    return canonical_dumps(result_to_dict(result))


def _deserialise(text: str) -> SimulationResult:
    from ..analysis.export import result_from_dict
    return result_from_dict(json.loads(text))


class CacheBackend(abc.ABC):
    """The ``fingerprint -> SimulationResult`` store contract.

    Implementations must be safe under concurrent writers — multiple
    processes storing the same fingerprint concurrently must leave exactly
    one complete entry, and readers must never observe a torn entry.  ``put``
    is write-once: the first store wins and returns ``True``; later stores
    of the same fingerprint are no-ops returning ``False`` (entries are
    content-addressed, so "losing" writers were writing identical bytes
    anyway).
    """

    stats: CacheStats

    @abc.abstractmethod
    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """Return the cached result for ``fingerprint``, or ``None`` on miss.

        Unreadable or corrupt entries count as misses.
        """

    @abc.abstractmethod
    def put(self, fingerprint: str, result: SimulationResult) -> bool:
        """Store ``result`` under ``fingerprint`` (atomic, write-once).

        Returns ``True`` if this call created the entry, ``False`` if a
        complete entry already existed.
        """

    @abc.abstractmethod
    def __contains__(self, fingerprint: str) -> bool: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over stored entries (order unspecified)."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""

    @abc.abstractmethod
    def gc(self, older_than: float) -> int:
        """Delete entries stored more than ``older_than`` seconds ago.

        Returns the number of entries removed.
        """

    @abc.abstractmethod
    def verify(self) -> CacheCheck:
        """Check every entry deserialises; report corrupt fingerprints."""

    def close(self) -> None:
        """Release backend resources (connections, handles).  Idempotent."""

    def size_bytes(self) -> int:
        """Total payload bytes across entries."""
        return sum(entry.size_bytes for entry in self.entries())

    @abc.abstractmethod
    def describe(self) -> str: ...


class DirectoryCache(CacheBackend):
    """A directory of ``<fingerprint>.json`` files, one per completed job.

    Concurrent-writer hardening: payloads are written to a private temp file
    and hard-linked to the final name, which is atomic and *write-once* on
    every POSIX filesystem — the first writer creates the entry, later
    writers see ``EEXIST`` and back off.  Readers open the final name only,
    so they see either nothing or a complete payload; there is no lock on
    either path.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                f"result cache {str(self.directory)!r} exists but is not a "
                f"directory; a result cache is a directory of "
                f"<fingerprint>.json files") from None
        self.stats = CacheStats()

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                result = _deserialise(handle.read())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt entry: evict it so the write-once `put` of the re-run
            # result can land.
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, fingerprint: str, result: SimulationResult) -> bool:
        payload = _serialise(result)
        target = self._path(fingerprint)
        if target.exists():
            return False
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            try:
                # Atomic write-once: linking fails iff the entry exists.
                os.link(tmp_name, target)
            except FileExistsError:
                return False
            except OSError:
                # Filesystem without hard links: fall back to an atomic
                # rename (still never torn; last writer wins with identical
                # bytes, since entries are content-addressed).
                os.replace(tmp_name, target)
                tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stats.stores += 1
        return True

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def entries(self) -> Iterator[CacheEntry]:
        for path in sorted(self.directory.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield CacheEntry(fingerprint=path.stem, size_bytes=stat.st_size,
                             stored_at=stat.st_mtime)

    def clear(self) -> int:
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def gc(self, older_than: float) -> int:
        cutoff = time.time() - older_than
        removed = 0
        for entry in list(self.entries()):
            if entry.stored_at < cutoff:
                try:
                    self._path(entry.fingerprint).unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def verify(self) -> CacheCheck:
        check = CacheCheck()
        for entry in self.entries():
            check.entries += 1
            try:
                with open(self._path(entry.fingerprint), "r",
                          encoding="utf-8") as handle:
                    _deserialise(handle.read())
            except (OSError, ValueError, KeyError, TypeError):
                check.corrupt.append(entry.fingerprint)
            else:
                check.ok += 1
        return check

    def describe(self) -> str:
        return f"cache[{self.directory}] {self.stats.describe()}"


class HttpCache(CacheBackend):
    """A client for the ``/cache/<fingerprint>`` peer protocol.

    Points at an :class:`~repro.service.server.ExperimentServer` started
    with a cache backend; that peer's *local* backend enforces the
    write-once guarantee, so any number of processes or cluster shards
    sharing one peer still store each fingerprint exactly once (``put``
    returns ``True`` iff the peer answered ``201 Created``).

    One request per call over a fresh connection (the peer speaks
    ``Connection: close``), synchronous on purpose: cache calls happen on
    executor threads, never on the event loop.  A dead peer degrades
    *reads* to misses — a cluster keeps computing without its shared tier —
    while mutation calls raise ``OSError`` so callers notice lost writes.

    Reads fail soft but not blind: a read that degrades to a miss is
    classified (``connect_errors`` vs ``corrupt_payloads`` in ``stats``)
    and retried up to ``read_retries`` extra times with a small jittered
    backoff, so one dropped packet does not force a re-execution.  A clean
    404 is an authoritative miss and is never retried.
    """

    def __init__(self, url: str, timeout: float = 10.0,
                 read_retries: int = 2, retry_backoff: float = 0.05,
                 rng: Optional[random.Random] = None) -> None:
        self.url = url
        self.host, self.port, self.base = self._parse(url)
        self.timeout = timeout
        if read_retries < 0:
            raise ValueError("read_retries must be >= 0")
        self.read_retries = read_retries
        self.retry_backoff = retry_backoff
        self._rng = rng if rng is not None else random.Random()
        self.stats = CacheStats()

    @staticmethod
    def _parse(url: str) -> Tuple[str, int, str]:
        split = urlsplit(url)
        if split.scheme != "http":
            raise ValueError(
                f"cache peer URLs must use http:// (the peer protocol is "
                f"loopback/LAN plumbing), got {url!r}")
        if not split.hostname:
            raise ValueError(f"cache peer URL {url!r} has no host")
        port = split.port if split.port is not None else 80
        return split.hostname, port, split.path.rstrip("/")

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, self.base + path, body=body,
                               headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except http.client.HTTPException as exc:
            raise OSError(f"cache peer {self.url} protocol error: "
                          f"{exc}") from exc
        finally:
            connection.close()

    def _check(self, fingerprint: str) -> str:
        if not FINGERPRINT_PATTERN.match(fingerprint):
            raise ValueError(f"malformed cache fingerprint {fingerprint!r} "
                             f"(want lowercase hex)")
        return fingerprint

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        path = f"/cache/{self._check(fingerprint)}"
        for attempt in range(self.read_retries + 1):
            if attempt > 0:
                self.stats.read_retries += 1
                # Full jitter keeps concurrent readers decorrelated; the
                # RNG is injectable so tests stay deterministic.
                delay = self._rng.random() * min(
                    0.5, self.retry_backoff * (2 ** (attempt - 1)))
                if delay > 0:
                    time.sleep(delay)
            try:
                status, data = self._request("GET", path)
            except OSError:
                # Peer unreachable (or protocol error): maybe transient.
                self.stats.connect_errors += 1
                continue
            if status == 404:
                # An authoritative answer: the peer does not have it.
                self.stats.misses += 1
                return None
            if status != 200:
                self.stats.connect_errors += 1
                continue
            try:
                result = _deserialise(data.decode("utf-8"))
            except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                # Answered, but the payload is short or mangled.
                self.stats.corrupt_payloads += 1
                continue
            self.stats.hits += 1
            return result
        self.stats.misses += 1
        return None

    def put(self, fingerprint: str, result: SimulationResult) -> bool:
        payload = _serialise(result).encode("utf-8")
        status, data = self._request(
            "PUT", f"/cache/{self._check(fingerprint)}", body=payload)
        if status not in (200, 201):
            raise OSError(f"cache peer {self.url} refused the store "
                          f"({status}): {data[:200].decode('utf-8', 'replace')}")
        stored = status == 201
        if stored:
            self.stats.stores += 1
        return stored

    def __contains__(self, fingerprint: str) -> bool:
        try:
            status, _data = self._request(
                "HEAD", f"/cache/{self._check(fingerprint)}")
        except OSError:
            return False
        return status == 200

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def entries(self) -> Iterator[CacheEntry]:
        status, data = self._request("GET", "/cache")
        if status != 200:
            raise OSError(f"cache peer {self.url} listing failed ({status})")
        for item in json.loads(data.decode("utf-8")).get("entries", []):
            yield CacheEntry(fingerprint=str(item["fingerprint"]),
                             size_bytes=int(item["size_bytes"]),
                             stored_at=float(item["stored_at"]))

    def clear(self) -> int:
        status, data = self._request("DELETE", "/cache")
        if status != 200:
            raise OSError(f"cache peer {self.url} clear failed ({status})")
        return int(json.loads(data.decode("utf-8"))["removed"])

    def gc(self, older_than: float) -> int:
        body = canonical_dumps({"older_than": older_than}).encode("utf-8")
        status, data = self._request("POST", "/cache/gc", body=body)
        if status != 200:
            raise OSError(f"cache peer {self.url} gc failed ({status})")
        return int(json.loads(data.decode("utf-8"))["removed"])

    def verify(self) -> CacheCheck:
        status, data = self._request("POST", "/cache/verify")
        if status != 200:
            raise OSError(f"cache peer {self.url} verify failed ({status})")
        payload = json.loads(data.decode("utf-8"))
        return CacheCheck(entries=int(payload["entries"]),
                          ok=int(payload["ok"]),
                          corrupt=[str(f) for f in payload["corrupt"]])

    def describe(self) -> str:
        return f"cache[{self.url}] {self.stats.describe()}"


class TieredCache(CacheBackend):
    """Read-through/write-through composition of a near and a far tier.

    The canonical cluster arrangement is ``near`` = a private local backend
    (fast, per-shard) and ``far`` = a shared :class:`HttpCache` peer.  Reads
    try ``near`` first and backfill it from ``far`` on a far hit; writes go
    to both tiers.  The **far tier is authoritative**: ``put``'s write-once
    verdict, ``entries``/``len`` and ``verify`` all come from ``far``, so
    racing writers behind separate :class:`TieredCache` instances sharing
    one far tier still report exactly one creating store between them.
    """

    def __init__(self, near: CacheBackend, far: CacheBackend) -> None:
        self.near = near
        self.far = far
        self.stats = CacheStats()

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        result = self.near.get(fingerprint)
        if result is not None:
            self.stats.hits += 1
            return result
        result = self.far.get(fingerprint)
        if result is None:
            self.stats.misses += 1
            return None
        try:
            self.near.put(fingerprint, result)
        except Exception:  # noqa: BLE001 - backfill is best-effort
            pass
        self.stats.hits += 1
        return result

    def put(self, fingerprint: str, result: SimulationResult) -> bool:
        try:
            self.near.put(fingerprint, result)
        except Exception:  # noqa: BLE001 - near tier is an optimisation
            pass
        stored = self.far.put(fingerprint, result)
        if stored:
            self.stats.stores += 1
        return stored

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.near or fingerprint in self.far

    def __len__(self) -> int:
        return len(self.far)

    def entries(self) -> Iterator[CacheEntry]:
        return self.far.entries()

    def clear(self) -> int:
        self.near.clear()
        return self.far.clear()

    def gc(self, older_than: float) -> int:
        self.near.gc(older_than)
        return self.far.gc(older_than)

    def verify(self) -> CacheCheck:
        return self.far.verify()

    def close(self) -> None:
        self.near.close()
        self.far.close()

    def describe(self) -> str:
        return (f"cache[tiered near=({self.near.describe()}) "
                f"far=({self.far.describe()})] {self.stats.describe()}")


def open_cache_backend(spec: Union[str, Path, CacheBackend]) -> CacheBackend:
    """Build a backend from a ``--cache`` spec string.

    A path, optionally prefixed ``dir:``, opens the directory backend;
    ``http://host:port`` opens the network peer client.  ``NEAR|FAR``
    composes two backends into a :class:`TieredCache` (e.g.
    ``dir:/tmp/near|http://127.0.0.1:8765``).  A :class:`CacheBackend`
    instance passes through unchanged, so programmatic callers can hand a
    pre-built backend to the same entry points.
    """
    if isinstance(spec, CacheBackend):
        return spec
    text = str(spec)
    if "|" in text:
        near_spec, _sep, far_spec = text.partition("|")
        if not near_spec or not far_spec or "|" in far_spec:
            raise ValueError(
                f"tiered cache spec must be exactly 'NEAR|FAR', got "
                f"{text!r}")
        return TieredCache(near=open_cache_backend(near_spec),
                           far=open_cache_backend(far_spec))
    if text.startswith("http://"):
        return HttpCache(text)
    if text.startswith("https://"):
        raise ValueError("cache peers speak plain http:// only (the peer "
                         "protocol is loopback/LAN plumbing)")
    return DirectoryCache(text.removeprefix("dir:"))
