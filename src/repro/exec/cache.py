"""The concurrent-safe result cache, keyed by job fingerprint.

A cache maps a :func:`repro.exec.jobs.job_fingerprint` content hash to a
finished :class:`~repro.sim.results.SimulationResult`.  Fingerprints are
stable across interpreter processes and hosts, so a cache can be shared
between the CLI, benchmarks, notebooks and the ``rescq serve`` experiment
service: any submission that revisits a measured point skips the scheduler
run entirely.

:class:`DirectoryCache` is the one store: one canonical-JSON file per
entry.  Writes are **write-once**: the payload lands in a temp file and is
hard-linked into place, so concurrent writers race benignly (exactly one
wins, every reader sees either a miss or a complete entry, never a torn
file).  Reads are lock-free.

:func:`open_cache_backend` parses a ``--cache`` spec string (a directory
path, optionally ``dir:``-prefixed), so every ``--cache`` flag accepts the
same grammar.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..canonical import canonical_dumps
from ..sim.results import SimulationResult

__all__ = [
    "CacheEntry",
    "CacheCheck",
    "CacheStats",
    "DirectoryCache",
    "cache_directory",
    "open_cache_backend",
]


@dataclass
class CacheStats:
    """Hit/miss/store counters accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def describe(self) -> str:
        return f"hits={self.hits} misses={self.misses} stores={self.stores}"


@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as reported by :meth:`DirectoryCache.entries`."""

    fingerprint: str
    size_bytes: int
    stored_at: float  # seconds since the epoch


@dataclass
class CacheCheck:
    """Outcome of :meth:`DirectoryCache.verify`."""

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


class DirectoryCache:
    """A directory of ``<fingerprint>.json`` files, one per completed job.

    Safe under concurrent writers: multiple processes storing the same
    fingerprint leave exactly one complete entry, and readers never observe
    a torn entry.  Payloads are written to a private temp file and
    hard-linked to the final name, which is atomic and *write-once* on
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
        """Return the cached result for ``fingerprint``, or ``None`` on miss.

        A corrupt entry counts as a miss and is evicted.
        """
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
        """Store ``result`` under ``fingerprint`` (atomic, write-once).

        Returns ``True`` if this call created the entry, ``False`` if a
        complete entry already existed (entries are content-addressed, so
        a losing writer was writing identical bytes anyway).
        """
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
        """Iterate over stored entries in fingerprint order."""
        for path in sorted(self.directory.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield CacheEntry(fingerprint=path.stem, size_bytes=stat.st_size,
                             stored_at=stat.st_mtime)

    def size_bytes(self) -> int:
        """Total payload bytes across entries."""
        return sum(entry.size_bytes for entry in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def gc(self, older_than: float) -> int:
        """Delete entries stored more than ``older_than`` seconds ago.

        Returns the number of entries removed.
        """
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
        """Check every entry deserialises; report corrupt fingerprints."""
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


def cache_directory(spec: Union[str, Path]) -> str:
    """The directory a ``--cache`` spec (``PATH`` or ``dir:PATH``) names.

    URLs and ``|`` tier compositions were the grammar of the network cache
    tier, which is gone; they raise ``ValueError`` rather than being taken
    for directory names.
    """
    text = str(spec)
    if text.startswith(("http://", "https://")) or "|" in text:
        raise ValueError(
            f"{text!r} is not a cache directory: the network cache tier "
            f"was removed; pass a cache directory (PATH or dir:PATH)")
    return text.removeprefix("dir:")


def open_cache_backend(spec: Union[str, Path, DirectoryCache]
                       ) -> DirectoryCache:
    """Open the cache named by a ``--cache`` spec.

    A :class:`DirectoryCache` instance passes through unchanged, so
    programmatic callers can hand a pre-built cache to the same entry
    points.
    """
    if isinstance(spec, DirectoryCache):
        return spec
    return DirectoryCache(cache_directory(spec))
