"""Tests for the cache backends: write-once semantics, GC, integrity, races.

The multiprocess stress tests at the bottom pin the concurrency contract
from :class:`repro.exec.cache.DirectoryCache`: N writer processes racing the
same fingerprint leave exactly one complete entry, and readers never see a
torn payload.  Workers run under the ``spawn`` start method — the same one
the experiment service uses — so each child opens its own cache instance
against the shared path, exactly like concurrent CLI invocations would.
"""

import multiprocessing
import os

import pytest

from repro.exec.cache import DirectoryCache, open_cache_backend
from repro.sim import GateTrace, SimulationResult

#: Spec kinds the contract and the spawn-process stress run over.
BACKENDS = ("dir",)


def make_result(seed=0, total_cycles=10):
    traces = [
        GateTrace(0, "cnot", (0, 1), scheduled_cycle=0, start_cycle=0,
                  end_cycle=2),
        GateTrace(1, "rz", (0,), scheduled_cycle=2, start_cycle=3,
                  end_cycle=8, injections=2, preparation_attempts=3),
    ]
    return SimulationResult("bench", "rescq", seed=seed,
                            total_cycles=total_cycles, num_qubits=2,
                            traces=traces, data_busy_cycles={0: 7, 1: 5})


def backdate(backend, fingerprint, seconds):
    """Shift an entry's stored_at timestamp into the past (test-only)."""
    path = backend._path(fingerprint)
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


def corrupt_entry(backend, fingerprint):
    """Plant an unreadable payload under ``fingerprint`` (test-only)."""
    backend._path(fingerprint).write_text("{not json")


FP = "f" * 64


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    return open_cache_backend(_spec_for(request.param, tmp_path))


class TestBackendContract:
    def test_miss_then_hit_roundtrip(self, backend):
        assert backend.get(FP) is None
        result = make_result()
        assert backend.put(FP, result) is True
        assert FP in backend
        assert backend.get(FP) == result
        assert backend.stats.describe() == "hits=1 misses=1 stores=1"

    def test_put_is_write_once(self, backend):
        backend.put(FP, make_result(total_cycles=10))
        assert backend.put(FP, make_result(total_cycles=99)) is False
        assert backend.get(FP).total_cycles == 10
        assert backend.stats.stores == 1

    def test_len_entries_and_clear(self, backend):
        for index in range(3):
            backend.put(f"{index:064x}", make_result(seed=index))
        assert len(backend) == 3
        entries = {entry.fingerprint: entry for entry in backend.entries()}
        assert set(entries) == {f"{index:064x}" for index in range(3)}
        assert all(entry.size_bytes > 0 for entry in entries.values())
        assert backend.size_bytes() == sum(
            entry.size_bytes for entry in entries.values())
        assert backend.clear() == 3
        assert len(backend) == 0

    def test_gc_removes_only_old_entries(self, backend):
        backend.put("a" * 64, make_result(seed=0))
        backend.put("b" * 64, make_result(seed=1))
        backdate(backend, "a" * 64, 3600)
        assert backend.gc(older_than=600) == 1
        assert "a" * 64 not in backend
        assert "b" * 64 in backend

    def test_gc_with_large_cutoff_removes_nothing(self, backend):
        backend.put(FP, make_result())
        assert backend.gc(older_than=86400) == 0
        assert FP in backend

    def test_corrupt_entry_is_a_miss_and_gets_evicted(self, backend):
        corrupt_entry(backend, FP)
        assert backend.get(FP) is None
        assert backend.stats.misses == 1
        # Eviction makes room for the write-once put of the re-run result.
        assert backend.put(FP, make_result()) is True
        assert backend.get(FP) == make_result()

    def test_verify_healthy(self, backend):
        backend.put(FP, make_result())
        check = backend.verify()
        assert check.is_healthy
        assert (check.entries, check.ok) == (1, 1)
        assert "ok" in check.describe()

    def test_verify_reports_corrupt_fingerprints(self, backend):
        backend.put("a" * 64, make_result())
        corrupt_entry(backend, "b" * 64)
        check = backend.verify()
        assert not check.is_healthy
        assert check.corrupt == ["b" * 64]
        assert "CORRUPT(1)" in check.describe()

    def test_describe_mentions_counters(self, backend):
        assert "hits=0 misses=0 stores=0" in backend.describe()


class TestDirectoryCache:
    def test_regular_file_is_refused_with_a_hint(self, tmp_path):
        leftover = tmp_path / "results.db"
        leftover.write_bytes(b"not a cache directory")
        with pytest.raises(NotADirectoryError,
                           match="is not a directory; a result cache is a "
                                 "directory of <fingerprint>.json files"):
            DirectoryCache(leftover)
        assert leftover.read_bytes() == b"not a cache directory"


class TestOpenCacheBackend:
    def test_dir_prefix_wins_over_suffix(self, tmp_path):
        backend = open_cache_backend(f"dir:{tmp_path / 'c.db'}")
        assert isinstance(backend, DirectoryCache)
        assert backend.directory == tmp_path / "c.db"

    def test_bare_path_is_a_directory(self, tmp_path):
        assert isinstance(open_cache_backend(tmp_path / "plain"),
                          DirectoryCache)

    def test_backend_instance_passes_through(self, tmp_path):
        backend = DirectoryCache(tmp_path)
        assert open_cache_backend(backend) is backend

    @pytest.mark.parametrize("removed", [
        "http://127.0.0.1:8765", "https://127.0.0.1:8765",
        "dir:near|http://127.0.0.1:8765", "|x", "x|", "a|b|c"])
    def test_removed_network_tier_grammar_is_rejected(self, removed,
                                                      tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError,
                           match="network cache tier was removed; pass a "
                                 "cache directory"):
            open_cache_backend(removed)
        assert list(tmp_path.iterdir()) == []


# -- multiprocess stress -------------------------------------------------------

def _spec_for(kind, root):
    return f"{kind}:{root}/cache"


def _stress_writer(spec, own_fp, barrier, out):
    """One racing writer process (module-level: must pickle under spawn).

    ``spec`` is an :func:`open_cache_backend` spec string naming the
    shared cache directory.
    """
    backend = open_cache_backend(spec)
    expected = make_result()
    barrier.wait()
    shared_stores = 0
    torn = 0
    for _ in range(5):
        if backend.put(FP, expected):
            shared_stores += 1
        observed = backend.get(FP)
        if observed is not None and observed != expected:
            torn += 1
    backend.put(own_fp, make_result(seed=int(own_fp[:4], 16)))
    out.put((shared_stores, torn))


def _run_stress(spec, nprocs=4):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(nprocs)
    out = ctx.Queue()
    own_fps = [f"{index:04x}" + "0" * 60 for index in range(nprocs)]
    procs = [ctx.Process(target=_stress_writer,
                         args=(spec, own_fps[index], barrier, out))
             for index in range(nprocs)]
    for proc in procs:
        proc.start()
    reports = [out.get(timeout=60) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert sum(stores for stores, _ in reports) == 1, \
        "the shared fingerprint must be created exactly once"
    assert sum(torn for _, torn in reports) == 0, \
        "no reader may observe a torn payload"

    backend = open_cache_backend(spec)
    assert len(backend) == nprocs + 1
    assert backend.get(FP) == make_result()
    for own in own_fps:
        assert own in backend
    assert backend.verify().is_healthy


@pytest.mark.parametrize("kind", BACKENDS)
def test_racing_writers_store_exactly_once(kind, tmp_path):
    """N spawn processes race one shared and N distinct fingerprints: the
    shared entry is created exactly once, every distinct entry lands, and
    no reader ever observes a torn payload."""
    _run_stress(_spec_for(kind, str(tmp_path)))
