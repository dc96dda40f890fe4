"""Tests for the experiment service: single-flight, executor, HTTP server.

The executor tests use tiny picklable job classes defined at module level
(the pool uses the ``spawn`` start method, so workers unpickle jobs by
importing this module).  The HTTP tests run a real :class:`ExperimentServer`
on a loopback socket in a background thread and drive it with
``http.client`` — the same wire path ``curl`` takes in the CI e2e job.
"""

import asyncio
import contextlib
import http.client
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import SimulationConfig, default_layout
from repro.api.spec import ExperimentSpec
from repro.exec import plan_jobs
from repro.exec.cache import DirectoryCache
from repro.scheduling import RescqScheduler
from repro.service import (
    AdmissionError,
    ExperimentServer,
    ExperimentService,
    JobFailedError,
    JobTimeoutError,
    ServiceExecutor,
    SingleFlight,
    WorkerCrashError,
)
from repro.workloads import qft_circuit

FAST = SimulationConfig(mst_period=10, mst_latency=10)


class EchoJob:
    """Returns its payload (picklable: workers import this module)."""

    def __init__(self, value):
        self.value = value

    def fingerprint(self):
        return f"echo-{self.value}"

    def run(self):
        return self.value


class SleepJob:
    def __init__(self, seconds):
        self.seconds = seconds

    def run(self):
        time.sleep(self.seconds)
        return "slept"


class CrashJob:
    """Kills its worker process without reporting back."""

    def run(self):
        os._exit(3)


class FailJob:
    """Raises inside the worker (a deterministic job error, never retried)."""

    def run(self):
        raise ValueError("boom")

    def fingerprint(self):
        return "e" * 64


class SlowFailJob:
    """Fails after a delay, leaving a window for followers to pile on."""

    def run(self):
        time.sleep(1.0)
        raise ValueError("slow boom")

    def fingerprint(self):
        return "d" * 64


def make_jobs(seeds=1, mst_period=10):
    circuit = qft_circuit(4)
    config = FAST.with_updates(mst_period=mst_period)
    return plan_jobs([RescqScheduler()], circuit, config,
                     default_layout(circuit), seeds)


class TestSingleFlight:
    def test_leader_then_followers_share_one_future(self):
        flight = SingleFlight()
        leader, future = flight.begin("k")
        assert leader
        again, same = flight.begin("k")
        assert not again
        assert same is future
        assert "k" in flight and len(flight) == 1

    def test_finish_delivers_and_retires(self):
        flight = SingleFlight()
        _, future = flight.begin("k")
        flight.finish("k", 42)
        assert future.result(timeout=1) == 42
        assert "k" not in flight
        leader, _ = flight.begin("k")
        assert leader  # a finished flight can be restarted

    def test_fail_propagates_to_followers(self):
        flight = SingleFlight()
        flight.begin("k")
        _, follower = flight.begin("k")
        flight.fail("k", RuntimeError("dead"))
        with pytest.raises(RuntimeError, match="dead"):
            follower.result(timeout=1)
        assert len(flight) == 0


@pytest.fixture(scope="module")
def pool():
    executor = ServiceExecutor(max_workers=2, poll_interval=0.01)
    executor.start()
    yield executor
    executor.shutdown(drain=True)


class TestServiceExecutor:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ServiceExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ServiceExecutor(job_timeout=0)
        with pytest.raises(ValueError):
            ServiceExecutor(max_attempts=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_rejects_non_finite_job_timeout(self, timeout):
        with pytest.raises(ValueError, match="job_timeout must be positive"):
            ServiceExecutor(job_timeout=timeout)

    def test_run_jobs_preserves_order(self, pool):
        values = list(range(10))
        service = ExperimentService(executor=pool)
        assert service.run([EchoJob(v) for v in values]) == values

    def test_work_stealing_outruns_head_of_line_blocking(self, pool):
        """A slow job on one worker must not strand queued fast jobs."""
        slow = pool.submit(SleepJob(2.0))
        fast = [pool.submit(EchoJob(i)) for i in range(4)]
        assert [f.result(timeout=10) for f in fast] == list(range(4))
        assert not slow.done() or slow.result() == "slept"
        assert slow.result(timeout=10) == "slept"

    def test_job_exception_is_not_retried(self, pool):
        with pytest.raises(JobFailedError, match="ValueError: boom"):
            pool.submit(FailJob()).result(timeout=10)

    def test_real_simulation_jobs_round_trip(self, pool):
        jobs = make_jobs(seeds=2)
        results = ExperimentService(executor=pool).run(jobs)
        assert [r.seed for r in results] == [0, 1]
        assert results == [job.run() for job in jobs]

    def test_timeout_kills_the_job_not_the_pool(self):
        executor = ServiceExecutor(max_workers=1, job_timeout=0.5,
                                   poll_interval=0.01)
        try:
            with pytest.raises(JobTimeoutError, match="0.5s per-job timeout"):
                executor.submit(SleepJob(30)).result(timeout=30)
            # The replacement worker keeps serving.
            assert executor.submit(EchoJob("alive")).result(timeout=30) == \
                "alive"
        finally:
            executor.shutdown(drain=False)

    def test_worker_crash_fails_after_retry_budget(self):
        executor = ServiceExecutor(max_workers=1, max_attempts=2,
                                   poll_interval=0.01)
        try:
            with pytest.raises(WorkerCrashError, match="2 attempt"):
                executor.submit(CrashJob()).result(timeout=30)
            assert executor.submit(EchoJob("alive")).result(timeout=30) == \
                "alive"
        finally:
            executor.shutdown(drain=False)

    def test_shutdown_drains_pending_work(self):
        executor = ServiceExecutor(max_workers=2, poll_interval=0.01)
        futures = [executor.submit(EchoJob(i)) for i in range(6)]
        executor.shutdown(drain=True)
        assert [f.result(timeout=1) for f in futures] == list(range(6))
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(EchoJob(0))

    def test_context_manager_drains(self):
        with ServiceExecutor(max_workers=1, poll_interval=0.01) as executor:
            future = executor.submit(EchoJob("x"))
        assert future.result(timeout=1) == "x"

    def test_describe_names_worker_count(self, pool):
        assert pool.describe() == "service[2]"

    def test_drain_replaces_a_worker_that_dies_mid_drain(self):
        executor = ServiceExecutor(max_workers=1, poll_interval=0.01)
        crash, echo = executor.submit(CrashJob()), executor.submit(EchoJob(5))
        drain = threading.Thread(target=executor.shutdown, daemon=True)
        drain.start()
        drain.join(timeout=30)
        assert not drain.is_alive(), "drain hung after its last worker died"
        with pytest.raises(WorkerCrashError):
            crash.result(timeout=1)
        assert echo.result(timeout=1) == 5

    def test_cancelled_future_leaves_the_pool_serving(self):
        executor = ServiceExecutor(max_workers=1, poll_interval=0.01)
        try:
            assert executor.submit(SleepJob(0.5)).cancel()
            assert executor.submit(EchoJob(7)).result(timeout=10) == 7
            assert executor.queue_depth == 0
        finally:
            executor.shutdown(drain=False)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run_script(tmp_path, source, timeout):
    """Run ``source`` as a script in a fresh interpreter that imports repro."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(source))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


class TestWorkerStartFailures:
    def test_unclosed_executor_exits_after_pool_collapse(self, tmp_path):
        """Large tasks stranded in the queue must not hang interpreter exit
        when every worker died and nobody shut the executor down."""
        done = run_script(tmp_path, """
            import os
            if __name__ == "__mp_main__":
                os._exit(1)  # every spawned worker dies at start-up
            from repro.service import ServiceExecutor, WorkerCrashError

            class BigJob:
                def __init__(self):
                    self.payload = b"x" * 200_000

                def run(self):
                    return len(self.payload)

            if __name__ == "__main__":
                executor = ServiceExecutor(max_workers=1, poll_interval=0.01)
                for future in [executor.submit(BigJob()) for _ in range(3)]:
                    try:
                        future.result(timeout=60)
                    except WorkerCrashError:
                        print("crashed")
                # The collapsed pool fails later work at once.
                try:
                    executor.submit(BigJob()).result(timeout=5)
                except WorkerCrashError:
                    print("crashed")
            """, timeout=45)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["crashed"] * 4

    def test_spawn_failure_raises_naming_jobs_1(self, monkeypatch):
        process_class = multiprocessing.get_context("spawn").Process
        real_start = process_class.start
        started = []

        def start_one_then_fail(process):
            if started:
                raise OSError("cannot fork: resource temporarily unavailable")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(process_class, "start", start_one_then_fail)
        executor = ServiceExecutor(max_workers=2, poll_interval=0.01)
        with pytest.raises(RuntimeError, match="--jobs 1") as info:
            executor.submit(EchoJob(1))
        assert "resource temporarily unavailable" in str(info.value)
        assert len(started) == 1 and not started[0].is_alive()
        assert started[0] not in multiprocessing.active_children()

    def test_guardless_script_fails_naming_main(self, tmp_path):
        done = run_script(tmp_path, """
            from repro.api import build_engine
            from repro.exec import plan_jobs
            from repro.scheduling import RescqScheduler
            from repro.sim import SimulationConfig, default_layout
            from repro.workloads import qft_circuit

            circuit = qft_circuit(3)
            jobs = plan_jobs([RescqScheduler()], circuit, SimulationConfig(),
                             default_layout(circuit), 2)
            build_engine(jobs=2).run(jobs)
            """, timeout=90)
        assert done.returncode != 0
        crash = [line for line in done.stderr.splitlines()
                 if line.startswith("repro.service.executor.WorkerCrashError")]
        assert crash and "__name__ == \"__main__\"" in crash[-1], done.stderr
        assert "PYTHONPATH" in crash[-1]


@pytest.mark.parametrize("modules", [
    ("repro.api", "repro.service"),
    ("repro.service", "repro.api"),
    ("repro.analysis",),
    ("repro.cli",),
])
def test_fresh_interpreter_imports(tmp_path, modules):
    imports = "".join(f"import {name}\n" for name in modules)
    done = run_script(tmp_path, imports + """
from repro.api import build_engine, run_experiment
from repro.service import ExperimentServer, ExperimentService
assert isinstance(build_engine(), ExperimentService)
""", timeout=60)
    assert done.returncode == 0, done.stderr


class TestExperimentService:
    def test_executed_then_cached(self, pool, tmp_path):
        service = ExperimentService(executor=pool,
                                    cache=DirectoryCache(tmp_path))
        job = make_jobs(mst_period=11)[0]
        first = service.resolve(job)
        assert first.source == "executed"
        result = first.future.result(timeout=60)
        assert result == job.run()
        # The done-callback published to the cache before resolving.
        second = service.resolve(job)
        assert second.source == "cache"
        assert second.future.result(timeout=1) == result
        assert service.stats.executed == 1
        assert service.stats.cache_hits == 1

    def test_inflight_duplicate_is_deduped(self, pool, tmp_path):
        service = ExperimentService(executor=pool,
                                    cache=DirectoryCache(tmp_path))
        job = make_jobs(mst_period=12)[0]
        key = job.fingerprint()
        leader, flight = service.singleflight.begin(key)
        assert leader
        resolved = service.resolve(job)
        assert resolved.source == "deduped"
        assert resolved.future is flight
        service.singleflight.finish(key, "sentinel")
        assert resolved.future.result(timeout=1) == "sentinel"
        assert service.stats.deduped == 1

    def test_submit_plan_counts_and_order(self, pool, tmp_path):
        service = ExperimentService(executor=pool,
                                    cache=DirectoryCache(tmp_path))
        jobs = make_jobs(seeds=3, mst_period=13)
        resolved = service.submit_plan(jobs)
        assert [item.job.seed for item in resolved] == [0, 1, 2]
        for item in resolved:
            item.future.result(timeout=60)
        counts = service.counts_for(resolved)
        assert counts == {"jobs": 3, "executed": 3, "cache_hits": 0,
                          "deduped": 0}
        replay = service.submit_plan(make_jobs(seeds=3, mst_period=13))
        assert service.counts_for(replay) == {
            "jobs": 3, "executed": 0, "cache_hits": 3, "deduped": 0}

    def test_submit_failure_releases_the_flight(self):
        executor = ServiceExecutor(max_workers=1)
        executor.shutdown()
        service = ExperimentService(executor=executor)
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit_plan([EchoJob(1)])
        assert len(service.singleflight) == 0

    def test_job_failure_counts_as_error(self, pool):
        service = ExperimentService(executor=pool, cache=None)
        resolved = service.resolve(FailJob())
        with pytest.raises(JobFailedError):
            resolved.future.result(timeout=30)
        deadline = time.monotonic() + 5
        while service.stats.errors == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.stats.errors == 1
        assert len(service.singleflight) == 0

    def test_snapshot_shape(self, pool, tmp_path):
        service = ExperimentService(executor=pool,
                                    cache=DirectoryCache(tmp_path))
        snapshot = service.snapshot()
        assert set(snapshot) == {"requests", "jobs", "executed", "cache_hits",
                                 "deduped", "errors", "rejected",
                                 "in_flight", "queue_depth", "max_pending",
                                 "cache"}
        assert snapshot["cache"] == {"hits": 0, "misses": 0, "stores": 0}
        assert snapshot["max_pending"] is None

    def test_leader_failure_releases_followers_and_retires_key(self, pool):
        """The SingleFlight leader-failure path, end to end through the
        service: when the leader's job errors, followers must receive the
        error (not hang), the fingerprint must be retired, and a later
        submission must retry with a fresh execution."""
        service = ExperimentService(executor=pool, cache=None)
        leader = service.resolve(SlowFailJob())
        assert leader.source == "executed"
        follower = service.resolve(SlowFailJob())
        assert follower.source == "deduped"
        with pytest.raises(JobFailedError, match="slow boom"):
            follower.future.result(timeout=30)
        with pytest.raises(JobFailedError, match="slow boom"):
            leader.future.result(timeout=30)
        deadline = time.monotonic() + 5
        while len(service.singleflight) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(service.singleflight) == 0  # fingerprint retired
        retry = service.resolve(SlowFailJob())
        assert retry.source == "executed"  # not deduped onto a dead flight
        with pytest.raises(JobFailedError, match="slow boom"):
            retry.future.result(timeout=30)

    def test_admission_rejects_at_the_high_water_mark(self, pool, tmp_path):
        service = ExperimentService(executor=pool,
                                    cache=DirectoryCache(tmp_path),
                                    max_pending=0, retry_after=2.5)
        with pytest.raises(AdmissionError) as info:
            service.submit_plan(make_jobs(mst_period=16))
        assert info.value.retry_after == 2.5
        assert service.stats.rejected == 1
        assert service.stats.jobs == 0  # refused before any job was queued
        service.max_pending = None
        resolved = service.submit_plan(make_jobs(mst_period=16))
        assert [item.future.result(timeout=60) for item in resolved]

    def test_admission_arguments_are_validated(self, pool):
        with pytest.raises(ValueError):
            ExperimentService(executor=pool, max_pending=-1)
        with pytest.raises(ValueError):
            ExperimentService(executor=pool, retry_after=0)

    @pytest.mark.parametrize("retry_after", [float("nan"), float("inf")])
    def test_non_finite_retry_after_is_rejected(self, retry_after):
        # A NaN or infinite Retry-After cannot be rounded into a header.
        with pytest.raises(ValueError, match="retry_after must be positive"):
            ExperimentService(retry_after=retry_after)

    def test_status_record_per_job(self, pool, tmp_path):
        service = ExperimentService(executor=pool,
                                    cache=DirectoryCache(tmp_path))
        job = make_jobs(mst_period=14)[0]
        resolved = service.resolve(job)
        resolved.future.result(timeout=60)
        status = resolved.status().to_dict()
        assert status["source"] == "executed"
        assert status["fingerprint"] == job.fingerprint()
        assert status["scheduler"] == "rescq"


# -- HTTP server ---------------------------------------------------------------

def spec_payload(mst_period=10, seeds=2, **envelope):
    payload = {"name": "svc-test", "benchmarks": ["VQE_n13"],
               "schedulers": ["rescq"], "seeds": seeds,
               "config": {"mst_period": mst_period, "mst_latency": 10}}
    if envelope:
        return {"spec": payload, **envelope}
    return payload


def request(server, method, path, payload=None, raw=None):
    status, _headers, body = request_full(server, method, path,
                                          payload=payload, raw=raw)
    return status, body


def request_full(server, method, path, payload=None, raw=None):
    body = raw if raw is not None else (
        json.dumps(payload).encode() if payload is not None else None)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=300)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        headers = {name.lower(): value
                   for name, value in response.getheaders()}
        return response.status, headers, response.read()
    finally:
        conn.close()


def ndjson_lines(data):
    return [json.loads(line) for line in data.decode().splitlines()]


@contextlib.contextmanager
def serving(service):
    """Run an :class:`ExperimentServer` for ``service`` on a loopback port."""
    instance = ExperimentServer(service, port=0)
    started = threading.Event()
    box = {}

    def runner():
        async def main():
            await instance.start()
            box["loop"] = asyncio.get_event_loop()
            box["stop"] = asyncio.Event()
            started.set()
            await box["stop"].wait()
            await instance.stop(drain=True)
        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(timeout=120), "server failed to start"
    yield instance
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(timeout=120)
    assert not thread.is_alive(), "server failed to stop cleanly"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    executor = ServiceExecutor(max_workers=2, poll_interval=0.01)
    service = ExperimentService(
        executor=executor,
        cache=DirectoryCache(tmp_path_factory.mktemp("service-cache")))
    with serving(service) as instance:
        yield instance


class TestExperimentServer:
    def test_healthz(self, server):
        status, data = request(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(data) == {"status": "ok"}
        # A collapsed pool answers 503, so the router marks the shard DEAD.
        executor = ServiceExecutor(max_workers=1, max_attempts=1,
                                   poll_interval=0.01)
        with serving(ExperimentService(executor=executor)) as collapsed:
            for _ in range(1 + 4):  # the first worker, then 4 respawns
                with pytest.raises(WorkerCrashError):
                    executor.submit(CrashJob()).result(timeout=60)
            wait_until(lambda: executor.collapsed)
            status, data = request(collapsed, "GET", "/healthz")
        assert status == 503
        assert json.loads(data)["status"] == "collapsed"

    def test_unknown_path_is_404_with_route_hint(self, server):
        for path in ("/nope", "/cache"):
            status, data = request(server, "GET", path)
            assert status == 404, path
            assert "POST /experiments" in json.loads(data)["error"]

    def test_wrong_method_is_405(self, server):
        status, _ = request(server, "GET", "/experiments")
        assert status == 405

    def test_bad_json_is_400(self, server):
        status, data = request(server, "POST", "/experiments", raw=b"{nope")
        assert status == 400
        assert "not valid JSON" in json.loads(data)["error"]

    def test_unknown_benchmark_is_400(self, server):
        payload = spec_payload()
        payload["benchmarks"] = ["no_such_bench"]
        status, data = request(server, "POST", "/experiments", payload=payload)
        assert status == 400
        assert "no_such_bench" in json.loads(data)["error"]

    def test_submit_twice_rows_identical_second_all_cached(self, server):
        status, first = request(server, "POST", "/experiments",
                                payload=spec_payload(mst_period=10))
        assert status == 200
        status, second = request(server, "POST", "/experiments",
                                 payload=spec_payload(mst_period=10))
        assert status == 200

        def split(data):
            lines = data.decode().splitlines()
            return lines[:-1], json.loads(lines[-1])

        first_rows, first_summary = split(first)
        second_rows, second_summary = split(second)
        assert first_rows == second_rows  # byte-identical row stream
        assert first_summary["jobs"] == 2
        assert first_summary["executed"] + first_summary["cache_hits"] == 2
        assert second_summary["executed"] == 0
        assert second_summary["cache_hits"] + second_summary["deduped"] == 2
        rows = ndjson_lines(first)
        assert [row["seed"] for row in rows[:-1]] == [0, 1]
        assert all(row["scheduler"] == "rescq" for row in rows[:-1])
        assert all("status" not in row for row in rows[:-1])

    def test_envelope_status_and_request_id(self, server):
        payload = spec_payload(mst_period=15, seeds=1, request_id="req-7",
                               include_status=True)
        status, data = request(server, "POST", "/experiments",
                               payload=payload)
        assert status == 200
        *rows, summary = ndjson_lines(data)
        assert summary["type"] == "summary"
        assert summary["request_id"] == "req-7"
        assert len(rows) == 1
        row_status = rows[0]["status"]
        assert row_status["source"] in ("executed", "cache", "deduped")
        assert len(row_status["fingerprint"]) == 64

    def test_stats_endpoint_reflects_traffic(self, server):
        request(server, "POST", "/experiments",
                payload=spec_payload(mst_period=10))
        status, data = request(server, "GET", "/stats")
        assert status == 200
        snapshot = json.loads(data)
        assert snapshot["requests"] >= 1
        assert snapshot["jobs"] >= 2
        assert snapshot["in_flight"] == 0
        assert "cache" in snapshot

    def test_admission_refusal_is_429_with_retry_after(self, server):
        server.service.max_pending = 0
        server.service.retry_after = 2.0
        try:
            status, headers, data = request_full(
                server, "POST", "/experiments",
                payload=spec_payload(mst_period=17))
            assert status == 429
            assert headers["retry-after"] == "2"
            assert "max_pending" in json.loads(data)["error"]
        finally:
            server.service.max_pending = None
            server.service.retry_after = 1.0

    def test_indices_runs_a_sub_plan(self, server):
        payload = spec_payload(mst_period=18, seeds=3, indices=[1])
        status, data = request(server, "POST", "/experiments",
                               payload=payload)
        assert status == 200
        *rows, summary = ndjson_lines(data)
        assert summary["jobs"] == 1
        assert [row["seed"] for row in rows] == [1]

    def test_submission_validates_once_per_expand(self, server,
                                                  monkeypatch):
        calls = {"validate": 0, "expand": 0}
        for name in calls:
            original = getattr(ExperimentSpec, name)

            def counted(self, _name=name, _original=original):
                calls[_name] += 1
                return _original(self)
            monkeypatch.setattr(ExperimentSpec, name, counted)
        status, _data = request(server, "POST", "/experiments",
                                payload=spec_payload(mst_period=19, seeds=1))
        assert status == 200
        # expand() validates first; a second, outer validate() is waste.
        assert calls == {"validate": 1, "expand": 1}

    def test_out_of_range_indices_is_400(self, server):
        payload = spec_payload(mst_period=18, seeds=2, indices=[9])
        status, data = request(server, "POST", "/experiments",
                               payload=payload)
        assert status == 400
        assert "out of range" in json.loads(data)["error"]

    def test_non_increasing_indices_is_400(self, server):
        payload = spec_payload(mst_period=18, seeds=2, indices=[1, 0])
        status, data = request(server, "POST", "/experiments",
                               payload=payload)
        assert status == 400
        assert "strictly increasing" in json.loads(data)["error"]
