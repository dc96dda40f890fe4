"""Tests for job execution: jobs, the inline and pooled runner, caching,
determinism."""

import json
import multiprocessing
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, default_layout
from repro.api import ExperimentSpec, ResultSet, build_engine, run_experiment
from repro.exec import DirectoryCache, SimJob, job_fingerprint, plan_jobs
from repro.scheduling import (
    AutoBraidScheduler,
    GreedyScheduler,
    RescqScheduler,
    Scheduler,
)
from repro.service import ExperimentService, ServiceExecutor
from repro.workloads import qft_circuit

FAST = SimulationConfig(mst_period=10, mst_latency=10)


def make_jobs(num_seeds=2, num_qubits=5):
    circuit = qft_circuit(num_qubits)
    layout = default_layout(circuit)
    return plan_jobs([AutoBraidScheduler(), RescqScheduler()], circuit, FAST,
                     layout, num_seeds)


class SleepJob:
    """A distinct long job (picklable: workers import this module)."""

    def __init__(self, key):
        self.key = key

    def fingerprint(self):
        return f"{self.key:064x}"

    def run(self):
        time.sleep(30)
        return self.key


def fingerprint_of(distance, mst_period, seed):
    """Build a job from scratch and return its fingerprint.

    Module-level so it can be pickled into a worker process: the test for
    cross-process stability runs this exact function in a child interpreter.
    """
    circuit = qft_circuit(4)
    config = SimulationConfig(distance=distance, mst_period=mst_period,
                              mst_latency=10)
    layout = default_layout(circuit)
    return job_fingerprint(circuit, RescqScheduler(), config, layout, seed)


class TestSimJob:
    def test_run_matches_direct_scheduler_call(self):
        job = make_jobs(num_seeds=1)[0]
        direct = job.scheduler.run(job.circuit, job.layout, job.config,
                                   seed=job.seed)
        assert job.run() == direct

    def test_plan_jobs_order_is_scheduler_major_seed_ascending(self):
        jobs = make_jobs(num_seeds=3)
        assert [(job.scheduler_name, job.seed) for job in jobs] == [
            ("autobraid", 0), ("autobraid", 1), ("autobraid", 2),
            ("rescq", 0), ("rescq", 1), ("rescq", 2)]

    def test_plan_jobs_explicit_seed_sequence(self):
        circuit = qft_circuit(4)
        jobs = plan_jobs([RescqScheduler()], circuit, FAST,
                         default_layout(circuit), [7, 3])
        assert [job.seed for job in jobs] == [7, 3]

    def test_fingerprint_is_content_addressed(self):
        first, second = make_jobs(num_seeds=1)[0], make_jobs(num_seeds=1)[0]
        assert first is not second
        assert first.fingerprint() == second.fingerprint()

    def test_fingerprint_varies_with_every_input(self):
        base = make_jobs(num_seeds=1)[0]
        variants = [
            SimJob(base.circuit, base.scheduler, base.config, base.layout, 99),
            SimJob(base.circuit, base.scheduler,
                   base.config.with_updates(distance=9), base.layout,
                   base.seed),
            SimJob(qft_circuit(6), base.scheduler, base.config,
                   default_layout(qft_circuit(6)), base.seed),
            SimJob(base.circuit, GreedyScheduler(), base.config, base.layout,
                   base.seed),
        ]
        fingerprints = {job.fingerprint() for job in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_fingerprint_sees_barriers(self):
        from repro.circuits import Circuit, barrier as make_barrier

        def build(with_barrier):
            circuit = Circuit(2, name="fenced")
            circuit.h(0)
            if with_barrier:
                circuit.append(make_barrier())
            circuit.h(1)
            return circuit

        plain, fenced = build(False), build(True)
        layout = default_layout(plain)
        prints = {job_fingerprint(circuit, RescqScheduler(), FAST, layout, 0)
                  for circuit in (plain, fenced)}
        # A barrier changes layer structure (and thus static scheduling), so
        # circuits differing only by a barrier must not share a cache entry.
        assert len(prints) == 2

    def test_fingerprint_sees_scheduler_parameters(self):
        class Probe(Scheduler):
            name = "probe"

            def __init__(self, knob=0):
                self.knob = knob

            def run(self, circuit, layout, config, seed=0):
                raise NotImplementedError

        # Same class name as ``Probe``: only the result name differs.
        Renamed = type("Probe", (Probe,), {"name": "probe-v2"})
        base = make_jobs(num_seeds=1)[0]
        prints = {SimJob(base.circuit, scheduler, base.config, base.layout,
                         base.seed).fingerprint()
                  for scheduler in (Probe(), Probe(knob=1), Renamed())}
        assert len(prints) == 3

    @settings(max_examples=10, deadline=None)
    @given(distance=st.sampled_from([3, 5, 7, 9]),
           mst_period=st.integers(min_value=5, max_value=200),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_fingerprint_stable_across_processes(self, pool, distance,
                                                 mst_period, seed):
        """Property: a worker process derives the exact same fingerprint."""
        parent = fingerprint_of(distance, mst_period, seed)
        child = pool.submit(fingerprint_of, distance, mst_period,
                            seed).result()
        assert parent == child


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=1) as executor:
        yield executor


@pytest.fixture(scope="module")
def pooled():
    """The pooled runner: two spawned workers, shut down after the module."""
    with ExperimentService(executor=ServiceExecutor(
            max_workers=2, poll_interval=0.01)) as service:
        yield service


def new_children(before):
    return [process for process in multiprocessing.active_children()
            if process not in before]


class TestExecutors:
    def test_serial_preserves_job_order(self):
        jobs = make_jobs()
        results = ExperimentService().run(jobs)
        assert [(r.scheduler, r.seed) for r in results] == [
            (job.scheduler_name, job.seed) for job in jobs]

    def test_parallel_equals_serial(self, pooled):
        """The headline guarantee: same jobs -> identical results."""
        jobs = make_jobs(num_seeds=2)
        assert ExperimentService().run(jobs) == pooled.run(jobs)

    def test_parallel_empty_job_list(self, pooled):
        assert ExperimentService().run([]) == []
        assert pooled.run([]) == []

    def test_inline_run_raises_the_jobs_own_exception(self):
        circuit = qft_circuit(6)
        jobs = plan_jobs([GreedyScheduler()], circuit,
                         FAST.with_updates(max_cycles=20),
                         default_layout(circuit), 1)
        with pytest.raises(RuntimeError, match="max_cycles=20") as info:
            ExperimentService().run(jobs)
        assert type(info.value) is RuntimeError

    def test_run_experiment_raises_the_jobs_own_exception(self):
        spec = ExperimentSpec(benchmarks=("VQE_n13",), schedulers=("greedy",),
                              config={"max_cycles": 20}, seeds=1)
        with pytest.raises(RuntimeError, match="max_cycles=20") as info:
            run_experiment(spec)
        assert type(info.value) is RuntimeError

    def test_inline_run_stops_at_the_first_failing_job(self):
        spec = ExperimentSpec(benchmarks=("VQE_n13",),
                              schedulers=("greedy", "rescq"),
                              config={"max_cycles": 20}, seeds=3)
        engine = ExperimentService()
        with pytest.raises(RuntimeError, match="max_cycles=20"):
            run_experiment(spec, engine=engine)
        assert engine.stats.executed == 1


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = DirectoryCache(tmp_path / "cache")
        job = make_jobs(num_seeds=1)[0]
        key = job.fingerprint()
        assert cache.get(key) is None
        result = job.run()
        cache.put(key, result)
        assert key in cache
        assert cache.get(key) == result
        assert cache.stats.describe() == "hits=1 misses=1 stores=1"

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = DirectoryCache(tmp_path)
        path = tmp_path / ("a" * 64 + ".json")
        path.write_text("{not json")
        assert cache.get("a" * 64) is None
        assert cache.stats.misses == 1

    def test_len_and_clear(self, tmp_path):
        cache = DirectoryCache(tmp_path)
        job = make_jobs(num_seeds=1)[0]
        cache.put(job.fingerprint(), job.run())
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_entries_are_valid_json(self, tmp_path):
        cache = DirectoryCache(tmp_path)
        job = make_jobs(num_seeds=1)[0]
        cache.put(job.fingerprint(), job.run())
        payload = json.loads(
            (tmp_path / f"{job.fingerprint()}.json").read_text())
        assert payload["scheduler"] == job.scheduler_name


class TestExecutionEngine:
    def test_results_in_job_order(self):
        jobs = make_jobs()
        engine = ExperimentService()
        results = engine.run(jobs)
        assert [(r.scheduler, r.seed) for r in results] == [
            (job.scheduler_name, job.seed) for job in jobs]
        assert engine.stats.jobs == engine.stats.executed == len(jobs)

    def test_second_run_is_fully_cached(self, tmp_path):
        jobs = make_jobs()
        first_engine = ExperimentService(cache=DirectoryCache(tmp_path))
        first = first_engine.run(jobs)
        second_engine = ExperimentService(cache=DirectoryCache(tmp_path))
        second = second_engine.run(make_jobs())
        assert second == first
        assert second_engine.stats.executed == 0
        assert second_engine.stats.cache_hits == len(jobs)

    def test_partial_cache_executes_only_misses(self, tmp_path):
        cache = DirectoryCache(tmp_path)
        jobs = make_jobs(num_seeds=2)
        cache.put(jobs[0].fingerprint(), jobs[0].run())
        engine = ExperimentService(cache=cache)
        results = engine.run(jobs)
        assert engine.stats.cache_hits == 1
        assert engine.stats.executed == len(jobs) - 1
        assert results == ExperimentService().run(jobs)

    def test_parallel_cached_engine_matches_serial_uncached(self, tmp_path):
        jobs = make_jobs(num_seeds=2)
        reference = ExperimentService().run(jobs)
        with ExperimentService(
                executor=ServiceExecutor(max_workers=2, poll_interval=0.01),
                cache=DirectoryCache(tmp_path)) as fancy:
            assert fancy.run(make_jobs(num_seeds=2)) == reference
            # And again, now entirely from cache.
            assert fancy.run(make_jobs(num_seeds=2)) == reference
        assert fancy.stats.executed == len(jobs)

    def test_with_block_leaves_no_worker_alive(self):
        before = multiprocessing.active_children()
        with build_engine(jobs=2) as engine:
            engine.run(make_jobs(num_seeds=1))
            assert len(new_children(before)) == 2
        assert new_children(before) == []

    def test_exception_in_with_block_cancels_queued_work(self):
        before = multiprocessing.active_children()
        started = time.monotonic()
        with pytest.raises(KeyError, match="stop"):
            with build_engine(jobs=2) as engine:
                resolved = engine.submit_plan([SleepJob(key)
                                               for key in range(4)])
                raise KeyError("stop")
        assert time.monotonic() - started < 10
        for item in resolved:
            with pytest.raises(CancelledError):
                item.future.result(timeout=5)
        assert new_children(before) == []


class TestRunnerIntegration:
    def test_engine_choice_does_not_change_results(self, pooled):
        circuit = qft_circuit(5)
        jobs = plan_jobs([RescqScheduler()], circuit, FAST,
                         default_layout(circuit), 2)
        assert ExperimentService().run(jobs) == pooled.run(jobs)

    def test_comparison_rows_sorted_by_name(self):
        circuit = qft_circuit(5)
        jobs = plan_jobs(
            [RescqScheduler(), GreedyScheduler(), AutoBraidScheduler()],
            circuit, FAST, default_layout(circuit), 1)
        results = ExperimentService().run(jobs)
        rows = ResultSet.from_jobs(jobs, results).comparison_rows()
        assert list(rows) == ["autobraid", "greedy", "rescq"]

    def test_comparison_results_sorted_by_seed(self):
        circuit = qft_circuit(5)
        jobs = plan_jobs([RescqScheduler()], circuit, FAST,
                         default_layout(circuit), [2, 0, 1])
        results = ExperimentService().run(jobs)
        rows = ResultSet.from_jobs(jobs, results).comparison_rows()
        assert [r.seed for r in rows["rescq"].results] == [0, 1, 2]

    def test_comparison_identical_across_engines(self, pooled, tmp_path):
        circuit = qft_circuit(5)
        jobs = plan_jobs([AutoBraidScheduler(), RescqScheduler()], circuit,
                         FAST, default_layout(circuit), 2)

        def run(engine=None):
            engine = engine or ExperimentService()
            results = engine.run(jobs)
            return ResultSet.from_jobs(jobs, results).comparison_rows()

        reference = run()
        parallel = run(pooled)
        cached_engine = ExperimentService(cache=DirectoryCache(tmp_path))
        run(cached_engine)          # populate
        cached = run(cached_engine)  # replay
        for rows in (parallel, cached):
            assert list(rows) == list(reference)
            for name in reference:
                assert rows[name] == reference[name]
