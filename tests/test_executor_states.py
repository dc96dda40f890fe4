"""State-machine test for the worker pool's failure paths.

Hypothesis interleaves submit, kill-a-worker, cancel and shutdown on a
small :class:`ServiceExecutor`.  The jobs come from ``test_service`` so the
spawned workers, which unpickle them by importing their module, never pay
for importing hypothesis.
"""

import multiprocessing
from concurrent.futures import CancelledError

import pytest
from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.service import ServiceExecutor, WorkerCrashError
from test_service import CrashJob, EchoJob, wait_until

SETTLE_TIMEOUT = 30.0


@seed(7)
class ExecutorMachine(RuleBasedStateMachine):
    """No future is left pending, the collector outlives everything but
    shutdown, and no worker outlives shutdown."""

    def __init__(self):
        super().__init__()
        self.children_before = set(multiprocessing.active_children())
        self.futures = []  # (future, echoed value, or None for a CrashJob)
        self.closed = False

    @initialize(workers=st.integers(1, 2))
    def make_pool(self, workers):
        self.executor = ServiceExecutor(max_workers=workers,
                                        poll_interval=0.01)

    @precondition(lambda self: not self.closed)
    @rule(value=st.integers(0, 99))
    def submit_echo(self, value):
        self.futures.append((self.executor.submit(EchoJob(value)), value))

    @precondition(lambda self: not self.closed)
    @rule()
    def kill_a_worker(self):
        self.futures.append((self.executor.submit(CrashJob()), None))

    @precondition(lambda self: self.futures)
    @rule(index=st.integers(0, 99))
    def cancel(self, index):
        self.futures[index % len(self.futures)][0].cancel()

    @precondition(lambda self: not self.closed)
    @rule(drain=st.booleans())
    def shutdown(self, drain):
        self.executor.shutdown(drain=drain)
        self.closed = True
        with pytest.raises(RuntimeError, match="shut down"):
            self.executor.submit(EchoJob(0))
        assert set(multiprocessing.active_children()) <= self.children_before

    @rule()
    def settle(self):
        """Every future settles in bounded time, and the gauge empties."""
        for future, value in self.futures:
            try:
                result = future.result(timeout=SETTLE_TIMEOUT)
            except (CancelledError, WorkerCrashError):
                continue  # cancelled, a killed worker, or a collapsed pool
            assert value is not None and result == value
        wait_until(lambda: self.executor.queue_depth == 0, SETTLE_TIMEOUT)

    @invariant()
    def collector_alive_until_shutdown(self):
        collector = self.executor._collector
        if collector is not None and not self.closed:
            assert collector.is_alive()

    def teardown(self):
        self.settle()
        if not self.closed:
            self.shutdown(drain=True)


TestExecutorStateMachine = ExecutorMachine.TestCase
TestExecutorStateMachine.settings = settings(
    max_examples=6, stateful_step_count=6, deadline=None, derandomize=True,
    database=None)
