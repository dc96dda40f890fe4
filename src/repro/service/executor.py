"""ServiceExecutor: the work-stealing process pool behind ``--jobs N``.

:class:`~repro.service.service.ExperimentService` runs jobs inline by
default; given this executor it fans them out over worker processes, for a
batch ``rescq run/sweep/exp --jobs N`` and for ``rescq serve`` alike:

* **work stealing** — jobs go into one shared queue and idle workers pull
  the next job the moment they finish, so a slow simulation never strands
  queued work behind it;
* **per-job timeout** — a runaway simulation is killed (its worker is
  terminated and replaced) instead of wedging the service;
* **bounded retry on worker death** — a crashed worker (OOM kill, segfault
  in an extension) fails the job it was running with a retry budget, not
  the whole pool;
* **graceful drain** — shutdown stops intake, finishes in-flight work,
  then dismisses the workers.

Workers are created with the ``spawn`` start method.  A service forks
workers *while connections are open*; with ``fork`` every child would
inherit the accepted client sockets, so the server's close never sends
FIN and clients streaming an NDJSON response hang waiting for EOF.
``spawn`` children inherit nothing but the two queues they are handed,
and are immune to fork-from-a-thread lock inheritance as a bonus.  The
price is start-up: each worker imports repro, numpy and networkx afresh
(about 1 s per pool), and re-imports the main module, so a script that
starts workers must do so under an ``if __name__ == "__main__":`` guard.

Platforms that cannot spawn processes fall back to inline execution with a
warning.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import traceback
import warnings
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, Optional

__all__ = ["ServiceExecutor", "JobFailedError", "JobTimeoutError",
           "WorkerCrashError"]


class JobFailedError(RuntimeError):
    """The job itself raised inside the worker (not retried)."""


class JobTimeoutError(RuntimeError):
    """The job exceeded the per-job timeout and its worker was killed."""


class WorkerCrashError(RuntimeError):
    """The worker process died while running the job, retry budget spent."""


_START_METHOD = "spawn"  # never fork: see the module docstring


def _worker_main(task_queue, result_queue, claim_conn, worker_id: int) -> None:
    """Worker loop: steal the next task, run it, report back.

    Claims go over a dedicated pipe rather than the result queue: a
    ``Connection.send`` is a synchronous write that completes before
    ``job.run()`` starts, so even a worker that dies instantly (segfault,
    OOM kill) has already told the parent which task it was holding.  The
    result queue's feeder thread gives no such guarantee.
    """
    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("exit", worker_id, None, None))
            return
        task_id, job = item
        claim_conn.send(task_id)
        try:
            result = job.run()
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            detail = (type(exc).__name__, str(exc), traceback.format_exc())
            result_queue.put(("error", worker_id, task_id, detail))
        else:
            result_queue.put(("done", worker_id, task_id, result))


@dataclass
class _Task:
    job: object
    future: "Future"
    attempts: int = 0
    started_at: Optional[float] = None
    worker_id: Optional[int] = None
    timed_out: bool = False
    detail: str = field(default="")


class ServiceExecutor:
    """Work-stealing process pool with timeouts, retries and graceful drain.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to ``os.cpu_count()``.
    job_timeout:
        Seconds a single job may run before its worker is terminated and the
        job fails with :class:`JobTimeoutError`.  ``None`` disables the
        watchdog.
    max_attempts:
        Total tries a job gets when its worker *dies* mid-run (crash, OOM
        kill, timeout-terminate of a different job sharing the worker is
        impossible — one job per worker at a time).  Exceptions raised *by*
        the job are never retried; they are deterministic.
    poll_interval:
        Collector wake-up period for timeout/liveness checks, in seconds.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 max_attempts: int = 2,
                 poll_interval: float = 0.05) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self._ctx = multiprocessing.get_context(_START_METHOD)

        self._lock = threading.RLock()
        self._tasks: Dict[int, _Task] = {}
        self._workers: Dict[int, multiprocessing.Process] = {}
        self._claims: Dict[int, object] = {}  # worker_id -> Connection
        self._next_task_id = 0
        self._next_worker_id = 0
        self._started = False
        self._inline = False
        self._closed = False
        self._stop = threading.Event()
        self._task_queue = None
        self._result_queue = None
        self._collector: Optional[threading.Thread] = None
        # Backstop against a respawn storm: if the environment kills every
        # worker we start (e.g. it cannot import the main module), stop
        # respawning and fail pending work instead of burning CPU forever.
        self._respawn_budget = 4 * self.max_workers

    # -- lifecycle -------------------------------------------------------------

    def _spawn_worker_locked(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._task_queue, self._result_queue, send_conn, worker_id),
            daemon=True)
        process.start()
        send_conn.close()  # the child holds the write end now
        self._workers[worker_id] = process
        self._claims[worker_id] = recv_conn

    def start(self) -> None:
        """Start the worker pool eagerly (e.g. before accepting traffic).

        Idempotent; :meth:`submit` calls it lazily otherwise.
        """
        self._ensure_started()

    def _ensure_started(self) -> None:
        with self._lock:
            if self._started or self._inline:
                return
            try:
                self._task_queue = self._ctx.Queue()
                self._result_queue = self._ctx.Queue()
                # Never join the feeder threads at interpreter exit: with
                # every worker dead, a feeder blocked writing a large task
                # into the full pipe would hang an unclosed executor's exit.
                for mp_queue in (self._task_queue, self._result_queue):
                    mp_queue.cancel_join_thread()
                for _ in range(self.max_workers):
                    self._spawn_worker_locked()
            except (OSError, PermissionError) as exc:
                warnings.warn(
                    f"ServiceExecutor could not start worker processes "
                    f"({exc}); falling back to inline execution (no "
                    f"timeouts, no crash isolation)", RuntimeWarning,
                    stacklevel=3)
                for process in self._workers.values():
                    try:
                        process.terminate()
                    except OSError:
                        pass
                self._workers.clear()
                for worker_id in list(self._claims):
                    self._close_claim(worker_id)
                self._inline = True
                return
            self._collector = threading.Thread(
                target=self._collect, name="rescq-service-collector",
                daemon=True)
            self._collector.start()
            self._started = True

    # -- submission ------------------------------------------------------------

    def submit(self, job) -> "Future":
        """Enqueue ``job`` (anything with a picklable ``run()``); return its future."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ServiceExecutor is shut down")
        self._ensure_started()
        future: "Future" = Future()
        if self._inline:
            try:
                result = job.run()
            except BaseException as exc:  # noqa: BLE001
                future.set_exception(JobFailedError(str(exc)))
            else:
                future.set_result(result)
            return future
        with self._lock:
            task_id = self._next_task_id
            self._next_task_id += 1
            self._tasks[task_id] = _Task(job=job, future=future)
        self._task_queue.put((task_id, job))
        return future

    @property
    def queue_depth(self) -> int:
        """Jobs submitted but not yet finished (queued + running)."""
        with self._lock:
            return len(self._tasks)

    # -- collector -------------------------------------------------------------

    def _collect(self) -> None:
        while not self._stop.is_set():
            self._drain_claims()
            self._drain_results()
            self._check_timeouts()
            self._check_workers()

    def _drain_claims(self) -> None:
        """Record which worker is holding which task (synchronous pipes)."""
        with self._lock:
            claims = list(self._claims.items())
        for worker_id, conn in claims:
            try:
                while conn.poll():
                    task_id = conn.recv()
                    with self._lock:
                        task = self._tasks.get(task_id)
                        if task is not None:
                            task.worker_id = worker_id
                            task.started_at = monotonic()
            except (EOFError, OSError):
                continue

    def _close_claim(self, worker_id: int) -> None:
        with self._lock:
            conn = self._claims.pop(worker_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _drain_results(self) -> None:
        try:
            message = self._result_queue.get(timeout=self.poll_interval)
        except (queue.Empty, OSError, EOFError):
            return
        while True:
            self._handle_message(message)
            try:
                message = self._result_queue.get_nowait()
            except (queue.Empty, OSError, EOFError):
                return

    def _handle_message(self, message) -> None:
        kind, worker_id, task_id, payload = message
        if kind == "exit":
            with self._lock:
                self._workers.pop(worker_id, None)
            self._close_claim(worker_id)
            return
        with self._lock:
            task = self._tasks.get(task_id)
        if task is None:
            return
        with self._lock:
            self._tasks.pop(task_id, None)
        if kind == "done":
            task.future.set_result(payload)
        elif kind == "error":
            name, text, trace = payload
            task.future.set_exception(JobFailedError(
                f"job raised {name}: {text}\n{trace}"))

    def _check_timeouts(self) -> None:
        if self.job_timeout is None:
            return
        now = monotonic()
        with self._lock:
            expired = [task for task in self._tasks.values()
                       if task.started_at is not None and not task.timed_out
                       and now - task.started_at > self.job_timeout]
            for task in expired:
                task.timed_out = True
                worker = self._workers.get(task.worker_id)
                if worker is not None:
                    worker.terminate()

    def _check_workers(self) -> None:
        with self._lock:
            dead = [(worker_id, process)
                    for worker_id, process in self._workers.items()
                    if not process.is_alive()]
            for worker_id, _process in dead:
                self._workers.pop(worker_id, None)
        if not dead:
            return
        # A killed worker may have flushed its final message just before
        # dying; account for it (and any claim it sent) before declaring its
        # task lost.
        self._drain_claims()
        self._drain_results()
        for worker_id, _process in dead:
            self._close_claim(worker_id)
            with self._lock:
                orphans = [task_id for task_id, task in self._tasks.items()
                           if task.worker_id == worker_id
                           and task.started_at is not None]
            for task_id in orphans:
                self._requeue_or_fail(task_id)
            with self._lock:
                if (not self._closed and not self._stop.is_set()
                        and self._respawn_budget > 0):
                    self._respawn_budget -= 1
                    self._spawn_worker_locked()
        with self._lock:
            if self._workers or self._respawn_budget > 0:
                return
            stranded = list(self._tasks.items())
            self._tasks.clear()
        for _task_id, task in stranded:
            task.future.set_exception(WorkerCrashError(
                "worker pool collapsed: every worker died and the respawn "
                "budget is spent.  Spawned workers re-import the main "
                "module, so a script must start them under an "
                "'if __name__ == \"__main__\":' guard; workers must also be "
                "able to import repro (install the package or set "
                "PYTHONPATH)"))

    def _requeue_or_fail(self, task_id: int) -> None:
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None:
                return
            if task.timed_out:
                self._tasks.pop(task_id, None)
                fail: Optional[BaseException] = JobTimeoutError(
                    f"job exceeded the {self.job_timeout}s per-job timeout "
                    f"and its worker was terminated")
            else:
                task.attempts += 1
                if task.attempts < self.max_attempts:
                    task.worker_id = None
                    task.started_at = None
                    fail = None
                else:
                    self._tasks.pop(task_id, None)
                    fail = WorkerCrashError(
                        f"worker process died while running the job "
                        f"({task.attempts} attempt(s), budget "
                        f"{self.max_attempts})")
        if fail is not None:
            task.future.set_exception(fail)
        else:
            self._task_queue.put((task_id, task.job))

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None
                 ) -> None:
        """Stop the pool.

        With ``drain=True`` (the default) intake closes, every in-flight and
        queued job finishes, and the workers exit cleanly.  With
        ``drain=False`` pending futures are cancelled and workers are
        terminated immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        if drain:
            deadline = None if timeout is None else monotonic() + timeout
            while True:
                with self._lock:
                    pending = len(self._tasks)
                if not pending:
                    break
                if deadline is not None and monotonic() > deadline:
                    break
                self._stop.wait(self.poll_interval)
        else:
            with self._lock:
                abandoned = list(self._tasks.values())
                self._tasks.clear()
                for process in self._workers.values():
                    process.terminate()
            for task in abandoned:
                task.future.cancel()
        with self._lock:
            workers = list(self._workers.values())
        for _ in workers:
            try:
                self._task_queue.put(None)
            except (OSError, ValueError):
                pass
        for process in workers:
            process.join(timeout=1.0)
        self._stop.set()
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        with self._lock:
            for process in self._workers.values():
                if process.is_alive():
                    process.terminate()
            self._workers.clear()
        for worker_id in list(self._claims):
            self._close_claim(worker_id)
        for mp_queue in (self._task_queue, self._result_queue):
            if mp_queue is not None:
                mp_queue.close()

    def describe(self) -> str:
        mode = "inline" if self._inline else str(self.max_workers)
        return f"service[{mode}]"

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
