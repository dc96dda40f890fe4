"""Lightweight per-phase instrumentation threaded through the kernel.

A :class:`KernelProfile` accumulates two kinds of counters for one run:

* **simulated-cycle counters** (``sim_*``) — how many lattice-surgery cycles
  of hardware work each phase scheduled (preparation, injection, CNOT
  merges, Hadamards, edge rotations);
* **wall-time counters** (``wall_*_s``) — real seconds spent in the
  classical-controller phases worth watching (routing queries, the MST
  pipeline's activity snapshots and tree builds, and the whole run),
  measured with :func:`time.perf_counter`.  Nested
  :meth:`KernelProfile.timer` phases are **exclusive**: time accumulated by
  an inner timer is subtracted from every enclosing timer, so phase seconds
  add up without double-counting (an MST build that issues routing queries
  books the query time under ``routing``, not twice).  ``wall_total_s`` is
  recorded directly via :meth:`KernelProfile.add_wall` and stays inclusive —
  it is the denominator for per-phase shares;
* **event counters** — scheduling passes, processed events, routing queries
  and routing-plan cache hits; RESCQ adds ``task_visits`` (task visits over
  all sweeps), ``tasks_woken`` (wakes of parked tasks), ``mst_builds`` (MST
  computations *started*, one activity snapshot each), ``mst_trees``
  (snapshots *published*; computations still in flight when the run ends
  never publish) and ``mst_trees_built`` (published snapshots built into a
  tree, which happens on the first read: at most ``mst_trees``).

Profiles are cheap (a few thousand float additions per run) but still
opt-in: schedulers build one only when
:attr:`~repro.sim.config.SimulationConfig.profile_enabled` is set, and the
flattened dict lands in :attr:`~repro.sim.results.SimulationResult.profile`
(rendered by ``rescq run --profile``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Dict, Iterator, Optional

__all__ = ["KernelProfile", "profile_timer"]

#: Reusable no-op context (nullcontext is stateless, safe to share).
_NULL_CONTEXT = nullcontext()


def profile_timer(profile: Optional["KernelProfile"],
                  phase: str) -> ContextManager[None]:
    """``profile.timer(phase)`` or a shared no-op when profiling is off.

    Lets call sites write one ``with profile_timer(self.profile, "x"):``
    around the real call instead of duplicating it in an if/else — the
    profiled and unprofiled paths must execute identical work.
    """
    if profile is None:
        return _NULL_CONTEXT
    return profile.timer(phase)


class KernelProfile:
    """Per-phase cycle and wall-time counters for one simulation run."""

    __slots__ = ("wall", "counters", "_frames")

    def __init__(self) -> None:
        #: phase -> accumulated wall seconds (exclusive of nested timers).
        self.wall: Dict[str, float] = {}
        #: counter name -> accumulated value (simulated cycles or counts).
        self.counters: Dict[str, float] = {}
        #: Open timer frames: ``[phase, start, child_seconds]`` per nesting
        #: level, used to make nested phase timers exclusive.
        self._frames: list = []

    def add(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def add_wall(self, phase: str, seconds: float) -> None:
        self.wall[phase] = self.wall.get(phase, 0.0) + seconds

    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Accumulate the *exclusive* wall time of the block under ``phase``.

        Time spent inside nested ``timer`` blocks is attributed to the inner
        phase only; the enclosing phase books the remainder.
        """
        frame = [phase, time.perf_counter(), 0.0]
        self._frames.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame[1]
            self._frames.pop()
            self.add_wall(phase, elapsed - frame[2])
            if self._frames:
                self._frames[-1][2] += elapsed

    def as_dict(self) -> Dict[str, float]:
        """Flatten to the ``SimulationResult.profile`` mapping.

        Wall phases appear as ``wall_<phase>_s`` (rounded to microseconds),
        counters under their own names.
        """
        flat: Dict[str, float] = {}
        for phase in sorted(self.wall):
            flat[f"wall_{phase}_s"] = round(self.wall[phase], 6)
        for name in sorted(self.counters):
            flat[name] = self.counters[name]
        return flat
