"""Simulation jobs: the unit of work the experiment service runs.

A :class:`SimJob` freezes everything one scheduler run depends on — the
circuit, the scheduler instance, the simulation configuration, the layout and
the seed — so the run can be shipped to a worker process or looked up in a
result cache.  The cache key is :meth:`SimJob.fingerprint`, a SHA-256 over a
canonical JSON description of those inputs.  The fingerprint deliberately
avoids Python's randomised ``hash()`` and any ``id()``/``repr``-of-object
content, so it is stable across interpreter processes and sessions.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..canonical import content_hash
from ..circuits import Circuit
from ..circuits.textio import to_artifact_format
from ..fabric.layout import GridLayout
from ..sim.config import SimulationConfig
from ..sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..scheduling.base import Scheduler

__all__ = ["SimJob", "job_fingerprint", "plan_jobs"]


def _canonical(value):
    """Reduce a value to JSON-serialisable data with a stable ordering."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _canonical(getattr(value, name))
                for name in sorted(f.name for f in dataclasses.fields(value))}
    if isinstance(value, dict):
        return {str(key): _canonical(item)
                for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _circuit_descriptor(circuit: Circuit) -> Dict[str, object]:
    # include_barriers=True: the appendix B.7 format drops barriers, but a
    # barrier changes layer structure and hence scheduling behaviour, so two
    # circuits differing only in barriers must not share a cache entry.
    # Imported .qasm files and generated scenarios are fingerprinted by this
    # full gate content (plus the circuit name), so editing a file or changing
    # a generator seed/parameter always misses the cache.
    return {
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "gates": to_artifact_format(circuit, include_barriers=True),
    }


def _scheduler_descriptor(scheduler: "Scheduler") -> Dict[str, object]:
    return {
        "class": type(scheduler).__name__,
        "name": scheduler.name,
        "params": _canonical(dict(vars(scheduler))),
    }


_TILE_CHARS = {"data": "d", "ancilla": "a", "disabled": "x"}


def _layout_descriptor(layout: GridLayout) -> Dict[str, object]:
    tile_rows = []
    for row in range(layout.rows):
        # One char per tile: 'd'ata, 'a'ncilla, 'x' disabled.
        tile_rows.append("".join(
            _TILE_CHARS[layout.tile_type((row, col)).value]
            for col in range(layout.cols)))
    return {
        "rows": layout.rows,
        "cols": layout.cols,
        "tiles": tile_rows,
        "data_positions": {str(qubit): list(position) for qubit, position
                           in sorted(layout.data_positions.items())},
    }


def job_fingerprint(circuit: Circuit, scheduler: "Scheduler",
                    config: SimulationConfig, layout: GridLayout,
                    seed: int) -> str:
    """Content hash of one simulation point, stable across processes."""
    payload = {
        "circuit": _circuit_descriptor(circuit),
        "scheduler": _scheduler_descriptor(scheduler),
        "config": _canonical(config),
        "layout": _layout_descriptor(layout),
        "seed": int(seed),
    }
    # content_hash hashes canonical_dumps, which equals json.dumps(
    # sort_keys=True, compact separators) for every valid payload, so
    # fingerprints are unchanged from earlier releases — but a NaN smuggled
    # into a config now fails loudly instead of silently producing a
    # fingerprint no other host can reproduce.
    return content_hash(payload)


@dataclass
class SimJob:
    """One (circuit, scheduler, config, layout, seed) simulation point.

    Jobs are plain picklable records:
    :class:`~repro.service.executor.ServiceExecutor` ships them to worker
    processes whole, and :meth:`run` is all a worker needs to call.
    """

    circuit: Circuit
    scheduler: "Scheduler"
    config: SimulationConfig
    layout: GridLayout
    seed: int
    #: Free-form labels attached by the planner (e.g. the grid-point values a
    #: spec expansion produced this job for).  Tags are carried alongside the
    #: job but are *not* part of its identity: they are excluded from
    #: comparison and from :meth:`fingerprint`, so tagging a job never
    #: invalidates its cache entry.
    tags: Dict[str, object] = field(default_factory=dict, repr=False,
                                    compare=False)
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def benchmark(self) -> str:
        return self.circuit.name

    @property
    def scheduler_name(self) -> str:
        return self.scheduler.name

    def fingerprint(self) -> str:
        """SHA-256 cache key over the job's full content (memoised)."""
        if self._fingerprint is None:
            self._fingerprint = job_fingerprint(
                self.circuit, self.scheduler, self.config, self.layout,
                self.seed)
        return self._fingerprint

    def run(self) -> SimulationResult:
        """Execute the job in the current process."""
        return self.scheduler.run(self.circuit, self.layout, self.config,
                                  seed=self.seed)

    def describe(self) -> str:
        return (f"{self.benchmark}/{self.scheduler_name}"
                f"[{self.config.describe()}] seed={self.seed}")


def plan_jobs(schedulers: Sequence["Scheduler"], circuit: Circuit,
              config: SimulationConfig, layout: GridLayout,
              seeds: Union[int, Sequence[int]],
              tags: Optional[Dict[str, object]] = None) -> List[SimJob]:
    """Expand one comparison point into its scheduler x seed job list.

    ``seeds`` accepts either an integer (meaning seeds ``0..n-1``) or an
    explicit sequence of seed values.  Jobs are emitted scheduler-major with
    seeds ascending, the order
    :meth:`~repro.service.service.ExperimentService.run` returns results in.
    ``tags`` (copied per job) label every emitted job, e.g. with the
    grid-point values an experiment spec expanded.
    """
    if isinstance(seeds, int):
        seed_list: Sequence[int] = range(seeds)
    else:
        seed_list = seeds
    return [SimJob(circuit=circuit, scheduler=scheduler, config=config,
                   layout=layout, seed=seed, tags=dict(tags or {}))
            for scheduler in schedulers for seed in seed_list]
