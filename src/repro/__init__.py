"""repro — a from-scratch reproduction of RESCQ (ASPLOS 2025).

RESCQ is a realtime scheduler for surface-code architectures that natively
prepare continuous-angle rotation states |m_theta>.  This package provides the
whole stack the paper's evaluation rests on:

* :mod:`repro.circuits` — Clifford+Rz circuit IR, dependency DAG, text I/O;
* :mod:`repro.workloads` — the Table 3 benchmark generators;
* :mod:`repro.fabric` — STAR tile layouts and grid compression;
* :mod:`repro.lattice` — lattice-surgery costs, edge orientation, routing;
* :mod:`repro.rus` — |m_theta> preparation/injection statistics (with
  vectorised, stream-equivalent batch sampling) and the Clifford+T
  comparison;
* :mod:`repro.kernel` — the shared simulation kernel: clock + event queue,
  fabric occupancy state, gate lifecycle, profiler, and the two drive loops
  (event-driven and layer-synchronous) policies plug into;
* :mod:`repro.scheduling` — the policies: RESCQ plus the greedy and
  AutoBraid baselines;
* :mod:`repro.sim` — the seeded cycle-level symbolic-execution simulator;
* :mod:`repro.exec` — job planning: every sweep/comparison is planned as
  explicit :class:`~repro.exec.SimJob` records, with an optional on-disk
  result cache keyed by content fingerprint;
* :mod:`repro.service` — the one job runner,
  :class:`~repro.service.ExperimentService` (inline, or over spawned worker
  processes), and the ``rescq serve`` HTTP front end around it;
* :mod:`repro.analysis` — sweeps and experiment drivers for every figure and
  table of the paper.

* :mod:`repro.api` — the declarative layer: named registries for schedulers,
  benchmarks, layouts and sweep axes; :class:`~repro.api.ExperimentSpec`
  (a JSON-round-trippable experiment description); and
  :class:`~repro.api.ResultSet`, the filterable result container.

Quickstart::

    from repro.api import ExperimentSpec, run_experiment

    spec = ExperimentSpec(benchmarks=("qft_n18",),
                          schedulers=("autobraid", "rescq"), seeds=3)
    results = run_experiment(spec)
    print({row["scheduler"]: row["mean_cycles"]
           for row in results.aggregate("scheduler")})

To fan the same experiment out over worker processes with an on-disk memo of
finished points (spawned workers re-import the main module, so guard it)::

    from repro.api import build_engine

    if __name__ == "__main__":
        with build_engine(jobs=8, cache=".rescq-cache") as engine:
            results = run_experiment(spec, engine)
"""

from .circuits import Circuit, Gate, GateType
from .fabric import GridLayout, StarVariant, compress_layout, star_layout
from .rus import InjectionModel, InjectionStrategy, PreparationModel
from .scheduling import AutoBraidScheduler, GreedyScheduler, RescqScheduler
from .sim import (
    SimulationConfig,
    SimulationResult,
    default_layout,
    geometric_mean,
)
from .exec import SimJob
from .api import (
    ExperimentSpec,
    Registry,
    ResultSet,
    build_engine,
    run_experiment,
)

try:
    from importlib.metadata import PackageNotFoundError as _PkgNotFound
    from importlib.metadata import version as _pkg_version
    try:
        __version__ = _pkg_version("rescq-repro")
    except _PkgNotFound:
        __version__ = "1.1.0"
except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
    __version__ = "1.1.0"

__all__ = [
    "__version__",
    "ExperimentSpec",
    "Registry",
    "ResultSet",
    "build_engine",
    "run_experiment",
    "Circuit",
    "Gate",
    "GateType",
    "GridLayout",
    "StarVariant",
    "star_layout",
    "compress_layout",
    "PreparationModel",
    "InjectionModel",
    "InjectionStrategy",
    "RescqScheduler",
    "GreedyScheduler",
    "AutoBraidScheduler",
    "SimulationConfig",
    "SimulationResult",
    "default_layout",
    "geometric_mean",
    "SimJob",
]
