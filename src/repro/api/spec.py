"""ExperimentSpec: a declarative, serializable description of an experiment.

A spec names *what* to run — benchmarks x schedulers x a
:class:`~repro.sim.config.SimulationConfig` parameter grid x seeds x layout —
and nothing about *how*: execution strategy (inline/pooled/cached) stays
with the :class:`~repro.service.service.ExperimentService`.  Specs round-trip
through plain dicts and JSON, so an experiment is a file you commit, diff and
re-run rather than a bespoke script::

    {
      "name": "fig10-headline",
      "benchmarks": ["VQE_n13"],
      "schedulers": ["greedy", "autobraid", "rescq"],
      "config": {"distance": 7, "physical_error_rate": 1e-4, "mst_period": 25},
      "seeds": 3
    }

``grid`` maps config fields (or ``"compression"``) to value lists; the spec
expands to the cartesian product benchmarks x grid points x schedulers x
seeds as a flat :class:`~repro.exec.jobs.SimJob` plan, each job tagged with
its grid-point values so the resulting
:class:`~repro.api.resultset.ResultSet` can group and pivot on them.

:func:`plan_experiment` is the one planner behind that expansion: the
figure drivers in :mod:`repro.analysis` call it with their own
:class:`~repro.circuits.Circuit` objects, so a spec and a driver that name
the same experiment plan the same jobs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..canonical import canonical_dumps
from ..scheduling import DEFAULT_SCHEDULER_NAMES
from ..sim.config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits import Circuit
    from ..exec.jobs import SimJob
    from ..scheduling.base import Scheduler

__all__ = ["ExperimentSpec", "SpecValidationError", "grid_points",
           "plan_experiment"]


class SpecValidationError(ValueError):
    """An :class:`ExperimentSpec` does not describe a runnable experiment."""


#: SimulationConfig fields a spec may set in ``config`` or sweep in ``grid``
#: (the enum/cost-table fields are excluded: they are not plain JSON values).
_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimulationConfig)
    if f.name not in ("baseline_injection_strategy", "costs"))


def grid_points(grid: Mapping[str, Sequence]) -> List[Dict[str, object]]:
    """Cartesian product of the grid axes (one dict per point).

    Axes expand in insertion order, later axes fastest.  An empty grid
    yields one empty point.
    """
    keys = list(grid)
    return [dict(zip(keys, values))
            for values in itertools.product(*(grid[key] for key in keys))]


def plan_experiment(circuits: Sequence["Circuit"],
                    schedulers: Sequence[Union[str, "Scheduler"]],
                    config: SimulationConfig,
                    grid: Optional[Mapping[str, Sequence]] = None,
                    seeds: Union[int, Sequence[int]] = 3,
                    layout: str = "star",
                    compression: float = 0.0,
                    layout_seed: int = 0) -> List["SimJob"]:
    """Plan circuits x grid points x schedulers x seeds as one job list.

    ``schedulers`` are registered names or scheduler instances; ``config``
    is the base every grid point overrides.  A grid key is a
    :class:`SimulationConfig` field or ``"compression"``; a grid
    compression replaces the ``compression`` argument for that point's
    ``layout``.  Values of a field that backs a registered sweep axis are
    cast through the axis's value type, so JSON numbers (always floats)
    land on the same configs, and hence cache fingerprints, as
    integer-typed values.  Jobs come out circuit-major, then grid point,
    then scheduler, then seed, each tagged with its grid point.
    """
    from ..exec.jobs import plan_jobs
    from .axes import AXIS_REGISTRY
    from .registries import LAYOUTS, SCHEDULERS
    instances = [SCHEDULERS.create(scheduler)
                 if isinstance(scheduler, str) else scheduler
                 for scheduler in schedulers]
    casts = {axis.parameter: axis.value_type
             for _name, axis in AXIS_REGISTRY.items()}
    points = []
    for point in grid_points(grid or {}):
        overrides = {key: casts[key](value) if key in casts else value
                     for key, value in point.items() if key != "compression"}
        points.append((point,
                       config.with_updates(**overrides) if overrides
                       else config,
                       float(point.get("compression", compression))))
    jobs: List["SimJob"] = []
    for circuit in circuits:
        for point, point_config, point_compression in points:
            point_layout = LAYOUTS.create(layout, circuit,
                                          compression=point_compression,
                                          seed=layout_seed)
            jobs.extend(plan_jobs(instances, circuit, point_config,
                                  point_layout, seeds, tags=point))
    return jobs


def _canonical_benchmark(name: str) -> str:
    """Normalise ``scenario:...`` references to their canonical spelling.

    ``scenario:clifford_t:depth=8,n=6`` and ``scenario:clifford_t:n=6,depth=8``
    build byte-identical circuits; canonicalising at spec construction makes
    them share one result label and one cache fingerprint.  Anything that
    fails to parse (including non-scenario names) is kept verbatim so
    :meth:`ExperimentSpec.validate` reports it with the resolver's message.
    """
    if not (isinstance(name, str) and name.startswith("scenario:")):
        return name
    try:
        from ..workloads.scenarios import parse_scenario_name, scenario_name
        family, params = parse_scenario_name(name)
        return scenario_name(family.name, **params)
    except Exception:
        return name


def _as_value_tuple(values) -> Tuple:
    if isinstance(values, (str, bytes)) or not isinstance(
            values, (list, tuple, range)):
        raise SpecValidationError(
            f"grid values must be a list of numbers, got {values!r}")
    return tuple(values)


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of benchmarks x schedulers x grid x seeds x layout.

    Attributes
    ----------
    benchmarks:
        Registered benchmark names (see ``rescq list``).
    schedulers:
        Registered scheduler names; defaults to the paper's three.
    name:
        Label used in titles and file names.
    config:
        Base :class:`SimulationConfig` overrides applied to every point,
        e.g. ``{"distance": 9}``.
    grid:
        Parameter -> list of values, swept as a cartesian product.  Keys are
        config fields (``distance``, ``physical_error_rate``, ``mst_period``,
        ...) or ``compression`` (layout co-design).
    seeds:
        Either a repetition count (seeds ``0..n-1``) or an explicit seed list.
    layout:
        Registered layout name (``star``, ``compact``, ``compressed``).
    compression:
        Baseline grid compression applied when ``compression`` is not swept.
    layout_seed:
        Seed for stochastic layout compression (the Figure 14 sweep uses 13).
    """

    benchmarks: Tuple[str, ...]
    schedulers: Tuple[str, ...] = DEFAULT_SCHEDULER_NAMES
    name: str = "experiment"
    config: Dict[str, object] = field(default_factory=dict)
    grid: Dict[str, Tuple] = field(default_factory=dict)
    seeds: Union[int, Tuple[int, ...]] = (0, 1, 2)
    layout: str = "star"
    compression: float = 0.0
    layout_seed: int = 0

    def __post_init__(self) -> None:
        # Normalise collection fields so equality (and hence JSON round-trip
        # equality) does not depend on list-vs-tuple spelling.
        if isinstance(self.benchmarks, str):
            raise SpecValidationError(
                "benchmarks must be a list of names, not a single string")
        # Canonicalise, then drop duplicates order-preservingly: two scenario
        # spellings may converge to one canonical name, and running (or
        # rendering) the same benchmark twice is never intended.
        names = [_canonical_benchmark(name) for name in self.benchmarks]
        try:
            names = list(dict.fromkeys(names))
        except TypeError:
            pass  # unhashable entries; validate() rejects them actionably
        object.__setattr__(self, "benchmarks", tuple(names))
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(
            self, "grid",
            {str(key): _as_value_tuple(values)
             for key, values in dict(self.grid).items()})
        if isinstance(self.seeds, bool) or not isinstance(
                self.seeds, (int, list, tuple, range)):
            raise SpecValidationError(
                f"seeds must be an integer count or a list of integers, "
                f"got {self.seeds!r}")
        if isinstance(self.seeds, int):
            object.__setattr__(self, "seeds", tuple(range(self.seeds)))
        else:
            object.__setattr__(self, "seeds", tuple(self.seeds))

    # -- validation ------------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check every name resolves and every value is usable.

        Raises :class:`SpecValidationError` with an actionable message;
        returns ``self`` so calls chain (``spec.validate().describe()``).
        :meth:`expand` validates first, so callers that expand need not.
        """
        from ..workloads.registry import resolve_benchmark
        from .registries import BENCHMARKS, LAYOUTS, SCHEDULERS
        if not self.benchmarks:
            raise SpecValidationError(
                "spec lists no benchmarks; add at least one of "
                f"{BENCHMARKS.names()}")
        if not self.schedulers:
            raise SpecValidationError(
                "spec lists no schedulers; add at least one of "
                f"{SCHEDULERS.names()}")
        for name in self.benchmarks:
            if not isinstance(name, str):
                raise SpecValidationError(
                    f"benchmark references must be strings (a registered "
                    f"name, a scenario:... name or a .qasm path), "
                    f"got {name!r}")
            # Registry names, scenario:... generator names and .qasm paths
            # all resolve here; resolution errors (unknown name, malformed
            # scenario parameters, unreadable/unparseable QASM) surface as
            # spec validation errors with the resolver's actionable message.
            try:
                resolve_benchmark(name)
            except (KeyError, ValueError) as exc:
                raise SpecValidationError(str(exc)) from None
        for kind, names, registry in (("scheduler", self.schedulers, SCHEDULERS),
                                      ("layout", (self.layout,), LAYOUTS)):
            for name in names:
                if name not in registry:
                    raise SpecValidationError(
                        f"unknown {kind} {name!r}; known {kind}s: "
                        f"{registry.names()}")
        if "compression" in self.config:
            raise SpecValidationError(
                "compression is a layout parameter, not a config field; "
                "set the top-level 'compression' field, or sweep it in "
                "'grid'")
        for key in list(self.config) + list(self.grid):
            if key not in _CONFIG_FIELDS and key != "compression":
                raise SpecValidationError(
                    f"unknown parameter {key!r}; config/grid keys must be "
                    f"SimulationConfig fields {sorted(_CONFIG_FIELDS)}, "
                    f"or 'compression' in grid")
        for key, values in self.grid.items():
            if not values:
                raise SpecValidationError(
                    f"grid axis {key!r} has no values; give it a non-empty "
                    f"list or drop it")
            if key in self.config:
                raise SpecValidationError(
                    f"parameter {key!r} appears in both config and grid; "
                    f"fix it in config or sweep it in grid, not both")
            for value in values:
                if isinstance(value, bool) or not isinstance(value,
                                                             (int, float)):
                    raise SpecValidationError(
                        f"grid axis {key!r} has non-numeric value {value!r}; "
                        f"grid values must be numbers")
        if not self.seeds:
            raise SpecValidationError(
                "spec has no seeds; use an integer count or a list of seeds")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise SpecValidationError(
                    f"seeds must be integers, got {seed!r}")
        if isinstance(self.compression, bool) or not isinstance(
                self.compression, (int, float)):
            raise SpecValidationError(
                f"compression must be a number, got {self.compression!r}")
        if not 0.0 <= float(self.compression) <= 1.0:
            raise SpecValidationError(
                f"compression must be within [0, 1], got {self.compression}")
        if isinstance(self.layout_seed, bool) or not isinstance(
                self.layout_seed, int):
            raise SpecValidationError(
                f"layout_seed must be an integer, got {self.layout_seed!r}")
        try:
            self.base_config()
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(
                f"config overrides {self.config!r} do not form a valid "
                f"SimulationConfig: {exc}") from None
        return self

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form; ``from_dict`` inverts it exactly."""
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "schedulers": list(self.schedulers),
            "config": dict(self.config),
            "grid": {key: list(values) for key, values in self.grid.items()},
            "seeds": list(self.seeds),
            "layout": self.layout,
            "compression": self.compression,
            "layout_seed": self.layout_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        """Build a spec from plain data (inverse of :meth:`to_dict`).

        Unknown keys are rejected with the list of accepted ones, so typos in
        spec files fail loudly instead of silently running the defaults.
        """
        if not isinstance(payload, Mapping):
            raise SpecValidationError(
                f"spec payload must be a JSON object, got {type(payload).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecValidationError(
                f"unknown spec keys {unknown}; accepted keys: {sorted(known)}")
        if "benchmarks" not in payload:
            raise SpecValidationError("spec is missing the 'benchmarks' key")
        return cls(**dict(payload))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON form: sorted keys, stable floats, NaN rejected.

        Two equal specs always serialise to identical bytes, which is what
        makes spec files diffable artifacts and cache keys stable across
        hosts.
        """
        return canonical_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- expansion -------------------------------------------------------------

    def base_config(self) -> SimulationConfig:
        """The :class:`SimulationConfig` before grid overrides."""
        return SimulationConfig(**self.config)

    def job_count(self) -> int:
        """Number of jobs :meth:`expand` will plan (without planning them)."""
        points = 1
        for values in self.grid.values():
            points *= len(values)
        return (len(self.benchmarks) * points * len(self.schedulers)
                * len(self.seeds))

    def expand(self) -> List["SimJob"]:
        """Expand the spec into its flat, ordered job plan.

        Jobs are emitted benchmark-major, then grid point, then scheduler
        (spec order), then seed — the order every executor preserves, so a
        :class:`~repro.api.resultset.ResultSet` built from (plan, results)
        slices back positionally.  Each job is tagged with its grid-point
        values.
        """
        from ..workloads.registry import resolve_benchmark
        self.validate()
        return plan_experiment(
            [resolve_benchmark(name).build() for name in self.benchmarks],
            self.schedulers, self.base_config(), self.grid, self.seeds,
            layout=self.layout, compression=self.compression,
            layout_seed=self.layout_seed)

    def describe(self) -> str:
        grid = (" x ".join(f"{key}[{len(values)}]"
                           for key, values in self.grid.items())
                or "single point")
        return (f"{self.name}: {len(self.benchmarks)} benchmark(s) x "
                f"{grid} x {len(self.schedulers)} scheduler(s) x "
                f"{len(self.seeds)} seed(s) = {self.job_count()} jobs")
