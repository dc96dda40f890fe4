"""Sweep axes: the declarative form of the Section 5.2/5.3 sensitivity knobs.

A :class:`SweepAxis` captures everything one sensitivity sweep varies — which
:class:`~repro.sim.config.SimulationConfig` field (or layout property) it
drives, the values the paper evaluates, which schedulers the figure compares,
and the layout seed grid compression uses.  The four paper axes (Figures 11-14)
are registered in :data:`AXIS_REGISTRY`; the CLI's ``sweep`` subcommand, the
legacy ``sweep_*`` shims and grid keys in :class:`~repro.api.spec.ExperimentSpec`
all resolve through it, so adding a new axis is one registration instead of a
new function plus CLI dispatch arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..scheduling import DEFAULT_SCHEDULER_NAMES
from ..sim.config import SimulationConfig
from .registry import Registry

__all__ = ["SweepAxis", "AXIS_REGISTRY", "get_axis"]


@dataclass(frozen=True)
class SweepAxis:
    """One sensitivity-sweep parameter.

    Attributes
    ----------
    name:
        CLI-facing axis name, e.g. ``"error-rate"``.
    parameter:
        The :class:`SimulationConfig` field the axis varies, or
        ``"compression"`` for the layout co-design axis.
    default_values:
        The values the corresponding paper figure sweeps.
    value_type:
        Values are cast through this before entering the config, so JSON
        numbers round-trip to the exact legacy behaviour (``int(d)`` etc.).
    default_schedulers:
        The schedulers the paper's figure compares on this axis.
    layout_seed:
        Seed for stochastic layout construction (grid compression); the
        compression sweep historically uses seed 13.
    figure:
        Paper figure the axis reproduces (documentation only).
    """

    name: str
    parameter: str
    default_values: Tuple[float, ...]
    value_type: Callable = float
    default_schedulers: Tuple[str, ...] = DEFAULT_SCHEDULER_NAMES
    layout_seed: int = 0
    figure: str = ""

    def config_for(self, base: SimulationConfig, value) -> SimulationConfig:
        """The simulation config at one swept point."""
        if self.parameter == "compression":
            return base
        return base.with_updates(**{self.parameter: self.value_type(value)})

    def describe(self) -> str:
        values = ", ".join(str(v) for v in self.default_values)
        return f"{self.name} ({self.parameter}): [{values}]"


#: Name -> :class:`SweepAxis` for every registered sensitivity knob.
AXIS_REGISTRY: Registry = Registry("sweep axis")

AXIS_REGISTRY.register("distance", SweepAxis(
    name="distance", parameter="distance",
    default_values=(5, 7, 9, 11, 13), value_type=int,
    figure="Figure 11"))
AXIS_REGISTRY.register("error-rate", SweepAxis(
    name="error-rate", parameter="physical_error_rate",
    default_values=(1e-3, 3e-4, 1e-4, 3e-5, 1e-5), value_type=float,
    figure="Figure 12"))
AXIS_REGISTRY.register("mst-period", SweepAxis(
    name="mst-period", parameter="mst_period",
    default_values=(25, 50, 100, 200), value_type=int,
    default_schedulers=("rescq",),
    figure="Figure 13"))
AXIS_REGISTRY.register("compression", SweepAxis(
    name="compression", parameter="compression",
    default_values=(0.0, 0.25, 0.5, 0.75, 1.0), value_type=float,
    layout_seed=13,
    figure="Figure 14"))


def get_axis(name: str) -> SweepAxis:
    """Resolve an axis by CLI name *or* by config parameter name."""
    if name in AXIS_REGISTRY:
        return AXIS_REGISTRY.get(name)
    for _name, axis in AXIS_REGISTRY.items():
        if axis.parameter == name:
            return axis
    return AXIS_REGISTRY.get(name)  # raises with the known axis names
