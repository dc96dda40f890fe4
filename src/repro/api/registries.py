"""The concrete registries behind the declarative experiment API.

One place that names every pluggable family:

* :data:`SCHEDULERS` — scheduler factories (defined next to the scheduler
  classes in :mod:`repro.scheduling`);
* :data:`BENCHMARKS` — Table 3 workloads plus user registrations (defined in
  :mod:`repro.workloads.registry`);
* :data:`LAYOUTS` — named layout builders ``(circuit, compression, seed) ->
  GridLayout``;
* :data:`SWEEP_AXES` — the sensitivity axes of Figures 11-14 (defined in
  :mod:`repro.api.axes`).

Everything here resolves *names* (strings that appear in spec files and on
the CLI) to *objects*; an :class:`~repro.api.spec.ExperimentSpec` is valid
exactly when all of its names resolve.
"""

from __future__ import annotations

from ..circuits import Circuit
from ..fabric import GridLayout, StarVariant
from ..scheduling import DEFAULT_SCHEDULER_NAMES, SCHEDULER_REGISTRY
from ..sim.runner import default_layout
from ..workloads.registry import BENCHMARK_REGISTRY, resolve_benchmark
from .axes import AXIS_REGISTRY
from .registry import Registry

__all__ = ["SCHEDULERS", "BENCHMARKS", "LAYOUTS", "SWEEP_AXES",
           "DEFAULT_SCHEDULER_NAMES", "resolve_benchmark"]

SCHEDULERS: Registry = SCHEDULER_REGISTRY
BENCHMARKS: Registry = BENCHMARK_REGISTRY
SWEEP_AXES: Registry = AXIS_REGISTRY

#: Name -> layout builder ``(circuit, compression, seed) -> GridLayout``.
LAYOUTS: Registry = Registry("layout")


def _star_variant_builder(variant: StarVariant):
    def build(circuit: Circuit, compression: float = 0.0,
              seed: int = 0) -> GridLayout:
        return default_layout(circuit, compression, seed, variant=variant)
    build.__name__ = f"{variant.value}_layout"
    build.__doc__ = (f"STAR {variant.value!r} grid for the circuit, "
                     f"optionally compressed (Section 5.3).")
    return build


for _variant in StarVariant:
    LAYOUTS.register(_variant.value, _star_variant_builder(_variant))
