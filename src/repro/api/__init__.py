"""repro.api — the declarative experiment layer.

This package turns "run an experiment" from a bespoke function call into a
serializable artifact plus a handful of pluggable registries:

* :mod:`repro.api.registry` — the generic named-registry utility
  (:class:`Registry`, ``@register`` decorators, duplicate-name errors);
* :mod:`repro.api.registries` — the concrete registries: schedulers,
  benchmarks, layouts, and sweep axes;
* :mod:`repro.api.axes` — :class:`SweepAxis`, the declarative description of
  one sensitivity-sweep parameter (Figures 11-14);
* :mod:`repro.api.spec` — :class:`ExperimentSpec`, a frozen declarative
  description of benchmarks x schedulers x a config grid x seeds x layout,
  with JSON round-trip and expansion to :class:`~repro.exec.SimJob` plans;
* :mod:`repro.api.resultset` — :class:`ResultSet`, the structured container
  every experiment returns (``filter`` / ``group_by`` / ``aggregate`` /
  ``to_csv`` / ``to_json``);
* :mod:`repro.api.facade` — :func:`run_experiment` and the engine builder
  shared by the CLI and the benchmark harnesses;
* :mod:`repro.api.envelope` — the ``rescq serve`` wire format:
  :class:`SubmissionEnvelope` (a spec plus delivery options),
  :class:`JobStatus` and :class:`SubmissionReport`.

Quickstart::

    from repro.api import ExperimentSpec, run_experiment

    spec = ExperimentSpec(benchmarks=("qft_n18",),
                          schedulers=("autobraid", "rescq"),
                          seeds=3)
    results = run_experiment(spec)
    for row in results.aggregate("scheduler"):
        print(row)

    spec.to_json()                       # -> shareable JSON artifact
    ExperimentSpec.from_json(spec.to_json()) == spec   # True

Attribute access is lazy (PEP 562) so that low-level packages can import
:mod:`repro.api.registry` while they are still initialising without dragging
the whole experiment layer (and hence an import cycle) in behind it.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "Registry": "registry",
    "RegistryError": "registry",
    "DuplicateEntryError": "registry",
    "UnknownEntryError": "registry",
    "SCHEDULERS": "registries",
    "BENCHMARKS": "registries",
    "LAYOUTS": "registries",
    "SWEEP_AXES": "registries",
    "SweepAxis": "axes",
    "ExperimentSpec": "spec",
    "SpecValidationError": "spec",
    "ResultRow": "resultset",
    "ResultSet": "resultset",
    "run_experiment": "facade",
    "build_engine": "facade",
    "render_experiment": "facade",
    "EnvelopeError": "envelope",
    "JobStatus": "envelope",
    "SubmissionEnvelope": "envelope",
    "SubmissionReport": "envelope",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static importers only
    from .axes import SweepAxis
    from .envelope import (EnvelopeError, JobStatus, SubmissionEnvelope,
                           SubmissionReport)
    from .facade import build_engine, render_experiment, run_experiment
    from .registries import BENCHMARKS, LAYOUTS, SCHEDULERS, SWEEP_AXES
    from .registry import (DuplicateEntryError, Registry, RegistryError,
                           UnknownEntryError)
    from .resultset import ResultRow, ResultSet
    from .spec import ExperimentSpec, SpecValidationError


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
