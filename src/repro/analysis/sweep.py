"""Parameter sweeps behind the sensitivity figures (Section 5.2, 5.3).

A sweep runs a set of schedulers on a set of circuits while varying one
registered :class:`~repro.api.axes.SweepAxis` (code distance, physical error
rate, MST period, or grid compression).  It is planned by
:func:`~repro.api.spec.plan_experiment` as one flat job list — every
(circuit, value, scheduler, seed) point — and executed in a single
:meth:`~repro.service.service.ExperimentService.run` call, so a pooled
engine fans the *entire* grid out at once.  The returned
:class:`~repro.api.resultset.ResultSet` prints as the series of Figures
11-14 through :meth:`~repro.api.resultset.ResultSet.grid_rows`.  For
registered benchmarks the same sweep is an
:class:`~repro.api.spec.ExperimentSpec` grid with that axis's values and
``layout_seed``, and plans the same jobs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api.axes import get_axis
from ..api.resultset import ResultSet
from ..api.spec import plan_experiment
from ..circuits import Circuit
from ..service.service import ExperimentService
from ..sim import SimulationConfig

__all__ = ["run_axis_sweep"]


def run_axis_sweep(axis, schedulers, circuits: Sequence[Circuit],
                   values: Optional[Sequence[float]] = None,
                   base: Optional[SimulationConfig] = None,
                   seeds: int = 3,
                   engine: Optional[ExperimentService] = None
                   ) -> ResultSet:
    """Sweep one :class:`~repro.api.axes.SweepAxis` over ``circuits``.

    ``axis`` is a :class:`SweepAxis` or its name; it names the config field
    (or ``compression``) each value drives and the layout seed.  ``values``
    defaults to the axis's paper values and ``base`` to the headline
    configuration; ``schedulers`` are scheduler instances or registered
    names.  Rows are tagged with the axis parameter, so
    ``results.grid_rows([axis.parameter])`` is the figure's table.
    """
    if isinstance(axis, str):
        axis = get_axis(axis)
    jobs = plan_experiment(
        circuits, schedulers, base or SimulationConfig(),
        grid={axis.parameter: tuple(values if values is not None
                                    else axis.default_values)},
        seeds=seeds, layout_seed=axis.layout_seed)
    engine = engine if engine is not None else ExperimentService()
    return ResultSet.from_jobs(jobs, engine.run(jobs))
