"""run_experiment and friends: running and printing a spec.

``spec -> jobs -> engine -> ResultSet`` is the whole pipeline.  The jobs
come from :func:`~repro.api.spec.plan_experiment`, which the figure drivers
in :mod:`repro.analysis` also call on their own circuits; the CLI
subcommands, the benchmark harnesses and user scripts differ only in how
they build the spec (or circuits) and the engine.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..exec.cache import DirectoryCache, open_cache_backend
from ..service.executor import ServiceExecutor
from ..service.service import ExperimentService
from .resultset import ResultSet
from .spec import ExperimentSpec

__all__ = ["run_experiment", "build_engine", "render_experiment"]


def build_engine(jobs: int = 1,
                 cache: Optional[Union[str, DirectoryCache]] = None,
                 ) -> ExperimentService:
    """Build the job runner from the common (jobs, cache) knobs.

    ``jobs == 1`` runs every job inline; ``jobs > 1`` fans them out over
    that many spawned worker processes (``0`` means one per CPU), which a
    script must start under an ``if __name__ == "__main__":`` guard and
    should shut down (``with engine:``).  ``cache`` memoises finished jobs
    in a directory of result files (``PATH``, ``dir:PATH`` or a
    :class:`~repro.exec.cache.DirectoryCache`).  This is the builder behind
    the CLI's ``--jobs``/``--cache`` flags and the benchmark harnesses'
    ``RESCQ_JOBS``/``RESCQ_CACHE`` variables.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
    executor = None if jobs == 1 else ServiceExecutor(max_workers=jobs or None)
    return ExperimentService(executor=executor,
                             cache=open_cache_backend(cache) if cache else None)


def run_experiment(spec: ExperimentSpec,
                   engine: Optional[ExperimentService] = None) -> ResultSet:
    """Validate, expand and execute ``spec``; return its :class:`ResultSet`.

    The job plan runs through a single
    :meth:`~repro.service.service.ExperimentService.run` call, so a pooled
    or cached engine accelerates the whole grid at once.  Output is
    identical for every engine (results come back in plan order; every job
    is independently seeded).
    """
    engine = engine if engine is not None else ExperimentService()
    jobs = spec.expand()
    return ResultSet.from_jobs(jobs, engine.run(jobs))


def render_experiment(spec: ExperimentSpec, results: ResultSet) -> str:
    """Render a result set the way the ``rescq`` CLI prints it.

    Grid-less specs print one comparison table per benchmark (the ``rescq
    run`` table).  Specs with a grid print :meth:`ResultSet.grid_rows`,
    titled ``"<axis> sweep for <benchmark>"`` for one axis (the ``rescq
    sweep`` table) and ``"<name>: <benchmark> grid"`` for more.
    """
    from ..analysis.report import format_comparison, format_table
    blocks: List[str] = []
    parameters = list(spec.grid)
    for benchmark in spec.benchmarks:
        subset = results.filter(benchmark=benchmark)
        if not parameters:
            config = spec.base_config()
            blocks.append(format_comparison(
                subset.comparison_rows(),
                title=f"{benchmark} ({config.describe()})"))
            continue
        if len(parameters) == 1:
            from .axes import AXIS_REGISTRY
            # Title by axis name ("error-rate"), not config field
            # ("physical_error_rate").
            kind = next((axis.name for _name, axis in AXIS_REGISTRY.items()
                         if axis.parameter == parameters[0]), parameters[0])
            title = f"{kind} sweep for {benchmark}"
        else:
            title = f"{spec.name}: {benchmark} grid"
        blocks.append(format_table(subset.grid_rows(parameters), title=title))
    return "\n".join(blocks)
