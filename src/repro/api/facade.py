"""run_experiment and friends: the one door every experiment goes through.

``spec -> jobs -> engine -> ResultSet`` is the whole pipeline; the CLI
subcommands, the benchmark harnesses and user scripts differ only in how they
build the spec and the engine.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..exec.cache import DirectoryCache, open_cache_backend
from ..exec.engine import ExecutionEngine
from ..exec.executors import ParallelExecutor, SerialExecutor
from .resultset import ResultSet
from .spec import ExperimentSpec

__all__ = ["run_experiment", "build_engine", "render_experiment"]


def build_engine(jobs: int = 1,
                 cache: Optional[Union[str, DirectoryCache]] = None,
                 ) -> ExecutionEngine:
    """Build an execution engine from the common (jobs, cache) knobs.

    ``jobs > 1`` fans simulation jobs out over that many worker processes
    (``0`` means one per CPU); ``cache`` memoises finished jobs in a
    directory of result files (``PATH``, ``dir:PATH`` or a
    :class:`~repro.exec.cache.DirectoryCache`).  This is the builder behind
    the CLI's ``--jobs``/``--cache`` flags and the benchmark harnesses'
    ``RESCQ_JOBS``/``RESCQ_CACHE`` variables.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
    if jobs == 1:
        executor = SerialExecutor()
    else:
        executor = ParallelExecutor(max_workers=jobs if jobs > 0 else None)
    return ExecutionEngine(executor=executor,
                           cache=open_cache_backend(cache) if cache else None)


def run_experiment(spec: ExperimentSpec,
                   engine: Optional[ExecutionEngine] = None) -> ResultSet:
    """Validate, expand and execute ``spec``; return its :class:`ResultSet`.

    The job plan runs through a single
    :meth:`~repro.exec.engine.ExecutionEngine.run` call, so a parallel or
    cached engine accelerates the whole grid at once.  Output is identical
    for every engine (executors preserve job order; every job is
    independently seeded).
    """
    engine = engine if engine is not None else ExecutionEngine()
    jobs = spec.expand()
    results = engine.run(jobs)
    return ResultSet.from_jobs(jobs, results)


def render_experiment(spec: ExperimentSpec, results: ResultSet) -> str:
    """Render a result set the way the ``rescq`` CLI prints it.

    Grid-less specs print one comparison table per benchmark — byte-identical
    to the legacy ``rescq run`` table for the same point.  Specs with one
    grid axis print the matching sweep table; wider grids print the generic
    grid table.
    """
    from ..analysis.report import format_comparison, format_table
    blocks: List[str] = []
    parameters = [key for key in spec.grid]
    for benchmark in spec.benchmarks:
        subset = results.filter(benchmark=benchmark)
        if not parameters:
            config = spec.base_config()
            blocks.append(format_comparison(
                subset.comparison_rows(),
                title=f"{benchmark} ({config.describe()})"))
        elif len(parameters) == 1:
            from .axes import AXIS_REGISTRY
            # Title by axis name ("error-rate"), not config field
            # ("physical_error_rate"), matching the sweep subcommand.
            kind = next((axis.name for _name, axis in AXIS_REGISTRY.items()
                         if axis.parameter == parameters[0]), parameters[0])
            axis_rows = subset.sweep_rows(parameters[0])
            blocks.append(format_table(
                [row.as_dict() for row in axis_rows],
                title=f"{kind} sweep for {benchmark}"))
        else:
            blocks.append(format_table(
                subset.grid_rows(parameters),
                title=f"{spec.name}: {benchmark} grid"))
    return "\n".join(blocks)
