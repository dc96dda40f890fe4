"""ResultSet: the structured container every experiment returns.

A :class:`ResultSet` wraps the flat list of
:class:`~repro.sim.results.SimulationResult` rows an
:class:`~repro.service.service.ExperimentService` run produced, with each row
carrying its experiment coordinates (benchmark, scheduler, seed, and any
grid-point parameters the planner tagged the job with).  It is the one
aggregation path in the reproduction: the Figure 10 drivers call
:meth:`ResultSet.comparison_rows` and every sweep table is
:meth:`ResultSet.grid_rows`, so every caller slices, groups and averages
results the same way.

Typical use::

    results = run_experiment(spec)
    results.filter(scheduler="rescq").mean_cycles()
    results.group_by("benchmark")
    results.aggregate("benchmark", "scheduler")   # -> list of summary dicts
    results.to_csv()                              # -> spreadsheet-ready text
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..sim.results import SimulationResult, aggregate_results
from ..sim.runner import ComparisonRow

__all__ = ["ResultRow", "ResultSet"]


@dataclass(frozen=True)
class ResultRow:
    """One simulation result plus the experiment coordinates that produced it."""

    benchmark: str
    scheduler: str
    seed: int
    #: Grid-point parameter values (empty for plain comparisons).
    params: Dict[str, object] = field(default_factory=dict)
    result: Optional[SimulationResult] = None

    @property
    def total_cycles(self) -> int:
        return self.result.total_cycles if self.result is not None else 0

    @property
    def idle_fraction(self) -> float:
        return self.result.idle_fraction() if self.result is not None else 0.0

    def value(self, key: str):
        """Look up a field or grid parameter by name (for filter/group keys)."""
        if key in ("benchmark", "scheduler", "seed"):
            return getattr(self, key)
        if key == "total_cycles":
            return self.total_cycles
        if key == "idle_fraction":
            return self.idle_fraction
        if key in self.params:
            return self.params[key]
        raise KeyError(
            f"unknown result field {key!r}; row fields are benchmark, "
            f"scheduler, seed, total_cycles, idle_fraction and grid "
            f"parameters {sorted(self.params)}")

    def summary(self) -> Dict[str, object]:
        """Flat JSON/CSV-ready view of the row."""
        row: Dict[str, object] = {
            "benchmark": self.benchmark,
            "scheduler": self.scheduler,
            "seed": self.seed,
        }
        row.update(self.params)
        row["total_cycles"] = self.total_cycles
        row["idle_fraction"] = self.idle_fraction
        return row


class ResultSet:
    """An ordered, filterable collection of :class:`ResultRow` records."""

    def __init__(self, rows: Iterable[ResultRow] = ()) -> None:
        self.rows: List[ResultRow] = list(rows)

    @classmethod
    def from_jobs(cls, jobs, results: Sequence[SimulationResult]
                  ) -> "ResultSet":
        """Fold positionally-aligned ``(jobs, results)`` into a result set.

        ``jobs`` are :class:`~repro.exec.jobs.SimJob` records; each job's
        ``tags`` become the row's grid parameters.
        """
        rows = [ResultRow(benchmark=job.benchmark,
                          scheduler=job.scheduler_name,
                          seed=job.seed,
                          params=dict(job.tags),
                          result=result)
                for job, result in zip(jobs, results)]
        return cls(rows)

    # -- basics ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __add__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.rows + other.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResultSet) and self.rows == other.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self.rows)} rows)"

    @property
    def results(self) -> List[SimulationResult]:
        """The underlying simulation results, in row order."""
        return [row.result for row in self.rows if row.result is not None]

    def benchmarks(self) -> List[str]:
        """Benchmark names in first-appearance order."""
        seen: List[str] = []
        for row in self.rows:
            if row.benchmark not in seen:
                seen.append(row.benchmark)
        return seen

    def parameters(self) -> List[str]:
        """Grid parameter names in first-appearance order."""
        seen: List[str] = []
        for row in self.rows:
            for key in row.params:
                if key not in seen:
                    seen.append(key)
        return seen

    def mean_cycles(self) -> float:
        """Mean total cycles over every row (0.0 when empty)."""
        return (statistics.fmean(row.total_cycles for row in self.rows)
                if self.rows else 0.0)

    # -- relational operations -------------------------------------------------

    def filter(self, predicate: Optional[Callable[[ResultRow], bool]] = None,
               **equals) -> "ResultSet":
        """Rows matching ``predicate`` and/or field equality constraints.

        ``results.filter(scheduler="rescq", distance=7)`` keeps rows whose
        field or grid parameter equals the given value; a callable predicate
        composes with the equality constraints.
        """
        def keep(row: ResultRow) -> bool:
            if predicate is not None and not predicate(row):
                return False
            for key, expected in equals.items():
                try:
                    if row.value(key) != expected:
                        return False
                except KeyError:
                    return False
            return True
        return ResultSet(row for row in self.rows if keep(row))

    def group_by(self, *keys: str) -> Dict[Tuple, "ResultSet"]:
        """Partition rows by a key tuple, preserving first-appearance order."""
        if not keys:
            raise ValueError("group_by needs at least one key")
        groups: Dict[Tuple, ResultSet] = {}
        for row in self.rows:
            group_key = tuple(row.value(key) for key in keys)
            groups.setdefault(group_key, ResultSet()).rows.append(row)
        return groups

    def aggregate(self, *keys: str) -> List[Dict[str, object]]:
        """Mean/min/max cycles and mean idle fraction per group.

        Returns one dict per group (first-appearance order) with the group
        key fields followed by ``mean_cycles``, ``min_cycles``,
        ``max_cycles``, ``idle_fraction`` and ``runs``.
        """
        summaries: List[Dict[str, object]] = []
        for group_key, group in self.group_by(*keys).items():
            stats = aggregate_results(group.results)
            summary: Dict[str, object] = dict(zip(keys, group_key))
            summary["mean_cycles"] = stats["mean"]
            summary["min_cycles"] = stats["min"]
            summary["max_cycles"] = stats["max"]
            summary["idle_fraction"] = (
                statistics.fmean(row.idle_fraction for row in group.rows)
                if group.rows else 0.0)
            summary["runs"] = int(stats["runs"])
            summaries.append(summary)
        return summaries

    # -- canonical views -------------------------------------------------------

    def comparison_rows(self) -> Dict[str, ComparisonRow]:
        """The Figure 10 comparison cells, keyed and sorted by scheduler name.

        Each cell's per-seed results are sorted by seed, so the rows do not
        depend on the executor that produced them, and the row's benchmark
        is the last one seen for that scheduler.
        """
        per_scheduler: Dict[str, List[ResultRow]] = {}
        benchmarks: Dict[str, str] = {}
        for row in self.rows:
            per_scheduler.setdefault(row.scheduler, []).append(row)
            benchmarks[row.scheduler] = row.benchmark
        cells: Dict[str, ComparisonRow] = {}
        for name in sorted(per_scheduler):
            ordered = sorted(per_scheduler[name], key=lambda row: row.seed)
            results = [row.result for row in ordered if row.result is not None]
            stats = aggregate_results(results)
            idle = (statistics.fmean(row.idle_fraction for row in ordered)
                    if ordered else 0.0)
            cells[name] = ComparisonRow(
                benchmark=benchmarks[name],
                scheduler=name,
                mean_cycles=stats["mean"],
                min_cycles=stats["min"],
                max_cycles=stats["max"],
                mean_idle_fraction=idle,
                runs=int(stats["runs"]),
                results=results,
            )
        return cells

    def grid_rows(self, parameters: Optional[Sequence[str]] = None
                  ) -> List[Dict[str, object]]:
        """Aggregated table rows over an arbitrary parameter grid.

        One dict per (benchmark, grid point, scheduler), points in
        first-appearance order and schedulers sorted by name within each:
        the table of Figures 11-14, ``rescq sweep`` and ``rescq exp``.
        ``mean_cycles`` is rounded to 2 decimals and ``idle_fraction`` to 4,
        so compare unrounded means through :meth:`comparison_rows` or
        :meth:`aggregate`.
        """
        parameters = list(parameters if parameters is not None
                          else self.parameters())
        table: List[Dict[str, object]] = []
        for key, point in self.group_by("benchmark", *parameters).items():
            benchmark, values = key[0], key[1:]
            for name, cell in point.comparison_rows().items():
                row: Dict[str, object] = {"benchmark": benchmark,
                                          "scheduler": name}
                row.update(zip(parameters, values))
                row["mean_cycles"] = round(cell.mean_cycles, 2)
                row["min_cycles"] = cell.min_cycles
                row["max_cycles"] = cell.max_cycles
                row["idle_fraction"] = round(cell.mean_idle_fraction, 4)
                table.append(row)
        return table

    def profile_rows(self) -> List[Dict[str, object]]:
        """Aggregated kernel-profile counters per (benchmark, scheduler).

        Wall-time counters (``wall_*_s``) and per-phase cycle/event counters
        are summed over seeds; rows appear in first-appearance order.  Rows
        whose results carry no profile (the run's config did not set
        ``profile_enabled``, or the result came from a cache hit) are
        skipped.  Every ``wall_<phase>_s`` counter other than the inclusive
        ``wall_total_s`` also gets a ``share_<phase>`` column — the phase's
        fraction of total wall time — so a perf regression's culprit is
        readable straight off the table.
        """
        table: List[Dict[str, object]] = []
        for (benchmark, scheduler), group in self.group_by(
                "benchmark", "scheduler").items():
            totals: Dict[str, float] = {}
            profiled_runs = 0
            for row in group.rows:
                if row.result is None or not row.result.profile:
                    continue
                profiled_runs += 1
                for key, value in row.result.profile.items():
                    totals[key] = totals.get(key, 0.0) + value
            if not profiled_runs:
                continue
            summary: Dict[str, object] = {"benchmark": benchmark,
                                          "scheduler": scheduler,
                                          "runs": profiled_runs}
            total_wall = totals.get("wall_total_s", 0.0)
            for key in sorted(totals):
                value = totals[key]
                summary[key] = round(value, 6) if key.startswith("wall_") else value
                if (total_wall > 0.0 and key.startswith("wall_")
                        and key.endswith("_s") and key != "wall_total_s"):
                    phase = key[len("wall_"):-len("_s")]
                    summary[f"share_{phase}"] = round(value / total_wall, 4)
            table.append(summary)
        # Same column set and order everywhere (policies emit different
        # counters; a table renderer keyed on the first row must see them all).
        counter_keys = sorted({key for row in table for key in row
                               if key not in ("benchmark", "scheduler", "runs")})
        return [{"benchmark": row["benchmark"], "scheduler": row["scheduler"],
                 "runs": row["runs"],
                 **{key: row.get(key, 0.0) for key in counter_keys}}
                for row in table]

    # -- export ----------------------------------------------------------------

    def summary_rows(self) -> List[Dict[str, object]]:
        """One flat dict per row (seed-level, unaggregated)."""
        return [row.summary() for row in self.rows]

    def to_json(self, indent: Optional[int] = 2,
                include_traces: bool = False) -> str:
        """Serialise the set as canonical JSON (seed-level rows).

        Canonical means sorted keys, shortest-round-trip float repr and
        NaN/Infinity rejection, so two runs that measured the same points
        always export byte-identical documents — the property the service
        e2e test and cross-host cache keys rely on.  With
        ``include_traces=True`` every row also embeds the full per-gate
        trace dump of :func:`repro.analysis.export.result_to_dict`.
        """
        from ..canonical import canonical_dumps
        rows = self.summary_rows()
        if include_traces:
            from ..analysis.export import result_to_dict
            for row, record in zip(rows, self.rows):
                if record.result is not None:
                    row["result"] = result_to_dict(record.result)
        return canonical_dumps(rows, indent=indent)

    def to_csv(self) -> str:
        """Serialise the set as CSV (seed-level rows, union of columns)."""
        from ..analysis.export import rows_to_csv
        return rows_to_csv(self.summary_rows())
