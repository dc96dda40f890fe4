"""Serialisation of simulation results (the artifact's "log files").

The original artifact writes per-run log files that its post-processing
scripts turn into plots.  This module provides the equivalent: JSON and CSV
export of :class:`~repro.sim.results.SimulationResult` objects so downstream
tooling (pandas, plotting notebooks) can consume reproduction runs directly.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Mapping, Optional, Sequence

from ..sim.results import GateTrace, SimulationResult

__all__ = ["result_to_dict", "result_from_dict", "rows_to_csv"]


def rows_to_csv(rows: Sequence[Mapping[str, object]],
                columns: Optional[Sequence[str]] = None) -> str:
    """Serialise dict rows as CSV.

    Columns default to the union of keys over all rows in first-appearance
    order, so heterogenous rows (e.g. different grid axes) merge into one
    table with blanks for missing cells.  This is the writer behind
    :meth:`repro.api.resultset.ResultSet.to_csv`.
    """
    if columns is None:
        seen: List[str] = []
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        columns = seen
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow([row.get(column, "") for column in columns])
    return buffer.getvalue()


def result_to_dict(result: SimulationResult,
                   include_profile: bool = False) -> Dict[str, object]:
    """Convert a result into plain JSON-serialisable data.

    The per-run profile (wall-time and phase counters) is observability, not
    simulation output: it is excluded unless ``include_profile`` is set, so
    serialised results stay byte-stable across machines and cache hits.
    """
    payload: Dict[str, object] = {
        "benchmark": result.benchmark,
        "scheduler": result.scheduler,
        "seed": result.seed,
        "total_cycles": result.total_cycles,
        "num_qubits": result.num_qubits,
        "config_summary": result.config_summary,
        "metadata": dict(result.metadata),
        "data_busy_cycles": {str(k): v for k, v in result.data_busy_cycles.items()},
    }
    if include_profile and result.profile:
        payload["profile"] = dict(result.profile)
    payload["traces"] = [{
            "gate_index": trace.gate_index,
            "kind": trace.kind,
            "qubits": list(trace.qubits),
            "scheduled_cycle": trace.scheduled_cycle,
            "start_cycle": trace.start_cycle,
            "end_cycle": trace.end_cycle,
            "injections": trace.injections,
            "preparation_attempts": trace.preparation_attempts,
            "edge_rotations": trace.edge_rotations,
        } for trace in result.traces]
    return payload


def result_from_dict(payload: Dict[str, object]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    traces = [GateTrace(
        gate_index=item["gate_index"],
        kind=item["kind"],
        qubits=tuple(item["qubits"]),
        scheduled_cycle=item["scheduled_cycle"],
        start_cycle=item["start_cycle"],
        end_cycle=item["end_cycle"],
        injections=item.get("injections", 0),
        preparation_attempts=item.get("preparation_attempts", 0),
        edge_rotations=item.get("edge_rotations", 0),
    ) for item in payload.get("traces", [])]
    return SimulationResult(
        benchmark=payload["benchmark"],
        scheduler=payload["scheduler"],
        seed=payload["seed"],
        total_cycles=payload["total_cycles"],
        num_qubits=payload["num_qubits"],
        traces=traces,
        data_busy_cycles={int(k): v for k, v in
                          payload.get("data_busy_cycles", {}).items()},
        config_summary=payload.get("config_summary", ""),
        metadata=dict(payload.get("metadata", {})),
        profile=dict(payload.get("profile", {})),
    )
