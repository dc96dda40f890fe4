"""Experiment drivers, sweeps, and result formatting."""

from .experiments import (
    ExecutionSummary,
    latency_histograms,
    run_execution_comparison,
)
from .export import (
    result_from_dict,
    result_to_dict,
    rows_to_csv,
)
from .fidelity import LogicalErrorModel, figure3_series, max_rotations
from .report import (
    format_circuit_stats,
    format_comparison,
    format_histogram,
    format_normalised_summary,
    format_table,
)
from .sweep import run_axis_sweep

__all__ = [
    "ExecutionSummary",
    "run_execution_comparison",
    "latency_histograms",
    "LogicalErrorModel",
    "result_to_dict",
    "result_from_dict",
    "rows_to_csv",
    "figure3_series",
    "max_rotations",
    "format_table",
    "format_circuit_stats",
    "format_comparison",
    "format_histogram",
    "format_normalised_summary",
    "run_axis_sweep",
]
