"""Cycle-level symbolic execution: configuration, results, and runners."""

from .config import SimulationConfig
from .results import GateTrace, SimulationResult, aggregate_results, geometric_mean
from .runner import ComparisonRow, default_layout

__all__ = [
    "SimulationConfig",
    "GateTrace",
    "SimulationResult",
    "aggregate_results",
    "geometric_mean",
    "ComparisonRow",
    "default_layout",
]
