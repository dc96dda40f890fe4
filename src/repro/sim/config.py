"""Simulation configuration (the knobs of Section 5.1)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..lattice import DEFAULT_COSTS, LatticeSurgeryCosts
from ..rus import PreparationModel

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters a scheduler run depends on.

    Parameters
    ----------
    distance:
        Surface-code distance ``d`` (the paper's headline results use 7).
    physical_error_rate:
        Physical qubit error rate ``p`` (headline: 1e-4).
    activity_window:
        ``c``, the number of past cycles over which ancilla activity is
        averaged (fixed to 100 in the paper).
    mst_period:
        ``k``, cycles between the starts of successive MST computations
        (swept over {25, 50, 100, 200}).
    mst_latency:
        ``tau_mst``, cycles one MST computation takes before it becomes
        available (~100 lattice-surgery cycles on the paper's hardware
        estimate).
    costs:
        Lattice-surgery cycle costs.
    max_cycles:
        Safety bound (``>= 1``); the simulator raises if a run exceeds it
        (deadlock guard).
    max_parallel_preparations:
        Cap on how many ancillas RESCQ fans a single Rz preparation out to.
    eager_correction_prep / parallel_preparation:
        RESCQ design-choice toggles, used by the ablation benchmarks.
    profile_enabled:
        Collect per-phase cycle and wall-time counters
        (:class:`~repro.kernel.profiler.KernelProfile`) into
        :attr:`~repro.sim.results.SimulationResult.profile`.  Pure
        observability: simulated results are identical either way.
    """

    distance: int = 7
    physical_error_rate: float = 1e-4
    activity_window: int = 100
    mst_period: int = 25
    mst_latency: int = 100
    costs: LatticeSurgeryCosts = field(default_factory=lambda: DEFAULT_COSTS)
    max_cycles: int = 2_000_000
    max_parallel_preparations: int = 4
    eager_correction_prep: bool = True
    parallel_preparation: bool = True
    use_mst_routing: bool = True
    profile_enabled: bool = False

    def __post_init__(self) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError("distance must be an odd integer >= 3")
        if not 0.0 < self.physical_error_rate < 0.5:
            raise ValueError("physical_error_rate must be in (0, 0.5)")
        if self.activity_window <= 0 or self.mst_period <= 0:
            raise ValueError("activity_window and mst_period must be positive")
        if self.mst_latency < 0:
            raise ValueError("mst_latency must be non-negative")
        if self.max_parallel_preparations < 1:
            raise ValueError("max_parallel_preparations must be >= 1")
        if self.max_cycles < 1:
            raise ValueError(
                f"max_cycles must be >= 1, got {self.max_cycles}")

    def preparation_model(self) -> PreparationModel:
        """The |m_theta> preparation statistics implied by (d, p)."""
        return PreparationModel(self.distance, self.physical_error_rate)

    def with_updates(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        return (f"d={self.distance} p={self.physical_error_rate:g} "
                f"k={self.mst_period} c={self.activity_window} "
                f"tau_mst={self.mst_latency}")
