"""Analytic comparisons between the continuous-angle and Clifford+T pipelines.

This module reproduces the arithmetic of Appendix A.2 (cost of one Rz(theta)
via |m_theta> injection vs via a T-state factory) and provides the per-gate
logical error model behind Figure 3 (maximum number of rotation gates that fit
a target program fidelity under each compilation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .injection import InjectionModel, InjectionStrategy
from .preparation import PreparationModel

__all__ = [
    "RzCostModel",
    "TFactoryModel",
    "compare_rz_vs_t",
    "ComparisonResult",
]


@dataclass(frozen=True)
class RzCostModel:
    """Cycle cost of one continuous-angle Rz(theta) (baseline scheduling policy)."""

    preparation: PreparationModel
    injection: InjectionModel = InjectionModel(InjectionStrategy.CNOT)

    def expected_cycles(self, parallel_patches: int = 1) -> float:
        """Expected cycles for one Rz: E[steps] * (prep + injection) cycles.

        With the baseline policy each RUS "step" is one preparation followed
        by one injection, and Equation 1 gives E[steps] = 2.  Appendix A.2
        evaluates this at the worst-case preparation latency (~2.2 cycles)
        and CNOT-style injection (2 cycles), i.e. 2 * (2.2 + 2) = 8.4 cycles.
        """
        prep_cycles = (self.preparation.expected_cycles()
                       if parallel_patches <= 1
                       else self.preparation.expected_cycles_parallel(parallel_patches))
        steps = self.injection.expected_injection_count()
        return steps * (prep_cycles + self.injection.cycles_per_injection)


@dataclass(frozen=True)
class TFactoryModel:
    """Cost model of executing Rz(theta) in the Clifford+T compilation.

    Parameters
    ----------
    t_preparation_cycles:
        Cycles for one T-state distillation round (the paper quotes 11 cycles
        at 99.9% error-detection success, from [Litinski 2019]).
    t_injection_cycles:
        Cycles to consume a T state (a lattice-surgery CNOT, 2 cycles).
    t_count_per_rz:
        T gates needed to synthesise one Rz(theta) to target precision
        (Ross-Selinger synthesis; the paper uses "more than 100x").
    """

    t_preparation_cycles: float = 11.0
    t_injection_cycles: float = 2.0
    t_count_per_rz: int = 100

    def rz_cycles_range(self) -> Tuple[float, float]:
        """Best/worst-case cycles for one synthesised Rz(theta) (Appendix A.2).

        Best case: every T state is ready when needed, so each T gate costs
        only the injection (2 cycles).  Worst case: the factory starts
        preparing only when the T gate is requested, so each costs
        preparation + injection (13 cycles).
        """
        best = self.t_count_per_rz * self.t_injection_cycles
        worst = self.t_count_per_rz * (self.t_preparation_cycles
                                       + self.t_injection_cycles)
        return best, worst


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of :func:`compare_rz_vs_t` (the Appendix A.2 numbers)."""

    continuous_angle_cycles: float
    clifford_t_cycles_best: float
    clifford_t_cycles_worst: float

    @property
    def overhead_best(self) -> float:
        """Clifford+T overhead factor in the T-friendliest case (~20x in the paper)."""
        return self.clifford_t_cycles_best / self.continuous_angle_cycles

    @property
    def overhead_worst(self) -> float:
        """Clifford+T overhead factor in the worst case (~150x in the paper)."""
        return self.clifford_t_cycles_worst / self.continuous_angle_cycles


def compare_rz_vs_t(preparation: Optional[PreparationModel] = None,
                    t_factory: Optional[TFactoryModel] = None,
                    injection: Optional[InjectionModel] = None) -> ComparisonResult:
    """Reproduce the Appendix A.2 comparison of |m_theta> vs T injection.

    Defaults follow the paper: worst-case preparation corner (d=3 behaviour is
    approximated by the smallest supported distance at p=1e-3), CNOT-style
    injection, a single dedicated T factory at 11-cycle distillation latency
    and >100 T gates per synthesised rotation.
    """
    if preparation is None:
        preparation = PreparationModel(distance=5, physical_error_rate=1e-3)
    if injection is None:
        injection = InjectionModel(InjectionStrategy.CNOT)
    if t_factory is None:
        t_factory = TFactoryModel()

    rz_model = RzCostModel(preparation, injection)
    continuous = rz_model.expected_cycles()
    best, worst = t_factory.rz_cycles_range()
    return ComparisonResult(continuous, best, worst)
