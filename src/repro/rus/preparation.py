"""Stochastic model of |m_theta> state preparation (Section 2.2, Appendix A).

The STAR architecture prepares |m_theta> = Rz(theta)|+> inside an ancilla
patch with a repeat-until-success protocol:

1. many [[4,1,1,2]] error-detection subsystem codes embedded in the patch
   (``(d^2-1)/2`` of them) attempt the preparation in parallel; the first
   error-detection round post-selects on "no error detected";
2. one successful subsystem is expanded to the full distance-``d`` patch and a
   second error-detection round post-selects again.

Both rounds together form one *attempt*.  The paper abstracts the physical
details into an attempt-success probability and an attempt duration that are
functions of the code distance ``d`` and the physical error rate ``p``
(Figure 16); RESCQ and the baselines consume only that abstraction, which is
exactly what :class:`PreparationModel` provides.

Calibration targets (shape of Figure 16):

* expected preparation **cycles** fall as ``d`` grows (a lattice-surgery cycle
  is ``d`` measurement rounds, so a fixed-length attempt spans fewer cycles)
  and fall as ``p`` shrinks;
* expected **attempts** rise slowly with ``d`` (the second post-selection
  round checks O(d^2) syndrome bits) and rise with ``p``;
* the worst corner of the sweep stays near ~2.2 cycles per successful
  preparation, the number used in the paper's Appendix A.2 arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PreparationModel"]


@dataclass(frozen=True)
class PreparationModel:
    """Analytic + sampling model of non-deterministic |m_theta> preparation.

    Parameters
    ----------
    distance:
        Surface-code distance ``d`` of the ancilla patch.
    physical_error_rate:
        Physical qubit error rate ``p``.
    subsystem_physical_ops:
        Number of error locations in a single [[4,1,1,2]] preparation attempt
        (first post-selection round).
    expansion_checks_per_d2:
        Syndrome bits checked in the second (post-expansion) round, expressed
        as a multiple of ``d^2``.
    rounds_per_attempt:
        Duration of one attempt in physical measurement rounds.  One
        lattice-surgery cycle is ``d`` measurement rounds, so an attempt costs
        ``rounds_per_attempt / d`` cycles.
    """

    distance: int
    physical_error_rate: float
    subsystem_physical_ops: int = 20
    expansion_checks_per_d2: float = 1.0
    rounds_per_attempt: float = 11.0

    def __post_init__(self) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError("distance must be an odd integer >= 3")
        if not 0.0 < self.physical_error_rate < 0.5:
            raise ValueError("physical_error_rate must be in (0, 0.5)")

    # -- building blocks -----------------------------------------------------------

    @property
    def num_subsystem_codes(self) -> int:
        """Number of [[4,1,1,2]] codes embedded in one ancilla patch: (d^2-1)/2."""
        return (self.distance ** 2 - 1) // 2

    @property
    def subsystem_success_probability(self) -> float:
        """Probability that a single [[4,1,1,2]] preparation passes round one."""
        return (1.0 - self.physical_error_rate) ** self.subsystem_physical_ops

    @property
    def first_round_success_probability(self) -> float:
        """Probability at least one of the parallel subsystem preparations succeeds."""
        fail_all = (1.0 - self.subsystem_success_probability) ** self.num_subsystem_codes
        return 1.0 - fail_all

    @property
    def expansion_success_probability(self) -> float:
        """Probability the post-expansion error-detection round post-selects "keep".

        The number of checked syndrome bits grows as O(d^2), which is what
        makes the expected number of attempts *increase* with distance
        (Appendix A.1).
        """
        checks = self.expansion_checks_per_d2 * self.distance ** 2
        return (1.0 - self.physical_error_rate) ** checks

    @property
    def attempt_success_probability(self) -> float:
        """Probability one full attempt (both rounds) produces a usable state."""
        return (self.first_round_success_probability
                * self.expansion_success_probability)

    @property
    def cycles_per_attempt(self) -> float:
        """Duration of one attempt in lattice-surgery cycles (= d measurement rounds)."""
        return self.rounds_per_attempt / self.distance

    # -- analytic expectations -----------------------------------------------------

    def expected_attempts(self) -> float:
        """Expected number of attempts until success (geometric mean 1/p_succ)."""
        return 1.0 / self.attempt_success_probability

    def expected_cycles(self) -> float:
        """Expected preparation latency in lattice-surgery cycles."""
        return self.expected_attempts() * self.cycles_per_attempt

    def expected_cycles_parallel(self, num_patches: int) -> float:
        """Expected latency when ``num_patches`` ancilla patches prepare in parallel.

        The first success among ``n`` independent geometric processes: the
        per-"slot" success probability becomes ``1 - (1-q)^n``.  This is the
        quantity RESCQ's parallel-preparation optimisation improves.
        """
        if num_patches < 1:
            raise ValueError("num_patches must be >= 1")
        q = self.attempt_success_probability
        q_parallel = 1.0 - (1.0 - q) ** num_patches
        return self.cycles_per_attempt / q_parallel

    # -- sampling -------------------------------------------------------------------

    def sample_attempts(self, rng: np.random.Generator) -> int:
        """Draw the number of attempts a single preparation takes (>= 1)."""
        return int(rng.geometric(self.attempt_success_probability))

    def sample_cycles(self, rng: np.random.Generator) -> int:
        """Draw a preparation latency in whole lattice-surgery cycles (>= 1).

        The simulator advances in whole cycles, so the attempt-granular
        latency is rounded up; a preparation never completes in zero cycles.
        """
        attempts = self.sample_attempts(rng)
        return max(1, int(math.ceil(attempts * self.cycles_per_attempt)))

    # -- vectorised sampling ---------------------------------------------------------

    def sample_attempts_batch(self, rng: np.random.Generator,
                              count: int) -> np.ndarray:
        """Draw ``count`` attempt counts in one vectorised call.

        Stream-equivalent to ``count`` successive :meth:`sample_attempts`
        calls: numpy's ``Generator.geometric`` consumes the bit stream
        identically whether it fills an array or returns scalars, so batched
        and scalar sampling produce bit-identical simulations.
        """
        return rng.geometric(self.attempt_success_probability, size=count)

    def sample_cycles_batch(self, rng: np.random.Generator,
                            count: int) -> np.ndarray:
        """Draw ``count`` preparation latencies in one vectorised call.

        Element ``i`` equals what the ``i``-th successive
        :meth:`sample_cycles` call on the same generator state would have
        returned (see :meth:`sample_attempts_batch`), which is what lets the
        schedulers batch the draws for a fan-out of parallel preparations
        without changing any simulated trace.
        """
        attempts = self.sample_attempts_batch(rng, count)
        cycles = np.ceil(attempts * self.cycles_per_attempt).astype(np.int64)
        return np.maximum(cycles, 1)
