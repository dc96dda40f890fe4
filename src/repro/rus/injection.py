"""|m_theta> injection strategies and the RUS correction chain (Section 3.2).

Once an |m_theta> state exists in an ancilla patch it is consumed by a
teleportation-style injection into the data qubit.  The paper considers two
strategies (Figure 6 / Table 1):

=====================  =======  =====
parameter              CNOT     ZZ
=====================  =======  =====
exposed data edge      X        Z
ancillas required      2        1
injection cycles       2        1
=====================  =======  =====

Either way the final measurement yields +1/-1 with probability 1/2.  A -1
outcome applied ``Rz(-theta)`` instead, so an ``Rz(2*theta)`` correction is
required, itself injected with the same protocol — the repeat-until-success
chain of Equation 1, whose expectation is 2 injections (fewer when a doubled
angle lands on a Clifford).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..circuits import doublings_until_clifford

__all__ = ["InjectionStrategy", "InjectionModel", "expected_injections"]


class InjectionStrategy(enum.Enum):
    """The two injection circuits of Figure 6."""

    ZZ = "zz"
    CNOT = "cnot"

    @property
    def exposed_edge(self) -> str:
        """Which data-qubit edge must face the injection ancilla ('Z' or 'X')."""
        return "Z" if self is InjectionStrategy.ZZ else "X"

    @property
    def ancillas_required(self) -> int:
        """Number of ancilla tiles consumed by one injection (Table 1)."""
        return 1 if self is InjectionStrategy.ZZ else 2

    @property
    def cycles(self) -> int:
        """Lattice-surgery cycles for one injection (Table 1)."""
        return 1 if self is InjectionStrategy.ZZ else 2


def expected_injections(theta: Optional[float] = None,
                        max_doublings: int = 64) -> float:
    """Expected injections for one logical Rz(theta) (Equation 1).

    For a generic continuous angle the expectation is exactly 2.  When some
    doubling ``2^k * theta`` is a Clifford rotation the chain terminates at
    step ``k`` because the correction can be absorbed into the Clifford frame,
    giving ``sum_{j=1..k} j/2^j + k/2^k < 2``.
    """
    if theta is None:
        return 2.0
    k = doublings_until_clifford(theta, max_doublings=max_doublings)
    if k == 0:
        return 0.0  # already Clifford: no injection at all
    expectation = sum(j / 2.0 ** j for j in range(1, k + 1))
    # If every one of the first k injections fails, the k-th doubled angle is
    # Clifford and is applied for free (no further injection).
    expectation += k / 2.0 ** k
    return expectation


@dataclass(frozen=True)
class InjectionModel:
    """Sampling model for the injection RUS chain.

    Parameters
    ----------
    strategy:
        ZZ or CNOT injection (Table 1).
    success_probability:
        Probability the injection measurement yields +1 (the protocol fixes
        this at 1/2; it is configurable for what-if studies only).
    max_doublings:
        Safety bound on the correction chain length.
    """

    strategy: InjectionStrategy = InjectionStrategy.ZZ
    success_probability: float = 0.5
    max_doublings: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError("success_probability must be in (0, 1]")

    @property
    def cycles_per_injection(self) -> int:
        return self.strategy.cycles

    def sample_outcome(self, rng: np.random.Generator) -> bool:
        """Draw one injection measurement outcome (True = success)."""
        return bool(rng.random() < self.success_probability)

    def sample_injection_counts(self, rng: np.random.Generator, count: int,
                                theta: Optional[float] = None) -> np.ndarray:
        """Vectorised Monte-Carlo form of :meth:`sample_injection_count`.

        The truncated chain length ``min(Geometric(p), limit)`` is drawn
        directly, so one call replaces ``count`` per-attempt sampling loops.
        Distributionally identical to the scalar method but *not*
        stream-aligned with it (it consumes one geometric draw per chain
        instead of one uniform per injection); use it for batch analyses,
        not to replay a scalar-sampled trace.
        """
        limit = self.max_doublings
        if theta is not None:
            limit = min(limit, doublings_until_clifford(theta, self.max_doublings))
            if limit == 0:
                return np.zeros(count, dtype=np.int64)
        chains = rng.geometric(self.success_probability, size=count)
        return np.minimum(chains, limit).astype(np.int64)

    def sample_injection_count(self, rng: np.random.Generator,
                               theta: Optional[float] = None) -> int:
        """Draw the total number of injections for a full Rz(theta) execution.

        The count includes the final successful injection.  When a doubled
        angle becomes Clifford the chain stops there even if that last
        injection "failed" (the residual rotation is absorbed classically), so
        the count is truncated at ``doublings_until_clifford(theta)``.
        """
        limit = self.max_doublings
        if theta is not None:
            limit = min(limit, doublings_until_clifford(theta, self.max_doublings))
            if limit == 0:
                return 0
        count = 0
        while count < limit:
            count += 1
            if self.sample_outcome(rng):
                break
        return count

    def expected_injection_count(self, theta: Optional[float] = None) -> float:
        """Analytic counterpart of :meth:`sample_injection_count` (Equation 1)."""
        if self.success_probability == 0.5:
            return expected_injections(theta, self.max_doublings)
        # General geometric expectation, truncated at the Clifford horizon.
        limit = self.max_doublings
        if theta is not None:
            limit = min(limit, doublings_until_clifford(theta, self.max_doublings))
            if limit == 0:
                return 0.0
        p = self.success_probability
        expectation = sum(j * p * (1 - p) ** (j - 1) for j in range(1, limit + 1))
        expectation += limit * (1 - p) ** limit
        return expectation
