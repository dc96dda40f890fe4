"""Scheduler interface and shared helpers."""

from __future__ import annotations

import abc

from ..circuits import Circuit, Gate, GateType, doublings_until_clifford
from ..fabric import GridLayout
from ..sim.config import SimulationConfig
from ..sim.results import SimulationResult

__all__ = ["Scheduler", "gate_kind"]

#: (angle, max_doublings) -> injection limit.  Angles repeat heavily within
#: and across circuits (T gates, layered ansaetze) and
#: :func:`doublings_until_clifford` walks up to ``max_doublings`` float
#: doublings per query, so the limit is worth memoising process-wide.
_INJECTION_LIMIT_CACHE: "dict[tuple[float, int], int]" = {}
_INJECTION_LIMIT_CACHE_MAX = 65536


def gate_kind(gate: Gate) -> str:
    """Trace label for a gate ('cnot', 'rz', 'h', ...)."""
    if gate.gate_type is GateType.CNOT:
        return "cnot"
    if gate.gate_type is GateType.RZ:
        return "rz"
    if gate.gate_type is GateType.H:
        return "h"
    return gate.gate_type.value


class Scheduler(abc.ABC):
    """A scheduling policy that can execute a circuit on a layout.

    Subclasses implement :meth:`run`; everything stochastic must flow through
    the ``numpy`` generator seeded from the ``seed`` argument so that repeated
    runs are reproducible (the paper's simulator is seeded the same way,
    Section 5.1).
    """

    #: Short identifier used in result tables ("rescq", "greedy", "autobraid").
    name: str = "scheduler"

    @abc.abstractmethod
    def run(self, circuit: Circuit, layout: GridLayout,
            config: SimulationConfig, seed: int = 0) -> SimulationResult:
        """Execute ``circuit`` on ``layout`` and return the timing result."""

    # -- shared helpers ------------------------------------------------------------

    @staticmethod
    def prepare_circuit(circuit: Circuit) -> Circuit:
        """Strip zero-cost gates; the remaining gates are what gets scheduled."""
        return circuit.without_free_gates()

    @staticmethod
    def injection_limit(gate: Gate, max_doublings: int = 64) -> int:
        """Maximum length of the RUS correction chain for this rotation."""
        if gate.angle is None:
            return max_doublings
        key = (gate.angle, max_doublings)
        limit = _INJECTION_LIMIT_CACHE.get(key)
        if limit is None:
            if len(_INJECTION_LIMIT_CACHE) >= _INJECTION_LIMIT_CACHE_MAX:
                _INJECTION_LIMIT_CACHE.clear()
            limit = max(1, doublings_until_clifford(gate.angle, max_doublings))
            _INJECTION_LIMIT_CACHE[key] = limit
        return limit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
