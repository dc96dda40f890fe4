"""Lattice-surgery operation cost model (Sections 2 and 3, Table 1).

All durations are expressed in *lattice-surgery cycles*; one cycle is ``d``
rounds of syndrome measurement (about 1 microsecond per round for
superconducting hardware, so a cycle is ~``d`` us — the unit conversions used
when discussing classical control overhead live in
:mod:`repro.scheduling.mst`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LatticeSurgeryCosts", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class LatticeSurgeryCosts:
    """Cycle costs of the logical operations the schedulers issue.

    Attributes
    ----------
    cnot_cycles:
        A lattice-surgery CNOT is a ZZ merge followed by an XX merge/split
        (Figure 2): 2 cycles regardless of distance, as long as the ancilla
        channel is contiguous.
    edge_rotation_cycles:
        Rotating a patch to expose the other Pauli boundary takes 3 cycles and
        one free neighbouring ancilla (Section 3.1, Figure 4).
    hadamard_cycles:
        A logical Hadamard is realised by a patch deformation/rotation of the
        same cost as an edge rotation.
    zz_injection_cycles / cnot_injection_cycles:
        Consuming a prepared |m_theta> via the ZZ or CNOT strategy (Table 1).
    measurement_cycles:
        Destructive logical measurement in the X or Z basis (absorbed into the
        following operation in this model, hence 0).
    """

    cnot_cycles: int = 2
    edge_rotation_cycles: int = 3
    hadamard_cycles: int = 3
    zz_injection_cycles: int = 1
    cnot_injection_cycles: int = 2
    measurement_cycles: int = 0


#: The costs used throughout the paper's evaluation.
DEFAULT_COSTS = LatticeSurgeryCosts()
