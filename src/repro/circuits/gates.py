"""Gate-level intermediate representation for Clifford+Rz programs.

The RESCQ scheduler operates on logical programs expressed in the basis
``{Rz(theta), H, X, CNOT}`` (Section 3 of the paper).  Gates are lightweight
immutable value objects: the simulator never inspects quantum amplitudes, only
gate *types*, *operands* and, for rotations, the *angle* (which determines how
many times the angle can be doubled before the correction becomes a Clifford).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "GateType",
    "Gate",
    "rz",
    "h",
    "x",
    "z",
    "s",
    "t",
    "cnot",
    "measure",
    "barrier",
    "CLIFFORD_ANGLE_ATOL",
    "is_clifford_angle",
    "doublings_until_clifford",
]


#: Absolute tolerance used when deciding whether a rotation angle is a
#: multiple of pi/2 (i.e. implementable as a Clifford frame update).
CLIFFORD_ANGLE_ATOL = 1e-9


class GateType(enum.Enum):
    """Enumeration of gate types understood by the schedulers.

    Only the members listed in :data:`repro.circuits.transpile.BASIS` may
    appear in a program handed to a scheduler; the other members exist so that
    workload generators and the QASM importer can build circuits naturally and
    then lower them via
    :func:`repro.circuits.transpile.transpile_to_clifford_rz`.
    """

    RZ = "rz"
    H = "h"
    X = "x"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    Y = "y"
    CNOT = "cx"
    CZ = "cz"
    SWAP = "swap"
    RX = "rx"
    RY = "ry"
    RZZ = "rzz"
    CCX = "ccx"
    MEASURE = "measure"
    BARRIER = "barrier"

    @property
    def is_two_qubit(self) -> bool:
        return self in _TWO_QUBIT_TYPES

    @property
    def is_three_qubit(self) -> bool:
        return self is GateType.CCX

    @property
    def num_qubits(self) -> int:
        if self is GateType.BARRIER:
            return 0
        if self.is_three_qubit:
            return 3
        return 2 if self.is_two_qubit else 1


_TWO_QUBIT_TYPES = frozenset(
    {GateType.CNOT, GateType.CZ, GateType.SWAP, GateType.RZZ}
)


def is_clifford_angle(theta: float) -> bool:
    """Return ``True`` when ``Rz(theta)`` is a Clifford gate.

    ``Rz`` is Clifford exactly when ``theta`` is an integer multiple of
    ``pi/2`` (identity, S, Z, Sdg up to global phase).  Clifford rotations do
    not need a magic-state injection and therefore cost zero lattice-surgery
    cycles in the symbolic execution model.
    """
    if theta is None:
        return False
    ratio = theta / (math.pi / 2)
    return abs(ratio - round(ratio)) < CLIFFORD_ANGLE_ATOL


def doublings_until_clifford(theta: float, max_doublings: int = 64) -> int:
    """Number of angle doublings before ``Rz(2^k * theta)`` becomes Clifford.

    The repeat-until-success correction chain doubles the angle on every
    injection failure (Section 3.2).  When a doubled angle lands on a Clifford
    the chain terminates early because the correction can be applied in the
    Pauli/Clifford frame.  Returns ``max_doublings`` when no doubling within
    that horizon produces a Clifford (the generic continuous-angle case).
    """
    angle = theta
    for k in range(max_doublings):
        if is_clifford_angle(angle):
            return k
        angle *= 2.0
    return max_doublings


@dataclass(frozen=True)
class Gate:
    """A single logical gate.

    Attributes
    ----------
    gate_type:
        The :class:`GateType` of the gate.
    qubits:
        Tuple of logical qubit indices the gate acts on.  For CNOT the order
        is ``(control, target)``.
    angle:
        Rotation angle in radians for parameterised gates, ``None`` otherwise.
    label:
        Optional free-form annotation (used by workload generators to tag the
        algorithmic role of a gate, e.g. ``"qft-phase"``).
    """

    gate_type: GateType
    qubits: Tuple[int, ...]
    angle: Optional[float] = None
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.qubits, tuple):
            object.__setattr__(self, "qubits", tuple(self.qubits))
        expected = self.gate_type.num_qubits
        if expected and len(self.qubits) != expected:
            raise ValueError(
                f"{self.gate_type.value} expects {expected} qubit(s), "
                f"got {self.qubits!r}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit operands in {self.qubits!r}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits!r}")
        if self.gate_type in _PARAMETERISED and self.angle is None:
            raise ValueError(f"{self.gate_type.value} requires an angle")

    # -- convenience accessors -------------------------------------------------

    @property
    def name(self) -> str:
        return self.gate_type.value

    @property
    def is_two_qubit(self) -> bool:
        return self.gate_type.is_two_qubit

    @property
    def control(self) -> int:
        if self.gate_type not in (GateType.CNOT, GateType.CZ, GateType.RZZ):
            raise AttributeError(f"{self.name} has no control qubit")
        return self.qubits[0]

    @property
    def target(self) -> int:
        if not self.is_two_qubit:
            raise AttributeError(f"{self.name} has no target qubit")
        return self.qubits[1]

    @property
    def is_rotation(self) -> bool:
        """True for continuous-angle Rz rotations that need |m_theta> injection."""
        return self.gate_type is GateType.RZ and not is_clifford_angle(self.angle)

    @property
    def is_free(self) -> bool:
        """Gates that cost zero lattice-surgery cycles (Pauli-frame updates)."""
        if self.gate_type in (GateType.X, GateType.Z, GateType.Y,
                              GateType.BARRIER, GateType.MEASURE):
            return True
        if self.gate_type is GateType.RZ and is_clifford_angle(self.angle):
            # Clifford Rz rotations (S, Z, ...) are tracked in the Clifford
            # frame by the classical controller.
            return True
        return False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        operands = " ".join(str(q) for q in self.qubits)
        if self.angle is not None:
            return f"{self.name} {operands} {self.angle:.6g}"
        return f"{self.name} {operands}"


_PARAMETERISED = frozenset(
    {GateType.RZ, GateType.RX, GateType.RY, GateType.RZZ}
)


# -- constructor helpers -------------------------------------------------------

def rz(qubit: int, theta: float, label: Optional[str] = None) -> Gate:
    """Create an ``Rz(theta)`` rotation on ``qubit``."""
    return Gate(GateType.RZ, (qubit,), angle=theta, label=label)


def h(qubit: int) -> Gate:
    """Create a Hadamard gate on ``qubit``."""
    return Gate(GateType.H, (qubit,))


def x(qubit: int) -> Gate:
    """Create a Pauli-X gate on ``qubit``."""
    return Gate(GateType.X, (qubit,))


def z(qubit: int) -> Gate:
    """Create a Pauli-Z gate on ``qubit``."""
    return Gate(GateType.Z, (qubit,))


def s(qubit: int) -> Gate:
    """Create an S gate (Clifford Rz(pi/2)) on ``qubit``."""
    return Gate(GateType.S, (qubit,))


def t(qubit: int) -> Gate:
    """Create a T gate (Rz(pi/4)) on ``qubit``."""
    return Gate(GateType.T, (qubit,))


def cnot(control: int, target: int) -> Gate:
    """Create a CNOT with the given control and target."""
    return Gate(GateType.CNOT, (control, target))


def measure(qubit: int) -> Gate:
    """Create a terminal measurement on ``qubit``."""
    return Gate(GateType.MEASURE, (qubit,))


def barrier() -> Gate:
    """Create a scheduling barrier (used only by workload generators)."""
    return Gate(GateType.BARRIER, ())
