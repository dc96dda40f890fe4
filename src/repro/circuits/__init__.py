"""Gate/circuit intermediate representation for Clifford+Rz programs."""

from .gates import (
    Gate,
    GateType,
    barrier,
    cnot,
    doublings_until_clifford,
    h,
    is_clifford_angle,
    measure,
    rz,
    s,
    t,
    x,
    z,
)
from .circuit import Circuit, CircuitStats
from .dag import GateDependencyGraph
from .qasm import QasmImportError, import_qasm_file, parse_qasm
from .textio import (
    from_artifact_format,
    to_artifact_format,
    to_qasm,
)
from .transpile import BASIS, decompose_gate, transpile_to_clifford_rz

__all__ = [
    "Gate",
    "GateType",
    "Circuit",
    "CircuitStats",
    "GateDependencyGraph",
    "rz",
    "h",
    "x",
    "z",
    "s",
    "t",
    "cnot",
    "measure",
    "barrier",
    "is_clifford_angle",
    "doublings_until_clifford",
    "to_artifact_format",
    "from_artifact_format",
    "to_qasm",
    "parse_qasm",
    "import_qasm_file",
    "QasmImportError",
    "transpile_to_clifford_rz",
    "decompose_gate",
    "BASIS",
]
