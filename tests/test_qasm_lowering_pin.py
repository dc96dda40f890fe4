"""Byte-identity pin for the QASM importer's builtin lowering.

``qasm_lowering_pin.json`` holds, for every qelib1 builtin at fixed angle
sets (plus macro, shadowing and broadcast programs), the exact gate sequence
of :func:`parse_qasm` and of :func:`import_qasm_file` as ``(type, qubits,
float.hex(angle))`` triples.  ``.qasm`` job fingerprints hash these
sequences, so any change to them, down to the last bit of an angle, changes
cached results and must be deliberate.

Regenerate (only for an intentional lowering change) with::

    PYTHONPATH=src python tests/test_qasm_lowering_pin.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from typing import Dict, List, Optional

from repro.circuits import Circuit, import_qasm_file, parse_qasm

PIN_PATH = os.path.join(os.path.dirname(__file__), "qasm_lowering_pin.json")

#: name -> (parameter count, qubit count) for every qelib1 builtin.
BUILTINS = {
    "U": (3, 1),
    "CX": (0, 2),
    "u3": (3, 1),
    "u2": (2, 1),
    "u1": (1, 1),
    "u": (3, 1),
    "p": (1, 1),
    "id": (0, 1),
    "x": (0, 1),
    "y": (0, 1),
    "z": (0, 1),
    "h": (0, 1),
    "s": (0, 1),
    "sdg": (0, 1),
    "t": (0, 1),
    "tdg": (0, 1),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "cx": (0, 2),
    "cz": (0, 2),
    "cy": (0, 2),
    "ch": (0, 2),
    "swap": (0, 2),
    "crz": (1, 2),
    "cu1": (1, 2),
    "cp": (1, 2),
    "cu3": (3, 2),
    "rzz": (1, 2),
    "ccx": (0, 3),
    "cswap": (0, 3),
}

ANGLE_SETS = {
    "a": ("0.1", "0.2", "0.3"),
    "b": ("pi/3", "-pi/7", "2.5e-1*3"),
    "c": ("0", "pi", "-pi/2"),
    "d": ("-1.75", "sqrt(2)/3", "ln(7)^2"),
}

OPERANDS = {1: "q[2]", 2: "q[2],q[0]", 3: "q[1],q[2],q[0]"}

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

EXTRA_PROGRAMS = {
    "macro": (
        "qreg q[3];\n"
        "gate g(a,b) x,y { cu3(a/2,b*2,a-b) x,y; u2(-a,b^2) y; crz(a+b) y,x; }\n"
        "g(0.7,-1.3) q[0],q[2];\n"
        "g(pi/5,3) q[1],q[0];\n"
    ),
    "shadow": (
        "qreg q[2];\n"
        "gate cu1(l) a,b { rz(l) a; cx a,b; }\n"
        "gate rz(t) a { rx(t) a; }\n"
        "cu1(0.4) q[0],q[1];\n"
        "cp(0.4) q[0],q[1];\n"
        "u1(0.3) q[0];\n"
        "rz(0.3) q[1];\n"
    ),
    "broadcast": "qreg a[2];\nqreg b[2];\ncu3(0.1,0.2,0.3) a,b;\nu2(0.5,-0.5) a;\n",
}


def corpus() -> Dict[str, str]:
    """Program name -> OpenQASM 2.0 source."""
    programs = {}
    for name, (num_params, num_qubits) in sorted(BUILTINS.items()):
        for set_name, angles in sorted(ANGLE_SETS.items()):
            params = f"({','.join(angles[:num_params])})" if num_params else ""
            call = f"{name}{params} {OPERANDS[num_qubits]};\n"
            programs[f"{name}@{set_name}"] = HEADER + "qreg q[3];\n" + call
            if not num_params:
                break
    for name, body in EXTRA_PROGRAMS.items():
        programs[name] = HEADER + body
    return programs


def _listing(circuit: Circuit) -> List[List[object]]:
    def angle(value: Optional[float]) -> Optional[str]:
        return None if value is None else float.hex(value)

    return [
        [gate.gate_type.value, list(gate.qubits), angle(gate.angle)]
        for gate in circuit
    ]


def capture(directory: str) -> Dict[str, Dict[str, List[List[object]]]]:
    """Parse and import every corpus program; ``directory`` holds the files."""
    pinned = {}
    for name, text in corpus().items():
        path = os.path.join(directory, f"pin_{len(pinned)}.qasm")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        pinned[name] = {
            "parsed": _listing(parse_qasm(text)),
            "lowered": _listing(import_qasm_file(path)),
        }
    return pinned


def test_lowering_matches_pinned_corpus(tmp_path):
    with open(PIN_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    fresh = capture(str(tmp_path))
    assert sorted(fresh) == sorted(pinned)
    for name in sorted(pinned):
        assert fresh[name] == pinned[name], name


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        pinned = capture(directory)
    lines = [
        f"{json.dumps(name)}: {json.dumps(pinned[name])}" for name in sorted(pinned)
    ]
    with open(PIN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"captured {len(pinned)} programs into {PIN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
