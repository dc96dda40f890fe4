"""OpenQASM 2.0 importer: a lexer/parser front end for :class:`Circuit`.

The paper's Table 3 workloads originate as QASMBench / SupermarQ OpenQASM
files.  This module lets the reproduction consume such files directly instead
of relying on the hand-built generator substitutes: it implements a hand
written lexer and recursive-descent parser for the OpenQASM 2.0 grammar
(Cross et al., "Open Quantum Assembly Language", arXiv:1707.03429) covering

* ``qreg`` / ``creg`` declarations (multiple registers, offset-mapped onto a
  single flat qubit index space in declaration order);
* the builtin ``U(theta, phi, lambda)`` and ``CX`` gates plus the full
  ``qelib1.inc`` standard library: every :class:`GateType` is a builtin under
  its own name, and the other gates are a QASM prelude (:data:`_PRELUDE`)
  whose bodies use only GateType names;
* user-defined ``gate`` macros, expanded recursively at every call site with
  parameter and operand substitution (a file's own definition shadows a
  builtin of the same name);
* register broadcasting (``h q;`` applies ``h`` to every qubit of ``q``;
  mixed single-qubit/register operands broadcast QASM-style);
* constant angle expressions with ``pi``, the arithmetic operators
  ``+ - * / ^`` and the builtin functions ``sin cos tan exp ln sqrt``, parsed
  by :func:`ast.parse` over the lexed tokens and evaluated in float
  arithmetic;
* ``measure`` (including register-to-register form) and ``barrier``.

Constructs the lattice-surgery execution model cannot represent are rejected
with an actionable :class:`QasmImportError` carrying the source line and
column: ``if`` (classical control), ``reset`` (mid-circuit reinitialisation)
and ``opaque`` gates, plus any ``include`` other than ``qelib1.inc``.

:func:`import_qasm_file` is the one-call entry point used by ``rescq run
path/to/file.qasm``: it parses the file, names the circuit after it and
lowers the result into the scheduler basis through
:func:`~repro.circuits.transpile.transpile_to_clifford_rz`.
"""

from __future__ import annotations

import ast
import difflib
import functools
import math
import operator
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .circuit import Circuit
from .gates import _PARAMETERISED, Gate, GateType
from .transpile import transpile_to_clifford_rz

__all__ = ["QasmImportError", "parse_qasm", "import_qasm_file"]


class QasmImportError(ValueError):
    """A QASM program could not be imported.

    Carries the source position so CLI users can jump to the offending
    statement; ``str()`` renders ``<file>:<line>:<column>: <message>``.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        filename: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename

    def __str__(self) -> str:
        prefix = self.filename or "<qasm>"
        if self.line is not None:
            position = f"{prefix}:{self.line}"
            if self.column is not None:
                position += f":{self.column}"
            return f"{position}: {self.message}"
        return f"{prefix}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

#: The symbols by first character, longest first (``->`` before ``-``).
_SYMBOLS = {"-": ("->", "-"), "=": ("==",), **{c: (c,) for c in ";,()[]{}+*/^"}}

#: A number literal; group 1 is its exponent part (``e``, a sign, digits).
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)([eE][+-]?\d*)?")


@dataclass(frozen=True)
class _Token:
    kind: str  # "id", "int", "real", "string", or the symbol itself
    value: str
    line: int
    column: int


def _tokenize(text: str, filename: Optional[str]) -> List[_Token]:
    tokens: List[_Token] = []
    line, column = 1, 1
    index, length = 0, len(text)
    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if text.startswith("//", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline
            continue
        if char == '"':
            end = text.find('"', index + 1)
            if end < 0:
                raise QasmImportError(
                    "unterminated string literal", line, column, filename
                )
            tokens.append(_Token("string", text[index + 1 : end], line, column))
            column += end + 1 - index
            index = end + 1
            continue
        number = _NUMBER.match(text, index) if char.isdigit() or char == "." else None
        if number:
            lexeme, exponent = number.group(0), number.group(1)
            if exponent and not exponent[-1].isdigit():
                raise QasmImportError(
                    f"malformed number literal {lexeme!r}: exponent has no digits",
                    line,
                    column,
                    filename,
                )
            kind = "real" if "." in lexeme or exponent else "int"
            tokens.append(_Token(kind, lexeme, line, column))
            column += len(lexeme)
            index += len(lexeme)
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            tokens.append(_Token("id", text[start:index], line, column))
            column += index - start
            continue
        for symbol in _SYMBOLS.get(char, ()):
            if text.startswith(symbol, index):
                tokens.append(_Token(symbol, symbol, line, column))
                index += len(symbol)
                column += len(symbol)
                break
        else:
            raise QasmImportError(
                f"unexpected character {char!r}", line, column, filename
            )
    return tokens


# ---------------------------------------------------------------------------
# Builtin gates: the GateType vocabulary plus a qelib1-style prelude
# ---------------------------------------------------------------------------

#: Every GateType but measure/barrier is a builtin under its own name
#: (``cx``, ``rz``, ...); ``CX`` is the OpenQASM spelling of ``cx``.  Arity
#: and parameter count come from :class:`GateType` itself.
_GATE_TYPES: Dict[str, GateType] = {
    gate_type.value: gate_type
    for gate_type in GateType
    if gate_type not in (GateType.MEASURE, GateType.BARRIER)
}
_GATE_TYPES["CX"] = GateType.CNOT

#: The rest of ``qelib1.inc`` and the builtin ``U``, written over GateType
#: names.  ``U(theta,phi,lambda)`` is Rz(phi) Ry(theta) Rz(lambda) up to
#: global phase; ``p``/``cp`` are the OpenQASM 3 spellings of ``u1``/``cu1``
#: that newer exporters emit into 2.0 files.  Bodies resolve names in the
#: prelude and the GateType vocabulary only, never in a file's own gates.
_PRELUDE = """
gate U(theta,phi,lambda) q { rz(lambda) q; ry(theta) q; rz(phi) q; }
gate u3(theta,phi,lambda) q { rz(lambda) q; ry(theta) q; rz(phi) q; }
gate u(theta,phi,lambda) q { rz(lambda) q; ry(theta) q; rz(phi) q; }
gate u2(phi,lambda) q { rz(lambda) q; ry(pi/2) q; rz(phi) q; }
gate u1(lambda) q { rz(lambda) q; }
gate p(lambda) q { rz(lambda) q; }
gate id q { }
gate cy a,b { sdg b; cx a,b; s b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate crz(lambda) a,b { rz(lambda/2) b; cx a,b; rz(-lambda/2) b; cx a,b; }
gate cu1(lambda) a,b {
  rz(lambda/2) a; cx a,b; rz(-lambda/2) b; cx a,b; rz(lambda/2) b;
}
gate cp(lambda) a,b {
  rz(lambda/2) a; cx a,b; rz(-lambda/2) b; cx a,b; rz(lambda/2) b;
}
gate cu3(theta,phi,lambda) a,b {
  rz((lambda-phi)/2) b; cx a,b;
  rz(-(phi+lambda)/2) b; ry(-theta/2) b; rz(0) b; cx a,b;
  rz(0) b; ry(theta/2) b; rz(phi) b; rz((lambda+phi)/2) a;
}
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
"""

_ANGLE_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}

#: Statements the execution model cannot represent, with the reason.
_UNSUPPORTED = {
    "opaque": (
        "opaque gates have no body to lower into lattice-surgery operations; "
        "define the gate with 'gate' instead"
    ),
    "if": (
        "classically controlled statements (if) are not supported: the "
        "scheduler model has no classical control flow"
    ),
    "reset": (
        "reset is not supported: the execution model has no mid-circuit "
        "reinitialisation; remove it or split the circuit"
    ),
}

#: Expansion depth bound for ``gate`` macros (cycles are an error in
#: OpenQASM 2.0, but a malformed file should fail loudly, not recurse forever).
_MAX_GATE_DEPTH = 64


@dataclass
class _GateDef:
    """A ``gate`` macro: formal params and qubits, and its body calls."""

    params: Tuple[str, ...]
    qubits: Tuple[str, ...]
    body: List["_Call"]


@dataclass
class _Call:
    """One gate application inside a gate body (operands are formal names)."""

    name: str
    params: List[List[_Token]]  # unevaluated expression token runs
    operands: List[str]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, name: str, filename: Optional[str]) -> None:
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.position = 0
        self.circuit_name = name
        self.qreg_offsets: Dict[str, int] = {}
        self.qreg_sizes: Dict[str, int] = {}
        self.creg_sizes: Dict[str, int] = {}
        self.gate_defs: Dict[str, _GateDef] = {}
        self.gates: List[Gate] = []

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _last(self) -> _Token:
        return self.tokens[-1] if self.tokens else _Token("", "", 1, 1)

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of input", self._last())
        self.position += 1
        return token

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is a ``kind`` token."""
        token = self._peek()
        if token is not None and token.kind == kind:
            self.position += 1
            return True
        return False

    def _expect(self, kind: str, what: Optional[str] = None) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise self._error(
                f"expected {what or kind!r} but found {token.value!r}", token
            )
        return token

    def _names(self, what: str) -> List[_Token]:
        """A comma-separated list of identifiers."""
        names = [self._expect("id", what)]
        while self._accept(","):
            names.append(self._expect("id", what))
        return names

    def _error(self, message: str, token: _Token) -> QasmImportError:
        return QasmImportError(message, token.line, token.column, self.filename)

    # -- program -------------------------------------------------------------

    def parse(self) -> Circuit:
        token = self._peek()
        if token is not None and token.kind == "id" and token.value == "OPENQASM":
            self._next()
            version = self._next()
            if version.value not in ("2.0", "2"):
                raise self._error(
                    f"unsupported OpenQASM version {version.value!r}; "
                    f"only 2.0 is supported",
                    version,
                )
            self._expect(";")
        while self._peek() is not None:
            self._statement()
        if not self.qreg_offsets:
            raise QasmImportError(
                "program declares no qreg; add e.g. 'qreg q[4];'",
                self._last().line,
                None,
                self.filename,
            )
        total = sum(self.qreg_sizes.values())
        return Circuit(total, name=self.circuit_name, gates=self.gates)

    def _statement(self) -> None:
        token = self._next()
        if token.kind != "id":
            raise self._error(f"expected a statement but found {token.value!r}", token)
        keyword = token.value
        if keyword == "include":
            self._include()
        elif keyword in ("qreg", "creg"):
            self._register(keyword)
        elif keyword == "gate":
            self._gate_definition()
        elif keyword == "measure":
            self._measure()
        elif keyword == "barrier":
            self._barrier()
        elif keyword in _UNSUPPORTED:
            raise self._error(_UNSUPPORTED[keyword], token)
        else:
            self._gate_call(token)

    def _include(self) -> None:
        target = self._expect("string", "an include file name")
        self._expect(";")
        if target.value != "qelib1.inc":
            raise self._error(
                f"cannot include {target.value!r}: only the standard "
                f"'qelib1.inc' library is available to the importer",
                target,
            )

    def _register(self, kind: str) -> None:
        name_token = self._expect("id", "a register name")
        self._expect("[")
        size_token = self._expect("int", "a register size")
        self._expect("]")
        self._expect(";")
        name, size = name_token.value, int(size_token.value)
        if size <= 0:
            raise self._error(f"{kind} {name!r} must have a positive size", size_token)
        if name in self.qreg_sizes or name in self.creg_sizes:
            raise self._error(f"register {name!r} is declared twice", name_token)
        if kind == "qreg":
            self.qreg_offsets[name] = sum(self.qreg_sizes.values())
            self.qreg_sizes[name] = size
        else:
            self.creg_sizes[name] = size

    # -- gate definitions ----------------------------------------------------

    def _gate_definition(self) -> None:
        name_token = self._expect("id", "a gate name")
        name = name_token.value
        params: List[str] = []
        if self._accept("(") and not self._accept(")"):
            params = [token.value for token in self._names("a parameter name")]
            self._expect(")")
        qubits = [token.value for token in self._names("a qubit argument")]
        self._expect("{")
        body: List[_Call] = []
        while not self._accept("}"):
            if self._peek() is None:
                raise self._error(
                    f"gate {name!r} body is missing its closing '}}'", name_token
                )
            call = self._body_call(set(qubits))
            if call is not None:
                body.append(call)
        if name in self.gate_defs:
            raise self._error(f"gate {name!r} is defined twice", name_token)
        self.gate_defs[name] = _GateDef(tuple(params), tuple(qubits), body)

    def _body_call(self, qubits: Set[str]) -> Optional[_Call]:
        token = self._expect("id", "a gate call")
        if token.value == "barrier":
            # Barriers inside gate bodies order the body internally; the
            # execution model only honours top-level barriers, so they are
            # dropped.
            while self._next().kind != ";":
                pass
            return None
        params = self._expression_runs() if self._accept("(") else []
        operands = self._names("a qubit argument")
        for operand in operands:
            if operand.value not in qubits:
                raise self._error(
                    f"gate body references unknown qubit argument {operand.value!r}",
                    operand,
                )
        self._expect(";")
        return _Call(token.value, params, [operand.value for operand in operands])

    def _expression_runs(self) -> List[List[_Token]]:
        """Collect the comma-separated expression token runs up to ')'."""
        runs: List[List[_Token]] = [[]]
        depth = 0
        while True:
            token = self._next()
            if token.kind == "(":
                depth += 1
            elif token.kind == ")":
                if depth == 0:
                    break
                depth -= 1
            elif token.kind == "," and depth == 0:
                runs.append([])
                continue
            runs[-1].append(token)
        return [] if runs == [[]] else runs

    # -- gate application ----------------------------------------------------

    def _gate_call(self, name_token: _Token) -> None:
        params = self._expression_runs() if self._accept("(") else []
        operands = [self._operand()]
        while self._accept(","):
            operands.append(self._operand())
        self._expect(";")
        values = [self._evaluate(run, {}, name_token) for run in params]
        resolved = [self._resolve_operand(*operand) for operand in operands]
        for qubits in self._broadcast(resolved, name_token):
            self._apply(name_token.value, values, qubits, name_token, depth=0)

    def _operand(self) -> Tuple[str, Optional[int], _Token]:
        name_token = self._expect("id", "a register operand")
        index: Optional[int] = None
        if self._accept("["):
            index = int(self._expect("int", "a qubit index").value)
            self._expect("]")
        return name_token.value, index, name_token

    def _resolve_operand(
        self, register: str, index: Optional[int], token: _Token
    ) -> List[int]:
        """Map an operand to the flat qubit indices it denotes."""
        if register not in self.qreg_sizes:
            known = sorted(self.qreg_sizes) or "none"
            raise self._error(
                f"unknown qreg {register!r}; declared qregs: {known}", token
            )
        offset, size = self.qreg_offsets[register], self.qreg_sizes[register]
        if index is None:
            return [offset + i for i in range(size)]
        if not 0 <= index < size:
            raise self._error(
                f"index {index} is out of range for qreg {register}[{size}]", token
            )
        return [offset + index]

    def _broadcast(
        self, resolved: List[List[int]], token: _Token
    ) -> List[Tuple[int, ...]]:
        """Expand register operands QASM-style (all registers equal length)."""
        lengths = {len(group) for group in resolved if len(group) > 1}
        if len(lengths) > 1:
            raise self._error(
                f"cannot broadcast over registers of different sizes "
                f"{sorted(lengths)}",
                token,
            )
        count = lengths.pop() if lengths else 1
        return [
            tuple(group[i] if len(group) > 1 else group[0] for group in resolved)
            for i in range(count)
        ]

    def _apply(
        self,
        name: str,
        params: Sequence[float],
        qubits: Tuple[int, ...],
        token: _Token,
        depth: int,
        file_gates: bool = True,
    ) -> None:
        """Apply one gate call.

        ``name`` resolves to this file's ``gate`` definitions (unless
        ``file_gates`` is off, inside prelude bodies), then the prelude, then
        the GateType vocabulary.
        """
        if depth > _MAX_GATE_DEPTH:
            raise self._error(
                f"gate {name!r} expands deeper than {_MAX_GATE_DEPTH} levels; "
                f"gate definitions must not be recursive",
                token,
            )
        own = file_gates and name in self.gate_defs
        definition = self.gate_defs[name] if own else _prelude().get(name)
        gate_type = _GATE_TYPES.get(name)
        if definition is not None:
            num_params, num_qubits = len(definition.params), len(definition.qubits)
        elif gate_type is not None:
            num_params = int(gate_type in _PARAMETERISED)
            num_qubits = gate_type.num_qubits
        else:
            known = set(_GATE_TYPES) | set(_prelude()) | set(self.gate_defs)
            suggestions = difflib.get_close_matches(name, sorted(known), n=3)
            hint = f"; did you mean {suggestions}?" if suggestions else ""
            raise self._error(
                f"unknown gate {name!r}{hint} (qelib1.inc gates and 'gate' "
                f"definitions from this file are available)",
                token,
            )
        if len(params) != num_params:
            raise self._error(
                f"gate {name!r} takes {num_params} parameter(s), got {len(params)}",
                token,
            )
        if len(qubits) != num_qubits:
            raise self._error(
                f"gate {name!r} acts on {num_qubits} qubit(s), got {len(qubits)}",
                token,
            )
        if len(set(qubits)) != len(qubits):
            raise self._error(
                f"gate {name!r} applied to duplicate qubit operands {qubits}", token
            )
        if definition is None:
            angle = params[0] if num_params else None
            self.gates.append(Gate(gate_type, qubits, angle=angle))
            return
        param_env = dict(zip(definition.params, params))
        qubit_env = dict(zip(definition.qubits, qubits))
        for call in definition.body:
            values = [self._evaluate(run, param_env, token) for run in call.params]
            operand_qubits = tuple(qubit_env[operand] for operand in call.operands)
            self._apply(call.name, values, operand_qubits, token, depth + 1, own)

    def _measure(self) -> None:
        source_register, source_index, source_token = self._operand()
        self._expect("->")
        target_register, target_index, target_token = self._operand()
        self._expect(";")
        if target_register not in self.creg_sizes:
            raise self._error(
                f"measure target {target_register!r} is not a declared creg",
                target_token,
            )
        qubits = self._resolve_operand(source_register, source_index, source_token)
        target_size = self.creg_sizes[target_register]
        if (source_index is None) != (target_index is None):
            raise self._error(
                "measure operands must both be single bits or both be whole "
                "registers (e.g. 'measure q[0] -> c[0];' or 'measure q -> c;')",
                target_token,
            )
        if target_index is not None and not 0 <= target_index < target_size:
            raise self._error(
                f"index {target_index} is out of range for creg "
                f"{target_register}[{target_size}]",
                target_token,
            )
        if target_index is None and target_size < len(qubits):
            raise self._error(
                f"creg {target_register!r} is smaller than qreg {source_register!r}",
                target_token,
            )
        for qubit in qubits:
            self.gates.append(Gate(GateType.MEASURE, (qubit,)))

    def _barrier(self) -> None:
        # Operand list is parsed but the execution model treats every barrier
        # as a global synchronisation point (Circuit.layers semantics).
        while self._next().kind != ";":
            pass
        self.gates.append(Gate(GateType.BARRIER, ()))

    # -- angle expressions ---------------------------------------------------

    def _evaluate(
        self, run: List[_Token], env: Dict[str, float], context: _Token
    ) -> float:
        """Evaluate one constant angle expression to a float.

        The token run is handed to :func:`ast.parse` as Python source in which
        every atom (number or name) is spelled ``_`` and ``^`` is ``**``, so
        Python supplies the precedence; each node maps back to its token by
        column, and numbers evaluate as ``float`` of their literal text.
        """
        if not run:
            raise self._error("empty parameter expression", context)
        source, tokens = "", {}
        for token in run:
            tokens[len(source)] = token
            source += _PYTHON_SPELLING.get(token.kind, token.kind) + " "
        try:
            value = self._value(_parse_expression(source), tokens, env)
        except RecursionError:
            raise self._error("angle expression nests too deeply", run[0]) from None
        except SyntaxError as exc:
            offset = (exc.offset or 0) - 1
            starts = [start for start in tokens if start <= offset]
            if not starts or offset >= len(source.rstrip()):
                raise self._error(
                    "angle expression ends unexpectedly", run[-1]
                ) from None
            raise self._unexpected(tokens[max(starts)]) from None
        if not math.isfinite(value):
            raise self._error(
                f"parameter expression evaluates to {value!r}; angles must be finite",
                run[0],
            )
        return value

    def _value(
        self, node: ast.expr, tokens: Dict[int, _Token], env: Dict[str, float]
    ) -> float:
        token = tokens[node.col_offset]
        if isinstance(node, ast.Name) and token.kind in ("int", "real"):
            return float(token.value)
        if isinstance(node, ast.Name) and token.kind == "id":
            if token.value == "pi":
                return math.pi
            if token.value in env:
                return env[token.value]
            if token.value in _ANGLE_FUNCTIONS:
                raise self._error(
                    f"function {token.value!r} requires parentheses", token
                )
            known = sorted(set(env) | set(_ANGLE_FUNCTIONS) | {"pi"})
            raise self._error(
                f"unknown identifier {token.value!r} in angle expression; "
                f"known names: {known}",
                token,
            )
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = self._value(node.operand, tokens, env)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            left = self._value(node.left, tokens, env)
            right = self._value(node.right, tokens, env)
            symbol = self._token_after(node.left, tokens)
            if isinstance(node.op, ast.Div) and right == 0:
                raise self._error("division by zero in angle expression", symbol)
            try:
                value = _ARITHMETIC[type(node.op)](left, right)
            except (ZeroDivisionError, OverflowError) as exc:  # only ``^`` raises
                raise self._error(
                    f"{left!r} ^ {right!r} is undefined: {exc}", symbol
                ) from None
            if isinstance(value, complex):  # a negative base, fractional power
                raise self._error(f"{left!r} ^ {right!r} is not a real number", symbol)
            return value
        function = _ANGLE_FUNCTIONS.get(token.value) if token.kind == "id" else None
        if isinstance(node, ast.Call) and function is not None:
            if not isinstance(node.func, ast.Name) or len(node.args) != 1:
                raise self._error(f"function {token.value!r} takes one argument", token)
            argument = self._value(node.args[0], tokens, env)
            try:
                return function(argument)
            except (ValueError, OverflowError) as exc:
                raise self._error(
                    f"{token.value}({argument}) is undefined: {exc}", token
                ) from None
        # Any other node is malformed.  When it starts with an operand, as in
        # ``1==2``, ``q[0]`` or ``pi(2)``, evaluate that operand and blame the
        # token after it, as a recursive-descent parser would.
        first = next(ast.iter_child_nodes(node), None)
        if isinstance(first, ast.expr) and first.col_offset == node.col_offset:
            self._value(first, tokens, env)
            token = self._token_after(first, tokens)
        raise self._unexpected(token)

    @staticmethod
    def _token_after(node: ast.expr, tokens: Dict[int, _Token]) -> _Token:
        """The first token after ``node`` that does not close a parenthesis."""
        offset = node.end_col_offset
        while offset not in tokens or tokens[offset].kind == ")":
            offset += 1
        return tokens[offset]

    def _unexpected(self, token: _Token) -> QasmImportError:
        return self._error(f"unexpected {token.value!r} in angle expression", token)


#: How each token kind is spelled in the source handed to :func:`ast.parse`.
_PYTHON_SPELLING = {"id": "_", "int": "_", "real": "_", "string": "_", "^": "**"}

_ARITHMETIC: Dict[type, Callable[[float, float], float]] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


@functools.lru_cache(maxsize=1024)
def _parse_expression(source: str) -> ast.expr:
    return ast.parse(source, mode="eval").body


@functools.lru_cache(maxsize=None)
def _prelude() -> Dict[str, _GateDef]:
    """The prelude's gate definitions, parsed once per process."""
    parser = _Parser(_PRELUDE, "qelib1", "<qelib1 prelude>")
    while parser._peek() is not None:
        parser._statement()
    return parser.gate_defs


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_qasm(
    text: str, name: str = "circuit", filename: Optional[str] = None
) -> Circuit:
    """Parse OpenQASM 2.0 ``text`` into a :class:`Circuit`.

    The returned circuit uses the importer's full gate vocabulary (it may
    contain CZ, SWAP, RY, CCX, ...); lower it with
    :func:`~repro.circuits.transpile.transpile_to_clifford_rz` before handing
    it to a scheduler, or call :func:`import_qasm_file` which does both.

    Raises :class:`QasmImportError` (a :class:`ValueError`) with source
    line/column on any unsupported or malformed construct.
    """
    return _Parser(text, name, filename).parse()


def import_qasm_file(path: str, transpile: bool = True) -> Circuit:
    """Read, parse and (by default) lower one ``.qasm`` file.

    The circuit is named after the file's base name, so results and cache
    fingerprints key on the file identity plus its full gate content.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise QasmImportError(
            f"cannot read QASM file: {exc}", filename=str(path)
        ) from None
    stem = os.path.splitext(os.path.basename(str(path)))[0] or "circuit"
    circuit = parse_qasm(text, name=stem, filename=str(path))
    if transpile:
        lowered = transpile_to_clifford_rz(circuit)
        lowered.name = circuit.name
        return lowered
    return circuit
