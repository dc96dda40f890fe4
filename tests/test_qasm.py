"""Tests for the OpenQASM 2.0 importer (lexer, parser, lowering, errors)."""

import math

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from repro.circuits import (
    BASIS,
    Circuit,
    Gate,
    GateType,
    QasmImportError,
    import_qasm_file,
    parse_qasm,
    to_qasm,
    transpile_to_clifford_rz,
)
from repro.workloads import resolve_benchmark


def header(*lines: str) -> str:
    return "\n".join(('OPENQASM 2.0;', 'include "qelib1.inc";') + lines) + "\n"


class TestRegisters:
    def test_multiple_qregs_map_onto_flat_offsets(self):
        circuit = parse_qasm(header(
            "qreg a[2];", "qreg b[3];", "x a[1];", "x b[0];"))
        assert circuit.num_qubits == 5
        assert [gate.qubits for gate in circuit] == [(1,), (2,)]

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmImportError, match="declares no qreg"):
            parse_qasm('OPENQASM 2.0;\ncreg c[2];\n')

    def test_zero_size_register_rejected(self):
        with pytest.raises(QasmImportError, match="positive size"):
            parse_qasm('OPENQASM 2.0;\nqreg q[0];\n')

    def test_duplicate_register_rejected(self):
        with pytest.raises(QasmImportError, match="declared twice"):
            parse_qasm('OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\n')

    def test_index_out_of_range_reports_position(self):
        with pytest.raises(QasmImportError) as excinfo:
            parse_qasm(header("qreg q[2];", "x q[7];"))
        assert excinfo.value.line == 4
        assert "out of range" in str(excinfo.value)


class TestGateCalls:
    def test_register_broadcast(self):
        circuit = parse_qasm(header("qreg q[3];", "h q;"))
        assert [gate.qubits for gate in circuit] == [(0,), (1,), (2,)]
        assert all(gate.gate_type is GateType.H for gate in circuit)

    def test_two_register_broadcast(self):
        circuit = parse_qasm(header("qreg a[2];", "qreg b[2];", "cx a,b;"))
        assert [gate.qubits for gate in circuit] == [(0, 2), (1, 3)]

    def test_mixed_broadcast_single_against_register(self):
        circuit = parse_qasm(header(
            "qreg a[1];", "qreg b[3];", "cx a[0],b;"))
        assert [gate.qubits for gate in circuit] == [(0, 1), (0, 2), (0, 3)]

    def test_broadcast_hitting_duplicate_operand_rejected(self):
        # cx q[0],q broadcasts to cx q[0],q[0] first, which OpenQASM forbids.
        with pytest.raises(QasmImportError, match="duplicate qubit"):
            parse_qasm(header("qreg q[3];", "cx q[0],q;"))

    def test_broadcast_size_mismatch_rejected(self):
        with pytest.raises(QasmImportError, match="different sizes"):
            parse_qasm(header("qreg a[2];", "qreg b[3];", "cx a,b;"))

    def test_duplicate_operand_rejected(self):
        with pytest.raises(QasmImportError, match="duplicate qubit"):
            parse_qasm(header("qreg q[2];", "cx q[1],q[1];"))

    def test_unknown_gate_suggests_neighbours(self):
        with pytest.raises(QasmImportError, match="did you mean"):
            parse_qasm(header("qreg q[1];", "hh q[0];"))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(QasmImportError, match="takes 1 parameter"):
            parse_qasm(header("qreg q[1];", "rz(0.1,0.2) q[0];"))

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(QasmImportError, match="acts on 2 qubit"):
            parse_qasm(header("qreg q[3];", "cx q[0],q[1],q[2];"))


class TestQelib1Lowering:
    def run_one(self, call: str, qubits: int = 3) -> Circuit:
        return parse_qasm(header(f"qreg q[{qubits}];", call))

    def test_u1_is_rz(self):
        circuit = self.run_one("u1(0.25) q[0];")
        assert [g.gate_type for g in circuit] == [GateType.RZ]
        assert circuit[0].angle == pytest.approx(0.25)

    def test_u3_lowered_to_rz_ry_rz(self):
        circuit = self.run_one("u3(0.1,0.2,0.3) q[0];")
        assert [g.gate_type for g in circuit] == [
            GateType.RZ, GateType.RY, GateType.RZ]
        assert circuit[0].angle == pytest.approx(0.3)  # lambda first
        assert circuit[2].angle == pytest.approx(0.2)

    def test_builtin_U_matches_u3(self):
        a = self.run_one("U(0.1,0.2,0.3) q[0];")
        b = self.run_one("u3(0.1,0.2,0.3) q[0];")
        assert a == b

    def test_id_emits_nothing(self):
        assert len(self.run_one("id q[0];")) == 0

    def test_cu1_uses_half_angle_conjugation(self):
        circuit = self.run_one("cu1(0.8) q[0],q[1];")
        kinds = [g.gate_type for g in circuit]
        assert kinds == [GateType.RZ, GateType.CNOT, GateType.RZ,
                         GateType.CNOT, GateType.RZ]
        assert circuit[0].angle == pytest.approx(0.4)
        assert circuit[2].angle == pytest.approx(-0.4)

    def test_cp_is_cu1_alias(self):
        assert (self.run_one("cp(0.8) q[0],q[1];")
                == self.run_one("cu1(0.8) q[0],q[1];"))

    def test_crz_conjugates_target_only(self):
        circuit = self.run_one("crz(0.6) q[0],q[1];")
        assert all(gate.qubits[-1] == 1 for gate in circuit)

    def test_cswap_expands_through_toffoli(self):
        circuit = self.run_one("cswap q[0],q[1],q[2];")
        assert GateType.CCX in [g.gate_type for g in circuit]

    def test_every_lowering_lands_in_transpilable_vocabulary(self):
        calls = ["x q[0];", "y q[0];", "z q[0];", "h q[0];", "s q[0];",
                 "sdg q[0];", "t q[0];", "tdg q[0];", "rx(0.1) q[0];",
                 "ry(0.2) q[0];", "rz(0.3) q[0];", "u1(0.1) q[0];",
                 "u2(0.1,0.2) q[0];", "u3(0.1,0.2,0.3) q[0];", "p(0.4) q[0];",
                 "cx q[0],q[1];", "cz q[0],q[1];", "cy q[0],q[1];",
                 "ch q[0],q[1];", "swap q[0],q[1];", "crz(0.5) q[0],q[1];",
                 "cu1(0.5) q[0],q[1];", "cu3(0.1,0.2,0.3) q[0],q[1];",
                 "rzz(0.5) q[0],q[1];", "ccx q[0],q[1],q[2];",
                 "cswap q[0],q[1],q[2];"]
        circuit = self.run_one("\n".join(calls))
        lowered = transpile_to_clifford_rz(circuit)
        assert all(gate.gate_type in BASIS for gate in lowered)


class TestGateMacros:
    def test_macro_expansion_substitutes_params_and_qubits(self):
        circuit = parse_qasm(header(
            "gate twist(theta) a,b { cx a,b; rz(theta/2) b; cx a,b; }",
            "qreg q[4];",
            "twist(0.8) q[2],q[0];",
        ))
        assert [g.gate_type for g in circuit] == [
            GateType.CNOT, GateType.RZ, GateType.CNOT]
        assert circuit[0].qubits == (2, 0)
        assert circuit[1].qubits == (0,)
        assert circuit[1].angle == pytest.approx(0.4)

    def test_macros_nest(self):
        circuit = parse_qasm(header(
            "gate inner a { h a; }",
            "gate outer a,b { inner a; cx a,b; inner b; }",
            "qreg q[2];",
            "outer q[0],q[1];",
        ))
        assert [g.gate_type for g in circuit] == [
            GateType.H, GateType.CNOT, GateType.H]

    def test_macro_body_barrier_is_dropped(self):
        circuit = parse_qasm(header(
            "gate noisy a { h a; barrier a; h a; }",
            "qreg q[1];",
            "noisy q[0];",
        ))
        assert [g.gate_type for g in circuit] == [GateType.H, GateType.H]

    def test_recursive_macro_rejected(self):
        with pytest.raises(QasmImportError, match="recursive"):
            parse_qasm(header(
                "gate loop a { loop a; }",
                "qreg q[1];",
                "loop q[0];",
            ))

    def test_macro_unknown_operand_rejected(self):
        with pytest.raises(QasmImportError, match="unknown qubit argument"):
            parse_qasm(header("gate bad a { h b; }", "qreg q[1];"))

    def test_duplicate_macro_rejected(self):
        with pytest.raises(QasmImportError, match="defined twice"):
            parse_qasm(header(
                "gate g1 a { h a; }", "gate g1 a { x a; }", "qreg q[1];"))

    def test_macro_applied_to_duplicate_operands_rejected(self):
        with pytest.raises(QasmImportError, match="duplicate qubit"):
            parse_qasm(header(
                "gate twice a,b { h a; h b; }", "qreg q[2];", "twice q[0],q[0];"))

    def test_file_gate_shadows_builtin_but_not_inside_the_prelude(self):
        circuit = parse_qasm(header(
            "gate rz(t) a { rx(t) a; }",
            "qreg q[1];",
            "rz(0.5) q[0];",
            "u1(0.5) q[0];",
        ))
        # The file's rz replaces the builtin for the file's own calls; u1's
        # prelude body still means the GateType rz.
        assert [g.gate_type for g in circuit] == [GateType.RX, GateType.RZ]


class TestAngleExpressions:
    @pytest.mark.parametrize("expression,expected", [
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("3*pi/8", 3 * math.pi / 8),
        ("pi/2^2", math.pi / 4),
        ("2^3^2", 512.0),  # right-associative power
        ("(1+2)*0.5", 1.5),
        ("sin(pi/2)", 1.0),
        ("cos(0)", 1.0),
        ("sqrt(4)", 2.0),
        ("ln(exp(1))", 1.0),
        ("1e-3", 1e-3),
        ("-(0.25+0.25)", -0.5),
    ])
    def test_expression_values(self, expression, expected):
        circuit = parse_qasm(header("qreg q[1];", f"rz({expression}) q[0];"))
        assert circuit[0].angle == pytest.approx(expected)

    def test_division_by_zero_rejected(self):
        with pytest.raises(QasmImportError, match="division by zero"):
            parse_qasm(header("qreg q[1];", "rz(pi/0) q[0];"))

    @pytest.mark.parametrize("expression,needle", [
        ("(0-2)^0.5", "not a real number"),   # complex result
        ("0^(0-1)", "undefined"),             # ZeroDivisionError
        ("(1e200)^2", "undefined"),           # OverflowError
        ("1e308*1e308", "finite"),            # silent float overflow to inf
        ("exp(1000)", "undefined"),           # math.exp OverflowError
    ])
    def test_power_and_overflow_stay_inside_the_error_contract(
            self, expression, needle):
        with pytest.raises(QasmImportError, match=needle):
            parse_qasm(header("qreg q[1];", f"rz({expression}) q[0];"))

    def test_malformed_exponent_literal_rejected_with_position(self):
        with pytest.raises(QasmImportError) as excinfo:
            parse_qasm(header("qreg q[1];", "rz(1e+) q[0];"))
        assert "exponent has no digits" in str(excinfo.value)
        assert excinfo.value.line == 4

    def test_overlong_expression_rejected(self):
        chain = "+".join(["1"] * 5000)
        with pytest.raises(QasmImportError, match="nests too deeply"):
            parse_qasm(header("qreg q[1];", f"rz({chain}) q[0];"))

    @pytest.mark.parametrize("expression,needle", [
        ("1+", "ends unexpectedly"),
        ("2*(1+)", "unexpected '\\)'"),
        ("1 2", "unexpected '2'"),
        ("1==2", "unexpected '=='"),
        ("pi(2)", "unexpected '\\('"),
        ("sin(1,2)", "takes one argument"),
        ("sin", "requires parentheses"),
        ('"a"', "unexpected 'a'"),
    ])
    def test_malformed_expression_names_the_offending_token(
            self, expression, needle):
        with pytest.raises(QasmImportError, match=needle):
            parse_qasm(header("qreg q[1];", f"rz({expression}) q[0];"))

    def test_unknown_identifier_rejected(self):
        with pytest.raises(QasmImportError, match="unknown identifier"):
            parse_qasm(header("qreg q[1];", "rz(tau) q[0];"))

    def test_sqrt_of_negative_rejected(self):
        with pytest.raises(QasmImportError, match="undefined"):
            parse_qasm(header("qreg q[1];", "rz(sqrt(-1)) q[0];"))


class TestUnsupportedConstructs:
    @pytest.mark.parametrize("statement,needle", [
        ("if (c==1) x q[0];", "classical"),
        ("reset q[0];", "reset is not supported"),
        ("opaque mystery a;", "opaque"),
    ])
    def test_rejected_with_actionable_message(self, statement, needle):
        with pytest.raises(QasmImportError, match=needle):
            parse_qasm(header("qreg q[2];", "creg c[2];", statement))

    def test_only_qelib1_includable(self):
        with pytest.raises(QasmImportError, match="qelib1.inc"):
            parse_qasm('OPENQASM 2.0;\ninclude "mylib.inc";\nqreg q[1];\n')

    def test_unsupported_version_rejected(self):
        with pytest.raises(QasmImportError, match="version"):
            parse_qasm('OPENQASM 3.0;\nqreg q[1];\n')

    def test_error_carries_line_and_column(self):
        with pytest.raises(QasmImportError) as excinfo:
            parse_qasm('OPENQASM 2.0;\nqreg q[2];\nreset q[0];\n')
        assert excinfo.value.line == 3
        assert str(excinfo.value).startswith("<qasm>:3:")


class TestMeasureAndBarrier:
    def test_register_measure_broadcasts(self):
        circuit = parse_qasm(header(
            "qreg q[3];", "creg c[3];", "measure q -> c;"))
        assert [g.qubits for g in circuit] == [(0,), (1,), (2,)]
        assert all(g.gate_type is GateType.MEASURE for g in circuit)

    def test_measure_into_undeclared_creg_rejected(self):
        with pytest.raises(QasmImportError, match="not a declared creg"):
            parse_qasm(header("qreg q[1];", "measure q[0] -> c[0];"))

    def test_measure_into_smaller_creg_rejected(self):
        with pytest.raises(QasmImportError, match="smaller"):
            parse_qasm(header(
                "qreg q[3];", "creg c[2];", "measure q -> c;"))

    def test_measure_creg_index_out_of_range_rejected(self):
        with pytest.raises(QasmImportError, match="out of range for creg"):
            parse_qasm(header(
                "qreg q[1];", "creg c[1];", "measure q[0] -> c[9];"))

    @pytest.mark.parametrize("statement", [
        "measure q -> c[0];",
        "measure q[0] -> c;",
    ])
    def test_measure_mixed_register_and_bit_rejected(self, statement):
        with pytest.raises(QasmImportError, match="both"):
            parse_qasm(header("qreg q[3];", "creg c[3];", statement))

    def test_barrier_is_global(self):
        circuit = parse_qasm(header(
            "qreg q[2];", "h q;", "barrier q[0];", "cx q[0],q[1];"))
        barrier = circuit[2]
        assert barrier.gate_type is GateType.BARRIER
        assert barrier.qubits == ()


class TestImportFile:
    def test_import_names_circuit_after_file_and_lowers(self, tmp_path):
        path = tmp_path / "bell_pair.qasm"
        path.write_text(header("qreg q[2];", "h q[0];", "cz q[0],q[1];"))
        circuit = import_qasm_file(str(path))
        assert circuit.name == "bell_pair"
        assert all(gate.gate_type in BASIS for gate in circuit)

    def test_import_without_transpile_keeps_vocabulary(self, tmp_path):
        path = tmp_path / "raw.qasm"
        path.write_text(header("qreg q[2];", "cz q[0],q[1];"))
        circuit = import_qasm_file(str(path), transpile=False)
        assert [g.gate_type for g in circuit] == [GateType.CZ]

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(QasmImportError) as excinfo:
            import_qasm_file(str(tmp_path / "nope.qasm"))
        assert "cannot read" in str(excinfo.value)
        assert "nope.qasm" in str(excinfo.value)

    def test_parse_error_reports_filename(self, tmp_path):
        path = tmp_path / "broken.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nwarp q[0];\n")
        with pytest.raises(QasmImportError) as excinfo:
            import_qasm_file(str(path))
        assert str(path) in str(excinfo.value)
        assert excinfo.value.line == 3


def gate_strategy(num_qubits: int):
    single = st.sampled_from([GateType.H, GateType.X, GateType.S,
                              GateType.SDG, GateType.T, GateType.TDG])
    qubit = st.integers(0, num_qubits - 1)
    singles = st.builds(lambda k, q: Gate(k, (q,)), single, qubit)
    rotations = st.builds(
        lambda q, a: Gate(GateType.RZ, (q,), angle=a),
        qubit,
        st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
    )
    cnots = st.builds(
        lambda c, t: Gate(GateType.CNOT, (c, (c + 1 + t) % num_qubits)),
        qubit, st.integers(0, num_qubits - 2))
    return st.one_of(singles, rotations, cnots)


class TestRoundTrip:
    """The PR acceptance property: textio export -> QASM import is lossless."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_circuit_round_trips_through_qasm(self, data):
        num_qubits = data.draw(st.integers(2, 6))
        gates = data.draw(st.lists(gate_strategy(num_qubits), max_size=30))
        original = Circuit(num_qubits, name="prop", gates=gates)
        parsed = parse_qasm(to_qasm(original))
        assert parsed == original

    @pytest.mark.parametrize("name", [
        "scenario:clifford_t:n=8,depth=10,seed=3",
        "scenario:clifford_rz:n=8,depth=10,seed=3",
        "scenario:congestion:n=8,layers=3,seed=3",
    ])
    def test_generated_scenarios_round_trip(self, name):
        original = resolve_benchmark(name).build()
        # Scenario circuits are already in the scheduler basis, so the QASM
        # path reproduces them gate for gate (angles via exact float repr).
        reimported = transpile_to_clifford_rz(parse_qasm(to_qasm(original)))
        assert reimported == original


# -- random angle expressions --------------------------------------------------

_BINARY = {"+": (1, lambda a, b: a + b), "-": (1, lambda a, b: a - b),
           "*": (2, lambda a, b: a * b), "/": (2, lambda a, b: a / b),
           "^": (4, lambda a, b: a ** b)}
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
              "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
_ATOM = 5  # literals, pi, calls and parenthesised expressions

_leaves = st.one_of(
    st.just(("pi",)),
    st.integers(0, 40).map(lambda v: ("num", str(v))),
    st.floats(0, 1e6, allow_nan=False).map(lambda v: ("num", repr(v))),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("unary"), st.sampled_from("+-"), children),
        st.tuples(st.just("binary"), st.sampled_from(sorted(_BINARY)),
                  children, children),
        st.tuples(st.just("call"), st.sampled_from(sorted(_FUNCTIONS)),
                  children),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=10)


def _render(tree, wrap):
    """QASM text and precedence of ``tree``, with minimal parentheses.

    ``wrap`` draws whether to add redundant parentheses around a subtree.
    """
    kind = tree[0]
    if kind == "pi":
        text, level = "pi", _ATOM
    elif kind == "num":
        text, level = tree[1], _ATOM
    elif kind == "call":
        text, level = f"{tree[1]}({_render(tree[2], wrap)[0]})", _ATOM
    elif kind == "unary":
        inner, inner_level = _render(tree[2], wrap)
        if inner_level < 3:
            inner = f"({inner})"
        text, level = tree[1] + inner, 3
    else:
        level = _BINARY[tree[1]][0]
        left, left_level = _render(tree[2], wrap)
        right, right_level = _render(tree[3], wrap)
        if tree[1] == "^":
            # The base of a power is an atom; the exponent may be unary.
            left_bound, right_bound = _ATOM, 3
        else:
            left_bound, right_bound = level, level + 1
        if left_level < left_bound:
            left = f"({left})"
        if right_level < right_bound:
            right = f"({right})"
        text = f"{left}{tree[1]}{right}"
    if wrap():
        return f"({text})", _ATOM
    return text, level


def _evaluate(tree):
    """Python float evaluation of ``tree`` in the importer's operation order."""
    kind = tree[0]
    if kind == "pi":
        return math.pi
    if kind == "num":
        return float(tree[1])
    if kind == "call":
        return _FUNCTIONS[tree[1]](_evaluate(tree[2]))
    if kind == "unary":
        value = _evaluate(tree[2])
        return -value if tree[1] == "-" else value
    value = _BINARY[tree[1]][1](_evaluate(tree[2]), _evaluate(tree[3]))
    if isinstance(value, complex):
        raise ValueError("a negative base to a fractional power is not real")
    return value


def _outcome(tree):
    """Python's value for ``tree``, or ``None`` when it is no finite angle."""
    try:
        value = _evaluate(tree)
    except (ArithmeticError, ValueError):
        return None
    return value if math.isfinite(value) else None


class TestExpressionTrees:
    """Random expression trees, rendered to QASM, against Python arithmetic."""

    @seed(23)
    @settings(max_examples=400, deadline=2_000, derandomize=True,
              database=None)
    @given(tree=_trees, data=st.data())
    def test_angle_matches_python_evaluation_bitwise(self, tree, data):
        expected = _outcome(tree)
        assume(expected is not None)  # the error cases are the next test's
        text, _ = _render(tree, lambda: data.draw(st.booleans()))
        circuit = parse_qasm(header("qreg q[1];", f"rz({text}) q[0];"))
        assert float.hex(circuit[0].angle) == float.hex(expected)

    @seed(23)
    @settings(max_examples=100, deadline=2_000, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(tree=_trees, data=st.data())
    def test_undefined_expression_raises_import_error(self, tree, data):
        assume(_outcome(tree) is None)
        text, _ = _render(tree, lambda: data.draw(st.booleans()))
        with pytest.raises(QasmImportError):
            parse_qasm(header("qreg q[1];", f"rz({text}) q[0];"))
