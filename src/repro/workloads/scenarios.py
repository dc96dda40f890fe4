"""Seeded, parameterized scenario generators: an open-ended workload frontier.

Table 3 freezes the benchmark suite at ten algorithm families.  This module
opens the scenario space with generator *families* whose circuits are fully
determined by a (small, validated) parameter set plus a seed:

``clifford_t``
    Random Clifford+T circuits with tunable depth, T-gate density, CNOT
    fraction and two-qubit connectivity — the standard random-circuit model
    for fault-tolerant cost studies.

``clifford_rz``
    The continuous-angle variant: random Clifford+Rz circuits whose Rz
    density directly controls magic-state (|m_theta>) pressure, the resource
    the paper's scheduler manages.

``congestion``
    Adversarial layered patterns that stress the MST/routing hot paths:
    every layer issues all "crossing" CNOTs (qubit ``i`` with ``n-1-i``, so
    every route contends for the central ancilla region) followed by an Rz
    storm on a rotating hotspot window (concentrated injection demand).

Scenarios are addressed by *name*::

    scenario:clifford_t:n=16,depth=24,t_density=0.3,seed=7

The name grammar is ``scenario:<family>[:key=value,...]``; omitted keys take
the family defaults.  Names resolve anywhere a benchmark name does — in
``ExperimentSpec.benchmarks``, on ``rescq run`` and via ``rescq gen`` — and
because the execution engine fingerprints the full generated gate content,
changing any parameter or the seed is a cache miss while repeating a name is
a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..api.registry import Registry, UnknownEntryError
from ..circuits import Circuit, Gate, GateType, transpile_to_clifford_rz
from .registry import BenchmarkSpec, register_benchmark

__all__ = [
    "ScenarioError",
    "ScenarioParameter",
    "ScenarioFamily",
    "SCENARIO_FAMILIES",
    "CURATED_SCENARIOS",
    "scenario_name",
    "parse_scenario_name",
    "scenario_benchmark",
    "scenario_sweep_names",
    "clifford_t_circuit",
    "clifford_rz_circuit",
    "congestion_circuit",
]


class ScenarioError(ValueError):
    """A scenario name or parameter set does not describe a buildable circuit."""


@dataclass(frozen=True)
class ScenarioParameter:
    """One tunable knob of a scenario family (type, default, bounds)."""

    name: str
    kind: type  # int or float
    default: object
    minimum: object = None
    maximum: object = None
    help: str = ""

    def parse(self, text: str, family: str) -> object:
        try:
            if self.kind is int:
                value = int(text)
            else:
                value = float(text)
        except ValueError:
            raise ScenarioError(
                f"scenario {family!r} parameter {self.name!r} expects "
                f"{self.kind.__name__}, got {text!r}"
            ) from None
        return self.check(value, family)

    def check(self, value: object, family: str) -> object:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(
                f"scenario {family!r} parameter {self.name!r} expects "
                f"{self.kind.__name__}, got {value!r}"
            )
        if self.kind is int and not isinstance(value, int):
            if float(value).is_integer():
                value = int(value)
            else:
                raise ScenarioError(
                    f"scenario {family!r} parameter {self.name!r} expects an "
                    f"integer, got {value!r}"
                )
        value = self.kind(value)
        if self.minimum is not None and value < self.minimum:
            raise ScenarioError(
                f"scenario {family!r} parameter {self.name!r} must be "
                f">= {self.minimum}, got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ScenarioError(
                f"scenario {family!r} parameter {self.name!r} must be "
                f"<= {self.maximum}, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class ScenarioFamily:
    """A named generator plus its parameter schema."""

    name: str
    description: str
    parameters: Tuple[ScenarioParameter, ...]
    builder: Callable[..., Circuit]

    def parameter(self, name: str) -> ScenarioParameter:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        known = [parameter.name for parameter in self.parameters]
        raise ScenarioError(
            f"scenario family {self.name!r} has no parameter {name!r}; "
            f"parameters: {known}"
        )

    def defaults(self) -> Dict[str, object]:
        return {parameter.name: parameter.default for parameter in self.parameters}

    def resolve(self, overrides: Dict[str, object]) -> Dict[str, object]:
        """Defaults merged with validated ``overrides`` (unknown keys error)."""
        params = self.defaults()
        for key, value in overrides.items():
            parameter = self.parameter(key)
            params[key] = parameter.check(value, self.name)
        return params

    def build(self, **params: object) -> Circuit:
        resolved = self.resolve(params)
        return self.builder(**resolved)


#: Registered scenario generator families (``rescq gen --list``).
SCENARIO_FAMILIES: Registry = Registry("scenario family")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _partner_pool(
    qubit: int, num_qubits: int, used: set, connectivity: int
) -> List[int]:
    """CNOT partners for ``qubit`` under the connectivity constraint.

    ``connectivity`` bounds the index distance of a two-qubit gate (a proxy
    for routing distance on the STAR fabric's snake-ordered data row);
    ``0`` means unrestricted.
    """
    partners = []
    for other in range(num_qubits):
        if other == qubit or other in used:
            continue
        if connectivity and abs(other - qubit) > connectivity:
            continue
        partners.append(other)
    return partners


def _random_layered_circuit(
    name: str,
    num_qubits: int,
    depth: int,
    cx_fraction: float,
    connectivity: int,
    seed: int,
    single_qubit: Callable[[np.random.Generator, int], Gate],
) -> Circuit:
    """Shared skeleton: per layer, each qubit gets one gate (CNOT or 1q)."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, name=name)
    for _layer in range(depth):
        used: set = set()
        for qubit in (int(q) for q in rng.permutation(num_qubits)):
            if qubit in used:
                continue
            if rng.random() < cx_fraction:
                partners = _partner_pool(qubit, num_qubits, used, connectivity)
                if partners:
                    partner = partners[int(rng.integers(len(partners)))]
                    pair = (qubit, partner) if rng.random() < 0.5 else (partner, qubit)
                    circuit.append(Gate(GateType.CNOT, pair))
                    used.update(pair)
                    continue
            circuit.append(single_qubit(rng, qubit))
            used.add(qubit)
    return circuit


def clifford_t_circuit(
    n: int,
    depth: int,
    t_density: float = 0.25,
    cx_fraction: float = 0.35,
    connectivity: int = 0,
    seed: int = 0,
    transpile: bool = True,
) -> Circuit:
    """Random Clifford+T circuit: ``depth`` layers over ``n`` qubits."""

    def single_qubit(rng: np.random.Generator, qubit: int) -> Gate:
        if rng.random() < t_density:
            kind = GateType.T if rng.random() < 0.5 else GateType.TDG
            return Gate(kind, (qubit,))
        kind = (GateType.H, GateType.S, GateType.X)[int(rng.integers(3))]
        return Gate(kind, (qubit,))

    circuit = _random_layered_circuit(
        f"clifford_t_n{n}", n, depth, cx_fraction, connectivity, seed, single_qubit
    )
    return transpile_to_clifford_rz(circuit) if transpile else circuit


def clifford_rz_circuit(
    n: int,
    depth: int,
    rz_density: float = 0.4,
    cx_fraction: float = 0.35,
    connectivity: int = 0,
    seed: int = 0,
    transpile: bool = True,
) -> Circuit:
    """Random Clifford+Rz circuit with continuous (non-Clifford) angles."""

    def single_qubit(rng: np.random.Generator, qubit: int) -> Gate:
        if rng.random() < rz_density:
            angle = float(rng.uniform(0.05, 2.0 * np.pi - 0.05))
            return Gate(GateType.RZ, (qubit,), angle=angle)
        kind = (GateType.H, GateType.S, GateType.X)[int(rng.integers(3))]
        return Gate(kind, (qubit,))

    circuit = _random_layered_circuit(
        f"clifford_rz_n{n}", n, depth, cx_fraction, connectivity, seed, single_qubit
    )
    return transpile_to_clifford_rz(circuit) if transpile else circuit


def congestion_circuit(
    n: int,
    layers: int = 4,
    hotspot: float = 0.34,
    seed: int = 0,
    transpile: bool = True,
) -> Circuit:
    """Adversarial congestion pattern stressing MST construction and routing.

    Each layer issues every *crossing* CNOT — qubit ``i`` with ``n-1-i`` —
    in a seeded random order, so all in-flight routes pull toward the same
    central ancilla tiles and the MST repeatedly rebuilds over a contended
    region.  The layer then fires two continuous Rz rotations on every qubit
    of a hotspot window (``hotspot`` fraction of the register, rotating by
    one window per layer), concentrating |m_theta> preparation demand on a
    moving patch of the fabric.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(n, name=f"congestion_n{n}")
    window = max(2, int(round(hotspot * n)))
    for layer in range(layers):
        pairs = [(i, n - 1 - i) for i in range(n // 2)]
        for index in (int(i) for i in rng.permutation(len(pairs))):
            control, target = pairs[index]
            if rng.random() < 0.5:
                control, target = target, control
            circuit.append(Gate(GateType.CNOT, (control, target)))
        start = (layer * window) % n
        for offset in range(window):
            qubit = (start + offset) % n
            for _rep in range(2):
                angle = float(rng.uniform(0.05, 2.0 * np.pi - 0.05))
                circuit.append(Gate(GateType.RZ, (qubit,), angle=angle))
    return transpile_to_clifford_rz(circuit) if transpile else circuit


def _int_param(name: str, default: int, minimum: int, help_text: str):
    return ScenarioParameter(name, int, default, minimum=minimum, help=help_text)


def _fraction_param(name: str, default: float, help_text: str):
    return ScenarioParameter(
        name, float, default, minimum=0.0, maximum=1.0, help=help_text
    )


SCENARIO_FAMILIES.register(
    "clifford_t",
    ScenarioFamily(
        name="clifford_t",
        description="random Clifford+T layers (tunable T density/connectivity)",
        parameters=(
            _int_param("n", 12, 2, "number of logical qubits"),
            _int_param("depth", 16, 1, "number of gate layers"),
            _fraction_param("t_density", 0.25, "probability a 1q gate is T/Tdg"),
            _fraction_param("cx_fraction", 0.35, "probability a slot seeds a CNOT"),
            _int_param("connectivity", 0, 0, "max CNOT index distance (0 = any)"),
            _int_param("seed", 0, 0, "generator seed"),
        ),
        builder=clifford_t_circuit,
    ),
)

SCENARIO_FAMILIES.register(
    "clifford_rz",
    ScenarioFamily(
        name="clifford_rz",
        description="random Clifford+Rz layers (continuous-angle injections)",
        parameters=(
            _int_param("n", 12, 2, "number of logical qubits"),
            _int_param("depth", 16, 1, "number of gate layers"),
            _fraction_param("rz_density", 0.4, "probability a 1q gate is an Rz"),
            _fraction_param("cx_fraction", 0.35, "probability a slot seeds a CNOT"),
            _int_param("connectivity", 0, 0, "max CNOT index distance (0 = any)"),
            _int_param("seed", 0, 0, "generator seed"),
        ),
        builder=clifford_rz_circuit,
    ),
)

SCENARIO_FAMILIES.register(
    "congestion",
    ScenarioFamily(
        name="congestion",
        description="crossing-CNOT + Rz-storm layers stressing MST/routing",
        parameters=(
            _int_param("n", 12, 4, "number of logical qubits"),
            _int_param("layers", 4, 1, "number of congestion layers"),
            _fraction_param("hotspot", 0.34, "fraction of qubits per Rz storm"),
            _int_param("seed", 0, 0, "generator seed"),
        ),
        builder=congestion_circuit,
    ),
)


# ---------------------------------------------------------------------------
# Scenario names: scenario:<family>[:key=value,...]
# ---------------------------------------------------------------------------

_PREFIX = "scenario:"


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def scenario_name(family: str, **params: object) -> str:
    """Canonical scenario name for ``family`` with ``params`` (keys sorted)."""
    spec = _get_family(family)
    resolved = spec.resolve(params)
    encoded = ",".join(
        f"{key}={_format_value(resolved[key])}" for key in sorted(resolved)
    )
    return f"{_PREFIX}{family}:{encoded}"


def _get_family(name: str) -> ScenarioFamily:
    try:
        return SCENARIO_FAMILIES.get(name)
    except UnknownEntryError:
        raise ScenarioError(
            f"unknown scenario family {name!r}; families: "
            f"{SCENARIO_FAMILIES.names()}"
        ) from None


def parse_scenario_name(name: str) -> Tuple[ScenarioFamily, Dict[str, object]]:
    """Split a ``scenario:...`` name into its family and full parameter set."""
    if not name.startswith(_PREFIX):
        raise ScenarioError(f"scenario names start with {_PREFIX!r}, got {name!r}")
    body = name[len(_PREFIX) :]
    family_name, _, param_text = body.partition(":")
    if not family_name:
        raise ScenarioError(
            f"scenario name {name!r} names no family; families: "
            f"{SCENARIO_FAMILIES.names()}"
        )
    family = _get_family(family_name)
    overrides: Dict[str, object] = {}
    if param_text:
        for item in param_text.split(","):
            key, equals, value_text = item.partition("=")
            key = key.strip()
            if not equals or not key or not value_text.strip():
                raise ScenarioError(
                    f"malformed scenario parameter {item!r} in {name!r}; "
                    f"use key=value pairs separated by commas"
                )
            if key in overrides:
                raise ScenarioError(
                    f"scenario parameter {key!r} appears twice in {name!r}"
                )
            parameter = family.parameter(key)
            overrides[key] = parameter.parse(value_text.strip(), family.name)
    return family, family.resolve(overrides)


def scenario_benchmark(name: str) -> BenchmarkSpec:
    """Wrap a scenario name as a :class:`BenchmarkSpec` (suite ``scenario``).

    ``paper_rz``/``paper_cnot`` are 0: generated scenarios have no Table 3
    row to compare against.
    """
    family, params = parse_scenario_name(name)
    return BenchmarkSpec(
        name=name,
        suite="scenario",
        num_qubits=int(params["n"]),
        paper_rz=0,
        paper_cnot=0,
        builder=lambda: family.builder(**params),
    )


def scenario_sweep_names(
    family: str, parameter: str, values: Sequence[object], **fixed: object
) -> List[str]:
    """Scenario names sweeping one generator parameter (a benchmark axis).

    The returned names drop into ``ExperimentSpec.benchmarks``, turning a
    generator knob (depth, T density, connectivity, seed, ...) into a sweep
    axis alongside the config grid::

        spec = ExperimentSpec(
            name="t-density-sweep",
            benchmarks=scenario_sweep_names(
                "clifford_t", "t_density", [0.1, 0.3, 0.5], n=16, depth=24
            ),
        )
    """
    spec = _get_family(family)
    spec.parameter(parameter)  # validate the swept knob exists
    names = []
    for value in values:
        params = dict(fixed)
        params[parameter] = value
        names.append(scenario_name(family, **params))
    return names


#: Curated instances pre-registered in the benchmark registry, so the
#: scenario engine is exercised by name without spelling out parameters.
CURATED_SCENARIOS: Tuple[str, ...] = (
    scenario_name("clifford_t", n=12, depth=16, seed=11),
    scenario_name("clifford_rz", n=12, depth=16, seed=11),
    scenario_name("congestion", n=12, layers=5, seed=11),
)

for _curated in CURATED_SCENARIOS:
    register_benchmark(scenario_benchmark(_curated))
