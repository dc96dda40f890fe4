"""Every ``src/`` def is reached by a product path, or says why it stays.

A function or class counts as reached when its name is used somewhere in
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` outside its own
body: as a name, as an attribute load, or as a word inside a string literal
(perfbench resolves its trace targets from strings).  A def inside a class
body can only be reached through an attribute load (``x.name``) or a
string-literal word: a bare local variable that happens to share a method's
name does not call it.  Import lines,
``__all__`` lists, docstrings and comments do not count.  Tests do not
count either: code that only tests call is dead weight, so the scan below
fails and names it unless it is on :data:`ALLOWLIST` with a reason.

Run ``python tests/test_reachability.py`` for the full report.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PRODUCT_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: Qualified name (``module:Class.method``) -> why it stays unreached.
ALLOWLIST: Dict[str, str] = {
    "repro.workloads.scenarios:scenario_sweep_names":
        "public API: README's scenario-sweep section documents it",
    "repro.circuits.dag:GateDependencyGraph.critical_path_length":
        "ROADMAP item 3 names its caller (the invariant checker's bound)",
    "repro.cluster.harness:ClusterHarness.router_url":
        "ClusterHarness surface: perfbench drives the harness, kept whole",
    "repro.cluster.harness:ClusterHarness.set_fault_plan":
        "ClusterHarness surface: perfbench drives the harness, kept whole",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition(NamedTuple):
    qualname: str
    path: Path
    first: int
    last: int
    #: Defined directly in a class body (a method, property or nested class).
    member: bool

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2].rpartition(":")[2]

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _python_files() -> Iterator[Path]:
    for top in PRODUCT_DIRS:
        yield from sorted((ROOT / top).rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _docstring_nodes(tree: ast.AST) -> Set[int]:
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skip.add(id(body[0].value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                skip.update(id(sub) for sub in ast.walk(node))
    return skip


def _references(path: Path,
                tree: ast.AST) -> Iterator[Tuple[str, int, bool]]:
    """Yield ``(word, line, bare)`` for every use of a name in ``tree``.

    ``bare`` marks a plain name (``x``), which cannot reach a class member.
    """
    skip = _docstring_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                yield node.attr, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            for word in _WORD.findall(node.value):
                yield word, node.lineno, False


def _definitions(path: Path, tree: ast.AST) -> Iterator[Definition]:
    module = _module_name(path)

    def walk(node: ast.AST, prefix: str,
             in_class: bool) -> Iterator[Definition]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                yield Definition(f"{module}:{qualname}", path,
                                 child.lineno, child.end_lineno, in_class)
                yield from walk(child, qualname,
                                isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, prefix, in_class)

    yield from walk(tree, "", False)


def scan() -> List[Definition]:
    """Return every ``src/`` def whose name no product path uses."""
    uses: Dict[str, List[Tuple[Path, int, bool]]] = {}
    definitions: List[Definition] = []
    for path in _python_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for word, line, bare in _references(path, tree):
            uses.setdefault(word, []).append((path, line, bare))
        if path.is_relative_to(ROOT / "src"):
            definitions.extend(_definitions(path, tree))

    def reached(definition: Definition) -> bool:
        name = definition.name
        if name.startswith("__") and name.endswith("__"):
            return True  # called by the language
        return any((path != definition.path
                    or not definition.first <= line <= definition.last)
                   and not (bare and definition.member)
                   for path, line, bare in uses.get(name, ()))

    return [d for d in definitions if not reached(d)]


@pytest.fixture(scope="module")
def unreached() -> List[Definition]:
    return scan()


def test_every_src_def_is_reached_or_allowlisted(unreached):
    missing = [d for d in unreached if d.qualname not in ALLOWLIST]
    assert not missing, (
        "these src/ defs are reached by no product path (src/, benchmarks/, "
        "perfbench/, examples/); delete them, or add them to ALLOWLIST in "
        "tests/test_reachability.py with a one-line reason:\n"
        + "\n".join(f"  {d.qualname} ({d.path.relative_to(ROOT)}:{d.first})"
                    for d in missing))


def test_allowlist_has_no_stale_entries(unreached):
    stale = sorted(set(ALLOWLIST) - {d.qualname for d in unreached})
    assert not stale, (
        "ALLOWLIST names defs that are gone or now reached; remove: "
        + ", ".join(stale))


if __name__ == "__main__":
    found = scan()
    for d in found:
        tag = "allowlisted" if d.qualname in ALLOWLIST else "UNREACHED"
        print(f"{tag:12} {d.lines:4}  {d.qualname}")
    print(f"{len(found)} defs, {sum(d.lines for d in found)} lines")
