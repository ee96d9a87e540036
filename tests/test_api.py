"""The public API is what the checks and the CLI use.

Every public function, class and method defined in `src/cliffqp/` must be
referenced by name from some package module other than `__init__`, or be
one of the ORACLES: code the tests keep as an independent route to what
the checks compute, which stays in the package only while the benchmark's
tracer names it.  A function or class counts as referenced when its
name is read or imported; a method, when an attribute of that name is
read.  The scan goes by name only, so a method shares its references with
every other method of the same name.
"""

import ast
import importlib.util
from pathlib import Path

import cliffqp

PACKAGE = Path(cliffqp.__file__).resolve().parent

# Oracles that stay in the package only because perfbench's tracer names
# them; every other oracle lives in tests/oracles.py.
ORACLES = (
    # span membership on `rref`: the oracle for the tau-orbit bases of Alt and Sym
    "linalg.SpanChecker",
    "linalg.SpanChecker.contains",
    # the n <= 4 monomial route for the group action, which conjugation by
    # lifts replaced in the checks
    "group.clifford_action",
)


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _public_definitions(modules: dict[str, ast.Module]) -> dict[str, str]:
    """Qualified name ('module.name' or 'module.Class.method') -> kind."""
    defs = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs[f"{mod}.{node.name}"] = "global"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{mod}.{node.name}.{item.name}"] = "method"
    return defs


def _references(modules: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """(names read or imported, attribute names read) across the modules."""
    names, attrs = set(), set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def test_every_public_definition_is_used_or_an_oracle():
    modules = _modules()
    defs = _public_definitions(modules)
    names, attrs = _references(modules)
    unused = []
    for qualified, kind in defs.items():
        name = qualified.rsplit(".", 1)[1]
        used = name in attrs if kind == "method" else name in names or name in attrs
        if not used and qualified not in ORACLES:
            unused.append(qualified)
    assert unused == [], f"public but used by no check, CLI path or oracle: {unused}"


def test_oracles_exist():
    defs = _public_definitions(_modules())
    assert [name for name in ORACLES if name not in defs] == []


def test_every_oracle_is_a_tracer_target():
    """What keeps an oracle in the package: a `TARGETS` entry of the
    benchmark's tracer with the same module and first path element."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(module, attrs[0]) for module, attrs in tracer.TARGETS.values()}
    assert [name for name in ORACLES if tuple(name.split(".")[:2]) not in traced] == []


def test_all_names_resolve():
    assert len(set(cliffqp.__all__)) == len(cliffqp.__all__)
    assert [name for name in cliffqp.__all__ if not hasattr(cliffqp, name)] == []


def test_modules_share_no_private_names():
    """One representation: no module imports an `_`-prefixed name from a
    sibling module, and only `linalg` reads a `Matrix`'s `_rows` or `_of`."""
    leaks = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("cliffqp")):
                leaks += [f"{mod} imports {alias.name}" for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in ("_rows", "_of") and mod != "linalg":
                leaks.append(f"{mod} reads .{node.attr}")
    assert leaks == []
