"""The public API is what the checks and the CLI use.

Every public function, class and method defined in `src/cliffqp/` must be
referenced by name from some package module other than `__init__`, or be
one of the ORACLES: code the tests keep as an independent route to what
the checks compute.  A function or class counts as referenced when its
name is read or imported; a method, when an attribute of that name is
read.  The scan goes by name only, so a method shares its references with
every other method of the same name.
"""

import ast
from pathlib import Path

import cliffqp

PACKAGE = Path(cliffqp.__file__).resolve().parent

ORACLES = (
    # field elimination: the oracle for the tau-orbit bases of Alt and Sym
    "linalg.rref",
    "linalg.rank",
    "linalg.kernel_basis",
    "linalg.image_basis",
    "linalg.in_span",
    # the inverse of MonomialBasis.decompose
    "clifford.MonomialBasis.recompose",
    # independent builds of the generator matrices
    "exterior.left_mult_matrix",
    "exterior.contraction_matrix",
    # test helpers
    "linalg.mat_vec",
    "linalg.Matrix.from_rows",
    # the n <= 4 monomial route for the group action, which conjugation by
    # lifts replaced in the checks; perfbench's tracer targets name it, so it
    # stays until the benchmark's TARGETS are revised (ROADMAP item 4)
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
