"""Rules on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import spdtn

MODULES = sorted(Path(spdtn.__file__).parent.rglob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Runtime invariants raise real exceptions: ``python -O`` strips
    ``assert`` statements, and the check with them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    """Every name a module exports in ``__all__`` exists, so deleting a
    function also deletes its export."""
    module = importlib.import_module("spdtn" if path.stem == "__init__" else f"spdtn.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name} exports missing names {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_numpy_and_stdlib_only(path):
    """The package depends on numpy alone: every import names numpy, the
    package itself or a standard-library module, even where another
    library happens to be installed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in ("numpy", "spdtn") and top not in sys.stdlib_module_names:
                bad.append(f"{name} (line {node.lineno})")
    assert not bad, f"{path.name} imports {bad}"


EAGER_MODULES = ("circuits", "clifford", "paulis", "spd")


def test_root_imports_only_the_sparse_engine():
    """``import spdtn`` loads the modules a sparse run calls and no others:
    each module-level import of the package root is one of them, and every
    other exported name is listed in the lazy table (``spdtn._LAZY``), so a
    new export cannot bring an eager import back unnoticed."""
    init = Path(spdtn.__file__)
    tree = ast.parse(init.read_text(), filename=str(init))
    imported, bad = set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in EAGER_MODULES:
                imported.update(alias.asname or alias.name for alias in node.names)
            else:
                bad.append(f"line {node.lineno}")
    assert not bad, f"__init__.py has module-level imports of other modules at {bad}"
    assigned = {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert not imported & spdtn._LAZY.keys()
    assert not set(spdtn._LAZY.values()) & set(EAGER_MODULES)
    unbound = [
        name for name in spdtn.__all__
        if name not in imported | spdtn._LAZY.keys() | (assigned - {"__all__"})
    ]
    assert not unbound, f"exported but neither imported nor lazy: {unbound}"


def test_circuits_imports_no_other_package_module():
    """``circuits`` is the bottom layer: a gate is checked where it is
    built, so the module that builds gates needs nothing else from the
    package, and every engine reads the same gate."""
    path = Path(spdtn.__file__).parent / "circuits.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        bad += [
            f"{name} (line {node.lineno})" for name in names
            if name.startswith(".") or name.partition(".")[0] == "spdtn"
        ]
    assert not bad, f"circuits.py imports {bad}"


# The package's modules, lowest first: each may import only the ones before it.
STACK = ("paulis", "circuits", "clifford", "spd", "tensor", "bp", "tn", "oracle", "bench", "cli")


def _package_imports(path):
    """(line, module stem or "", names) of every import, at any depth of a
    module, from the package: relative, or absolute from ``spdtn``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if node.level or top == "spdtn":
                module = top if node.level else rest
                yield node.lineno, module.partition(".")[0], [a.name for a in node.names]


def test_stack_lists_every_module():
    assert set(STACK) == {p.stem for p in MODULES} - {"__init__"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.name)
def test_imports_follow_the_stack(path):
    """Every package import, at any depth of a module, names a module lower
    in ``STACK``, so the modules form a stack with no import cycle and no
    import needs hiding inside a function.  (``__init__`` loads the upper
    modules on first access, through ``importlib``.)"""
    below = set(STACK[: STACK.index(path.stem)])
    bad = [
        f"{stem} (line {line})"
        for line, module, names in _package_imports(path)
        for stem in ([module] if module else names) if stem not in below
    ]
    assert not bad, f"{path.name} imports modules not below it: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    """No module imports another module's ``_``-prefixed name: what two
    modules share is public, in the module it belongs to."""
    bad = [
        f"{name} (line {line})"
        for line, _, names in _package_imports(path)
        for name in names if name.startswith("_")
    ]
    assert not bad, f"{path.name} imports private names {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attributes_of_imports(path):
    """No module reads a ``_``-prefixed attribute of a name it imports from
    the package, such as another module's unchecked constructor: what a
    module uses of another is public."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("spdtn")):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.asname or "spdtn" for alias in node.names if alias.name.startswith("spdtn")
            )
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                bad.append(f"{ast.unparse(node)} (line {node.lineno})")
    assert not bad, f"{path.name} reads private attributes {bad}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "paulis"], ids=lambda p: p.name)
def test_only_paulis_converts_ints_and_bytes(path):
    """A word's bits and its packed row convert in one place,
    ``PauliWord.bits`` and ``PauliWord.from_bits``: no other module calls
    ``int.from_bytes`` or ``int.to_bytes``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes")
    ]
    assert not bad, f"{path.name} converts ints and bytes at lines {bad}"
