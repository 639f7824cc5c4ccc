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
