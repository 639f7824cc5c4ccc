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
