"""Rules on the package source itself."""

import ast
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
