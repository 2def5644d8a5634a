"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

import jqpie

SOURCES = sorted(Path(jqpie.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound by import statements, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items()
                  if name not in used)


def test_scan_detects_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(np.pi, pi)\n")
    assert unused_imports(source) == [("os", 2)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_310(path):
    # 3.10 is the oldest interpreter in the CI matrix. This checks syntax only
    # (e.g. no ``except*``); library APIs added after 3.10 are not caught.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
