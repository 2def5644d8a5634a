"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import jqpie

SOURCES = sorted(Path(jqpie.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
#: Code outside the package whose references keep a public name alive: the
#: acceptance tests and the benchmark. Unit tests do not count.
CALLERS = [Path(__file__).parent / "test_acceptance.py",
           *sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))]
#: Entry points that are called from outside Python.
ENTRY_POINTS = {"bench.main"}
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
#: Leading parameters the benchmark tracer's hooks read by name.
HOOK_PARAMETERS = {("jqpie.bench", "load_image"): ("path",),
                   ("jqpie.pipeline", "apply_circuit"): ("sv", "circuit")}


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


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of public top-level functions and classes and
    of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(tree: ast.Module) -> dict[str, list[tuple[int, bool]]]:
    """Where each name is read: (line, whether it is read as an attribute).

    Attributes reached from a module bound by a plain ``import`` statement
    (``np.linalg.norm``, ``json.dumps``) belong to that module and are skipped.
    """
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    refs: dict[str, list[tuple[int, bool]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id, []).append((node.lineno, False))
        elif isinstance(node, ast.Attribute) and _root_name(node) not in imported:
            refs.setdefault(node.attr, []).append((node.lineno, True))
    return refs


def unreachable_definitions(modules: dict[str, str], callers=(), exempt=()) -> list[str]:
    """Public definitions of ``modules`` (name -> source) that nothing uses.

    A use is a read of the name, outside the definition's own body, in one of
    ``modules`` or in a ``callers`` source; a method is used only when read as
    an attribute. Matching is by name, not by type: a method stays alive if
    any attribute of its name is read on any object.
    """
    refs = [(mod, _references(ast.parse(src))) for mod, src in modules.items()]
    refs += [(None, _references(ast.parse(src))) for src in callers]
    unused = []
    for mod, src in modules.items():
        for qualname, node in _public_definitions(ast.parse(src)):
            own = range(node.lineno, node.end_lineno + 1)
            is_method = "." in qualname
            used = any((as_attr or not is_method) and not (where == mod and line in own)
                       for where, r in refs for line, as_attr in r.get(node.name, ()))
            if not used and f"{mod}.{qualname}" not in exempt:
                unused.append(f"{mod}.{qualname}")
    return sorted(unused)


def test_scan_detects_unreachable_definitions():
    lib = ("import numpy as np\n\n"
           "def used():\n    return helper()\n\n"
           "def helper():\n    return 1\n\n"
           "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
           "def only_unit_tested():\n    return 2\n\n"
           "def main():\n    return 0\n\n"
           "class Box:\n"
           "    def kept(self):\n        return self.size() + np.linalg.norm([1.0])\n\n"
           "    def size(self):\n        return 0\n\n"
           "    def norm(self):\n        return 0\n\n"
           "    def _private(self):\n        return 3\n\n"
           "    def only_unit_tested_method(self):\n        return 4\n")
    app = "from lib import Box, used\nused()\nBox().kept()\n"
    assert unreachable_definitions({"lib": lib, "app": app}, exempt={"lib.main"}) == [
        "lib.Box.norm", "lib.Box.only_unit_tested_method", "lib.only_unit_tested",
        "lib.recursive"]
    unit_test = "from lib import only_unit_tested\nonly_unit_tested()\n"
    assert "lib.only_unit_tested" not in unreachable_definitions({"lib": lib}, [unit_test])


def test_public_definitions_are_reachable():
    modules = {p.stem: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    callers = [p.read_text() for p in CALLERS]
    assert unreachable_definitions(modules, callers, ENTRY_POINTS) == []


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_310(path):
    # 3.10 is the oldest interpreter in the CI matrix. This checks syntax only
    # (e.g. no ``except*``); library APIs added after 3.10 are not caught.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def tracer_contract_problems(wraps) -> list[str]:
    """Names the benchmark tracer wraps that no longer resolve to a callable,
    and hooked callables whose leading parameters were renamed. Either makes
    the tracer report its metrics as absent."""
    problems = []
    for module_name, attr, *_ in wraps:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if not callable(fn):
            problems.append(f"{module_name}.{attr} is not callable")
            continue
        expected = HOOK_PARAMETERS.get((module_name, attr))
        if expected:
            leading = tuple(inspect.signature(fn).parameters)[:len(expected)]
            if leading != expected:
                problems.append(f"{module_name}.{attr} takes {leading}, hook reads {expected}")
    return problems


def test_tracer_wraps_resolve():
    wraps = _load_tracing().WRAPS
    assert {(m, a) for m, a, *_ in wraps} >= set(HOOK_PARAMETERS)
    assert tracer_contract_problems(wraps) == []


def test_tracer_contract_detects_a_removed_name(monkeypatch):
    from jqpie import bench, pipeline
    wraps = _load_tracing().WRAPS
    monkeypatch.delattr(bench, "sparsity_stats")
    assert tracer_contract_problems(wraps) == ["jqpie.bench.sparsity_stats is not callable"]
    monkeypatch.setattr(pipeline, "apply_circuit", lambda state, circuit: state)
    assert tracer_contract_problems(wraps)[1:] == [
        "jqpie.pipeline.apply_circuit takes ('state', 'circuit'), hook reads ('sv', 'circuit')"]
