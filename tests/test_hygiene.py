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
#: Defaulted parameters whose callers all pass one literal, and why each
#: is still a parameter.
ONE_VALUE_PARAMETERS = {
    "synth.lower_givens(tag)": "a label naming its one caller's stage, not a switch of behaviour",
}
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


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, parameter, call position or None) of every parameter
    with a default, in every function and method of a module. The position
    counts call arguments, so a method's ``self`` is not one; a keyword-only
    parameter has none."""
    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                             for d in node.decorator_list)
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    yield (f"{prefix}{node.name}", positional[index].arg,
                           index - (1 if bound else 0))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{node.name}", arg.arg, None
                yield from visit(node.body, f"{prefix}{node.name}.", False)
    yield from visit(tree.body, "", False)


def _calls(sources) -> dict[str, list[ast.Call]]:
    """The calls of each called name (a plain name or an attribute) in some
    sources."""
    calls: dict[str, list[ast.Call]] = {}
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


#: What a ``*`` or ``**`` argument may pass: any value.
_HIDDEN = object()


def _argument(call: ast.Call, param: str, position):
    """The value a call passes for a parameter, by keyword or at its
    position; None when it passes none, :data:`_HIDDEN` when a ``*`` or
    ``**`` argument may pass it."""
    value = next((k.value for k in call.keywords if k.arg == param), None)
    if value is not None:
        return value
    if any(k.arg is None for k in call.keywords):
        return _HIDDEN
    if position is None:
        return None
    if any(isinstance(a, ast.Starred) for a in call.args):
        return _HIDDEN
    return call.args[position] if position < len(call.args) else None


def unpassed_defaults(modules: dict[str, str], callers=()) -> list[str]:
    """Defaulted parameters of ``modules`` (name -> source) that no call passes.

    A parameter is passed when a call of its function's name, in one of
    ``modules`` or in a ``callers`` source, gives it by keyword or reaches
    its position. Matching is by name, not by type, as in
    :func:`unreachable_definitions`.
    """
    calls = _calls((*modules.values(), *callers))
    unpassed = []
    for mod, src in modules.items():
        for qualname, param, position in _defaulted_parameters(ast.parse(src)):
            passed = any(_argument(call, param, position) is not None
                         for call in calls.get(qualname.rsplit(".", 1)[-1], ()))
            if not passed:
                unpassed.append(f"{mod}.{qualname}({param})")
    return sorted(unpassed)


def test_scan_detects_unpassed_defaults():
    lib = ("def load(path, mode='r', *, strict=False, cache=True):\n    return path\n\n"
           "def spread(a, b=1, c=2):\n    return a\n\n"
           "def splat(a, b=1):\n    return a\n\n"
           "class Box:\n"
           "    def fill(self, value=0, twice=False):\n        return value\n\n"
           "    @staticmethod\n"
           "    def make(size=1, kind='a'):\n        return size\n\n"
           "def outer(x=1):\n"
           "    def inner(y=2):\n        return y\n"
           "    return inner()\n")
    app = ("from lib import Box, load, spread, splat\n"
           "load('p', 'w', cache=False)\nspread(*[1, 2])\nsplat(1, **{})\n"
           "Box().fill(3)\nBox.make(2)\nouter()\n")
    assert unpassed_defaults({"lib": lib}, [app]) == [
        "lib.Box.fill(twice)", "lib.Box.make(kind)", "lib.load(strict)",
        "lib.outer(x)", "lib.outer.inner(y)"]


def test_defaulted_parameters_are_passed():
    """A default that no caller overrides is a constant, not a parameter."""
    modules = {p.stem: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    assert unpassed_defaults(modules, [p.read_text() for p in CALLERS]) == []


def _literal(value) -> str | None:
    """The repr of a literal argument; None for anything else."""
    try:
        return repr(ast.literal_eval(value))
    except ValueError:
        return None


def one_value_parameters(modules: dict[str, str], callers=(), exempt=()) -> list[str]:
    """Defaulted parameters of ``modules`` (name -> source) to which every
    call of their function's name, in one of ``modules`` or in a
    ``callers`` source, passes one and the same literal: such a parameter
    is a constant. Matching is by name, not by type, as in
    :func:`unpassed_defaults`.
    """
    calls = _calls((*modules.values(), *callers))
    constant = []
    for mod, src in modules.items():
        for qualname, param, position in _defaulted_parameters(ast.parse(src)):
            values = {_literal(_argument(call, param, position))
                      for call in calls.get(qualname.rsplit(".", 1)[-1], ())}
            name = f"{mod}.{qualname}({param})"
            if len(values) == 1 and None not in values and name not in exempt:
                constant.append(name)
    return sorted(constant)


def test_scan_detects_one_value_parameters():
    lib = ("def load(path, mode='r', *, strict=False, cache=True, size=None):\n"
           "    return path\n\n"
           "def spread(a, b=1, c=2):\n    return a\n\n"
           "class Box:\n"
           "    def fill(self, value=0, twice=False):\n        return value\n\n"
           "def tagged(x, tag=None):\n    return x\n\n"
           "def pick(a, kind='x'):\n    return a\n")
    app = ("from lib import Box, load, pick, spread, tagged\n"
           "load('p', 'w', strict=True, cache=False, size=3)\n"
           "load('q', mode='w', strict=True, size=n)\n"
           "spread(1, 5)\nspread(2, 5, c=3)\nspread(*[1, 2])\n"
           "Box().fill(-1.0, twice=True)\nBox().fill(-1.0, True)\n"
           "tagged(1, tag='first')\ntagged(2, tag='first')\npick(1, 'x')\npick(2)\n")
    assert one_value_parameters({"lib": lib}, [app]) == [
        "lib.Box.fill(twice)", "lib.Box.fill(value)", "lib.load(mode)", "lib.load(strict)",
        "lib.tagged(tag)"]
    assert "lib.tagged(tag)" not in one_value_parameters({"lib": lib}, [app],
                                                         exempt={"lib.tagged(tag)"})
    # one more caller with another value makes an option vary
    assert one_value_parameters({"lib": lib}, [app, "load('r', 'a', strict=False)\n"]) == [
        "lib.Box.fill(twice)", "lib.Box.fill(value)", "lib.tagged(tag)"]


def test_defaulted_parameters_take_more_than_one_value():
    """An option that every caller sets to the same literal is a constant."""
    modules = {p.stem: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    assert one_value_parameters(modules, [p.read_text() for p in CALLERS],
                                ONE_VALUE_PARAMETERS) == []


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
