"""Export guard: ``__all__`` lists only real names, the package root
re-exports only names its modules declare public, and every public function
is reached from outside the unit tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import parafbm

MODULES = sorted(m.name for m in pkgutil.iter_modules(parafbm.__path__))

ROOT = Path(__file__).resolve().parents[1]


def _public(module):
    """The module's ``__all__``, or its names without a leading underscore."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


def _root_imports():
    """(module, name) for every ``from .module import name`` in parafbm/__init__.py."""
    tree = ast.parse(Path(parafbm.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"parafbm.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"parafbm.{name}.__all__ names missing attributes: {missing}"


def test_root_imports_are_declared_public():
    imports = _root_imports()
    assert imports
    undeclared = [f"{mod}.{name}" for mod, name in imports
                  if name not in _public(importlib.import_module(f"parafbm.{mod}"))]
    assert not undeclared, f"parafbm/__init__.py imports undeclared names: {undeclared}"


def _reaching_text(name):
    """The text of every file a public function of module ``name`` may be
    reached from: the other modules (not ``__init__``), the demos, README,
    the benchmark and the acceptance suite."""
    files = [p for p in (ROOT / "src" / "parafbm").glob("*.py")
             if p.stem not in (name, "__init__")]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
              *(ROOT / "perfbench").glob("*.md"),
              ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    return "\n".join(p.read_text() for p in files)


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_are_reached_outside_unit_tests(name):
    # classes are exempt: they are reached as return types; a function only
    # unit tests reach is deleted, or moved to tests/oracles.py if an oracle
    module = importlib.import_module(f"parafbm.{name}")
    text = _reaching_text(name)
    unreached = [n for n in getattr(module, "__all__", [])
                 if inspect.isfunction(getattr(module, n))
                 and not re.search(rf"\b{n}\b", text)]
    assert not unreached, (
        f"parafbm.{name} exports functions that only unit tests use: {unreached}")


def test_no_module_reads_the_histogram_cells_view():
    # OccupationHistogram.cells rebuilds a tuple dict on each read and stays
    # only for the benchmark's tracer; the package reads .index and .mass
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "parafbm").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "cells"]
    assert not reads, f"src/parafbm reads the benchmark-only .cells view at {reads}"


def test_only_fbm_imports_numbers():
    # fbm's validators are the one type check of a scalar; a module that
    # imports ``numbers`` is growing its own
    imports = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "parafbm").glob("*.py"))
               if path.name != "fbm.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.module == "numbers")]
    assert not imports, f"only fbm.py may import numbers; imported at {imports}"


#: functions that may convert a parameter with np.asarray(..., dtype=float):
#: a broadcasting kernel that runs on every path, on arrays the package built
_UNCHECKED_CONVERSIONS = {("fractals.py", "contains")}


def _is_input(node, params):
    """Whether ``node`` names a parameter of the enclosing function or a ``self.`` field."""
    return (isinstance(node, ast.Name) and node.id in params) or (
        isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "self")


def test_only_fbm_converts_array_inputs():
    # fbm.validate_reals is the one check of an array input; a module that
    # converts a parameter or a field with np.asarray(..., dtype=float) is
    # growing its own
    found = set()
    for path in sorted((ROOT / "src" / "parafbm").glob("*.py")):
        if path.name == "fbm.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef) or (
                    (path.name, func.name) in _UNCHECKED_CONVERSIONS):
                continue
            params = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
            found.update(
                f"{path.name}:{node.lineno}" for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("asarray", "array") and node.args
                and _is_input(node.args[0], params)
                and any(k.arg == "dtype" and ast.unparse(k.value) in ("float", "np.float64")
                        for k in node.keywords))
    assert not found, f"array inputs converted outside fbm.validate_reals at {sorted(found)}"
