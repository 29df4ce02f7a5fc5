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
            if not isinstance(func, ast.FunctionDef):
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


def _calls(node, func="<module>"):
    """(innermost enclosing function name, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield func, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _calls(child, inner)


def _opens_for_writing(call):
    """Whether ``call`` is an ``open`` whose mode is not a read-only literal."""
    name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (
        isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))


def test_only_the_two_writers_open_files_for_writing():
    # atomic_writer writes every output file and run_experiment holds the
    # one report handle; any other function that opens a file to write or
    # append is a second writer with its own rules
    found = [f"{path.name}:{call.lineno} ({func})"
             for path in sorted((ROOT / "src" / "parafbm").glob("*.py"))
             for func, call in _calls(ast.parse(path.read_text()))
             if _opens_for_writing(call) and func not in ("atomic_writer", "run_experiment")]
    assert not found, f"files opened for writing outside the two writers at {found}"


def test_one_gaussian_route_per_factorisation():
    # every conditional variance goes through one eigh and every detcov margin
    # through one det, so a per-config function and a sweep cannot drift apart;
    # detcov_chain_identity's direct determinant is its second route on purpose
    allowed = {"eigh": {"_conditional_variances"},
               "det": {"_detcov_margins", "detcov_chain_identity"}}
    found = [f"{path.name}:{call.lineno} ({func})"
             for path in sorted((ROOT / "src" / "parafbm").glob("*.py"))
             for func, call in _calls(ast.parse(path.read_text()))
             if isinstance(call.func, ast.Attribute) and call.func.attr in allowed
                and ast.unparse(call.func.value).endswith("linalg")
                and not (path.name == "gaussian.py" and func in allowed[call.func.attr])]
    assert not found, f"np.linalg.eigh or det called outside the Gaussian kernels at {found}"


def test_one_spectral_route():
    # every circulant sample goes through one irfft and every embedding
    # spectrum through one hfft, both in fbm, so no second FFT route can drift
    allowed = {"irfft": "_circulant_increments", "hfft": "_fgn_circulant_eigenvalues"}
    calls = [(path.name, func, call.func.attr)
             for path in sorted((ROOT / "src" / "parafbm").glob("*.py"))
             for func, call in _calls(ast.parse(path.read_text()))
             if isinstance(call.func, ast.Attribute) and call.func.attr in allowed
                and ast.unparse(call.func.value).endswith("fft")]
    assert sorted(calls) == sorted(("fbm.py", func, name) for name, func in allowed.items()), (
        f"np.fft.irfft or hfft called outside its one fbm kernel: {calls}")
