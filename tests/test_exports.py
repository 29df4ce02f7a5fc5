"""Export guard: ``__all__`` lists only real names, and the package root
re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import parafbm

MODULES = sorted(m.name for m in pkgutil.iter_modules(parafbm.__path__))


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
