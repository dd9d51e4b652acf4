"""Public-name hygiene: every exported name exists where it is exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import foarith

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(foarith.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"foarith.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"foarith.{name}.__all__ lists missing names {missing}"


def _reexports():
    tree = ast.parse(Path(foarith.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_reexports_resolve():
    reexports = _reexports()
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"foarith.{module_name}")
        assert name in module.__all__, f"{name} is not public in foarith.{module_name}"
        assert getattr(foarith, name) is getattr(module, name)
