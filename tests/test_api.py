"""Public-name hygiene: every exported name exists where it is exported."""

import ast
import importlib
import importlib.util
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


def _load_benchmark_tracing():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    # A renamed attribute would silently zero the benchmark's per-layer metric.
    for name, targets, _, _ in _load_benchmark_tracing().SPANS:
        for target in targets:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"span {name}: {target} does not resolve"
