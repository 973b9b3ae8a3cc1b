"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list or in the package's re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import degenpop

MODULES = ("cli", "coeffs", "control", "discretize", "inequalities",
           "scenarios", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"degenpop.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(degenpop.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"degenpop.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(degenpop, alias.asname or alias.name) \
                is getattr(module, alias.name)
