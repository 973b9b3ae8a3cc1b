"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list or in the package's re-exports, and every span name the
benchmark derives a per-layer metric from is still a callable."""

import ast
import importlib
import importlib.util
import sys
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


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ are used
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # the package __init__ imports only to re-export, checked above
    files = sorted(set(Path(degenpop.__file__).parent.glob("*.py"))
                   - {Path(degenpop.__file__)}) \
        + sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_names(monkeypatch) -> set:
    """Span names of every per-layer metric in perfbench/layers.py."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports spans
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = {layers.FORWARD, layers.ADJOINT, *layers.HUM, *layers.HARDY,
             *layers.ANNOTATORS}
    for table in (layers.INCLUSIVE, layers.SELF, layers.CALLS):
        for group in table.values():
            names |= group
    return names


def test_traced_span_names_resolve(monkeypatch):
    # a renamed function would silently read 0 in its per-layer metric
    names = _traced_names(monkeypatch)
    assert len(names) >= 25
    missing = []
    for name in sorted(names):
        module, *path = name.split(".")
        target = importlib.import_module(f"degenpop.{module}")
        for attr in path:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(name)
    assert missing == []
