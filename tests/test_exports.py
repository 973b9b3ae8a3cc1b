"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list or in the package's re-exports, every span name the
benchmark derives a per-layer metric from is still a callable whose
signature has every parameter the benchmark's annotators read, every
default of the package's functions is overridden by some caller in the
package, every ``**kwargs`` is filled by one, every method and private
name is read by the package, and the benchmark's own tests pass."""

import ast
import importlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from unittest import mock

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


def test_only_discretize_imports_csv():
    # one CSV writer for every artifact: discretize._write_csv
    importers = []
    for path in sorted(Path(degenpop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] \
                if isinstance(node, ast.Import) else [node.module] \
                if isinstance(node, ast.ImportFrom) else []
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["discretize.py"]


def test_no_unused_imports():
    # the package __init__ imports only to re-export, checked above
    files = sorted(set(Path(degenpop.__file__).parent.glob("*.py"))
                   - {Path(degenpop.__file__)}) \
        + sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers(monkeypatch):
    """perfbench/layers.py, loaded without writing bytecode."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports spans
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _resolve(name: str):
    module, *path = name.split(".")
    target = importlib.import_module(f"degenpop.{module}")
    for attr in path:
        target = getattr(target, attr, None)
    return target


def _traced_names(monkeypatch) -> set:
    """Span names of every per-layer metric in perfbench/layers.py."""
    layers = _layers(monkeypatch)
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
    assert [name for name in sorted(names)
            if not callable(_resolve(name))] == []


def test_annotated_parameters_exist(monkeypatch):
    # an annotator reads its parameters by name after the traced call
    # returns; a renamed parameter would fail every traced op, not a test
    layers = _layers(monkeypatch)
    read = []
    monkeypatch.setattr(layers, "argument", lambda fn, args, kwargs, name:
                        read.append(name) or mock.MagicMock())
    seen, missing = set(), []
    for name, annotate in sorted(layers.ANNOTATORS.items()):
        fn = _resolve(name)
        read.clear()
        annotate(fn, (), {}, mock.MagicMock())
        seen.update((name, arg) for arg in read)
        missing += [f"{name}({arg})" for arg in read
                    if arg not in inspect.signature(fn).parameters]
    assert missing == []
    assert {("inequalities.hardy_ratio", "n_quad"),
            ("inequalities.hardy_ratio", "test_functions"),
            ("inequalities.hardy_ratio_at_zero", "n_quad"),
            ("inequalities.hardy_ratio_at_zero", "test_functions"),
            ("solver.solve_forward", "spec"), ("solver.solve_adjoint", "spec"),
            ("inequalities.observability_ratio", "ensemble")} <= seen


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(degenpop.__file__).parent.glob("*.py"))
# (function, parameter) defaults that no package call sets, kept on purpose
KEPT_DEFAULTS = {
    ("solve_adjoint", "source"): "the seam through which the manufactured-"
                                 "pair tests check the sourced adjoint march",
    ("main", "argv"): "the console entry point calls main(), and argparse "
                      "then reads sys.argv",
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple]:
    """(name, position or None) of every parameter of ``fn`` with a
    default; positions count from the first argument a caller writes."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list) else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional)
           if i >= first]
    out += [(arg.arg, None) for arg, default
            in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None]
    return out


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) \
        else node.attr if isinstance(node, ast.Attribute) else None


def _call_sites() -> tuple[dict, dict]:
    """Per name, the keywords and the most positional arguments that
    calls of it in the package pass: an option that only tests or the
    benchmark set is one the program never needs.

    A name that is also read as a value (a function handed on, or stored
    in a table) may be called under another name with any argument, so it
    counts as passing every keyword, as ``**kwargs`` does (key None).
    """
    keywords, positions = defaultdict(set), defaultdict(int)
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        called = set()  # ids of this tree's called expressions
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _name(node.func)
                called.add(id(node.func))
                keywords[name].update(kw.arg for kw in node.keywords)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions[name] = max(positions[name], math.inf if starred
                                      else len(node.args))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load) \
                    and id(node) not in called:
                keywords[_name(node)].add(None)
    return keywords, positions


def _functions():
    """(path, class name or None, name calls use, def) of every module-level
    function and method of the package; closures are not scanned."""
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        scopes = [(None, node) for node in tree.body]
        scopes += [(cls.name, node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for node in cls.body]
        for cls, fn in scopes:
            if isinstance(fn, ast.FunctionDef):
                yield path, cls, cls if fn.name == "__init__" else fn.name, fn


def test_every_default_is_set():
    # a default no package call overrides is a constant in disguise:
    # generality nothing uses.  Names are matched, not resolved, so
    # functions of one name share their call sites.
    keywords, positions = _call_sites()
    unset, kept = [], set()
    for path, cls, called, fn in _functions():
        passed = keywords.get(called, set())
        for name, pos in _defaulted(fn, cls is not None):
            if name in passed or None in passed \
                    or (pos is not None and pos < positions.get(called, 0)):
                continue
            if (fn.name, name) in KEPT_DEFAULTS:
                kept.add((fn.name, name))
            else:
                unset.append(f"{path.name}:{fn.lineno} {fn.name}({name})")
    assert unset == []
    assert kept == set(KEPT_DEFAULTS)  # no stale entry


def test_every_kwargs_is_filled():
    # a **kwargs no call fills is an input form nothing uses: filled means
    # some call of the name passes a keyword outside the named parameters,
    # or passes **mapping, or the name is handed on as a value
    keywords, _ = _call_sites()
    unfilled = []
    for path, _, called, fn in _functions():
        if fn.args.kwarg is None:
            continue
        named = {arg.arg for arg in fn.args.posonlyargs + fn.args.args
                 + fn.args.kwonlyargs}
        if not keywords.get(called, set()) - named:
            unfilled.append(f"{path.name}:{fn.lineno} {fn.name}"
                            f"(**{fn.args.kwarg.arg})")
    assert unfilled == []


# functions in a module's __all__ that no package code calls, kept on purpose
KEPT_PUBLIC = {
    "weighted_norm": "the benchmark's tracer test (perfbench/"
                     "test_perfbench.py) asserts that inequalities re-"
                     "exports it; it goes with the benchmark's "
                     "weighted_norm metrics",
    "read_field_csv": "reads back the CSV snapshots that simulate, adjoint "
                      "and run write",
    "carleman_audit_nondeg": "the paper's Carleman estimate for a "
                             "non-degenerate k, a library audit no preset "
                             "selects",
    "characteristic_consistency": "a check of the adjoint march against "
                                  "its characteristics at every node",
    "energy_audit": "the acceptance check of the forward march's energy "
                    "estimate",
    "manufactured_adjoint": "the exact (v, f) pair of any profile callable; "
                            "manufactured_family builds its own sine family "
                            "as one batch",
    "random_adjoint_profiles": "manufactured_family's samples as grid-free "
                               "closures, to evaluate on several grids",
}


def _loaded_names() -> set:
    """Names the package's code reads, each outside the body of the
    function or class that defines it: a recursive call is no use."""
    loaded = set()

    def visit(node, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load) \
                and _name(node) not in defining:
            loaded.add(_name(node))
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), frozenset())
    return loaded


def test_every_public_function_is_used():
    # an exported function nothing calls is an orphan: it stays tested and
    # documented after its last caller is gone.  Names are matched, not
    # resolved; an import or an __all__ entry is no use.
    loaded = _loaded_names()
    public = {name for module in MODULES
              for name in importlib.import_module(f"degenpop.{module}").__all__
              if inspect.isfunction(_resolve(f"{module}.{name}"))}
    assert sorted(public - loaded - set(KEPT_PUBLIC)) == []
    assert set(KEPT_PUBLIC) <= public - loaded  # no stale entry


# methods and private names that no package code reads, kept on purpose
KEPT_UNREAD = {
    "Grid.aligned": "the benchmark's tests (perfbench/test_perfbench.py) "
                    "build their small grid with it",
}


def _defined_names():
    """(path, qualified name, name reads use) of every method but the
    dunders, which Python calls itself, and of every private module-level
    function, class and constant of the package."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                yield from ((path, f"{node.name}.{fn.name}", fn.name)
                            for fn in node.body
                            if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("__"))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            yield from ((path, name, name) for name in names
                        if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_and_method_is_read():
    # dead code: a method or private helper no package code reads is
    # generality nothing uses, even when a test still calls it.  Names are
    # matched, not resolved, so one read keeps every definition of a name.
    loaded = _loaded_names()
    unread = {qualified for _, qualified, name in _defined_names()
              if name not in loaded}
    assert sorted(unread - set(KEPT_UNREAD)) == []
    assert set(KEPT_UNREAD) <= unread  # no stale entry


def test_benchmark_tests_pass():
    # the benchmark reads the program's names (cli.solve_forward and the
    # traced spans); its own tests fail when one of them moves
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench"], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
