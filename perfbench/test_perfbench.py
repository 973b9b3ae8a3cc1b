"""Tests of the benchmark's own machinery. Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from env import import_program  # noqa: E402
from spans import END, INFO, PARENT, START, Tracer, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckContext, Op, check_op  # noqa: E402


@pytest.fixture(scope="module")
def program():
    import_program()
    package = sys.modules["degenpop"]
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "degenpop" or n.startswith("degenpop.")]
    return package, modules


def small_problem(package):
    base = package.preset("default_degenerate")
    grid = package.Grid.aligned(T=1.0, A=2.0, Nt=6, Nx=12)
    spec = package.ProblemSpec(
        k=base.spec.k, rates=base.spec.rates, grid=grid, omega=base.spec.omega,
        y0=package.random_final_data(grid, seed=0, stream=0))
    return spec, base.hum


def test_install_rebinds_imported_names_and_uninstall_restores(program):
    package, modules = program
    original = package.solver.solve_forward
    tracer = Tracer(modules)
    tracer.install()
    try:
        for mod in (package, package.control, package.scenarios, package.cli):
            assert mod.solve_forward is not original
            assert mod.solve_forward.__wrapped__ is original
        assert package.inequalities.solve_adjoint.__wrapped__ \
            is package.solver.solve_adjoint.__wrapped__
        assert package.inequalities.weighted_norm.__wrapped__ \
            is package.discretize.weighted_norm.__wrapped__
    finally:
        tracer.uninstall()
    for mod in (package, package.solver, package.control, package.scenarios,
                package.cli):
        assert mod.solve_forward is original


def test_hum_call_counts_match_cg_iterations(program):
    package, modules = program
    spec, config = small_problem(package)
    tracer = Tracer(modules, layers.ANNOTATORS)
    tracer.install()
    try:
        package.control.hum_control(spec, config)
        second = len(tracer.spans)
        solution = package.control.hum_control(spec, config)
    finally:
        tracer.uninstall()
    spans, cg = tracer.spans, solution.cg_iterations
    assert cg > 0
    assert layers.march_identity(spans) == []
    assert layers.march_identity(spans, second) == []
    raw = layers.raw_sums(spans)  # two identical solves
    assert raw["solver.forward.calls"] == 2 * (cg + 2)
    assert raw["solver.adjoint.calls"] == 2 * (cg + 1)
    assert raw["solver.level_solves"] == 2 * (2 * cg + 3) * 6
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        assert span[PARENT] < index
        assert -1e-9 <= own <= span[END] - span[START]
    spans[second][INFO] = {"cg": cg + 1}
    assert len(layers.march_identity(spans, second)) == 2


def test_intra_module_calls_are_not_traced(program):
    package, modules = program
    spec, config = small_problem(package)
    tracer = Tracer(modules, layers.ANNOTATORS)
    tracer.install()
    try:
        package.control.compose_delay_control(spec, config)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [span[0] for span in spans]
    assert names.count("control.compose_delay_control") == 1
    assert "control.hum_control" not in names
    assert layers.march_identity(spans) == []
    assert "solver.lattice_norm" in names  # called from control: traced
    for span in spans:  # but not from inside the solver's own marches
        if span[PARENT] >= 0:
            assert span[0].split(".")[0] != spans[span[PARENT]][0].split(".")[0]


def test_reference_constants_at_seed_zero():
    reference = json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text())
    seed0 = reference["seeds"]["0"]
    # the values at the CLI's default sizes: at this seed the extra Carleman
    # samples and observability members do not raise the maximum
    expected = {
        "hardy-audit/default_degenerate/hardy_at_one": 3.68269,
        "hardy-audit/default_degenerate/hardy_at_zero": 1.22901,
        "carleman-audit/default_degenerate/carleman_deg0": 0.0644524,
        "observability/default_degenerate/observability": 0.319137,
    }
    for key, value in expected.items():
        assert seed0[key] == pytest.approx(value, rel=1e-5)
    # every pool seed does the same CG work and has its constants
    assert len(reference["pool"]) >= 10
    for seed in reference["pool"]:
        assert reference["cg_iterations_by_seed"][str(seed)] \
            == reference["cg_iterations"]
        assert "run/default_degenerate/audit_observability" \
            in reference["seeds"][str(seed)]


def test_checks_flag_bad_outputs(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"artifacts": {"a.csv": "0" * 64}}))
    (tmp_path / "control_summary.json").write_text(json.dumps(
        {"final_residual": 0.5, "certificate": 0.1, "cg_iterations": 3}))
    ctx = CheckContext(y0_norms={"p": 1.0}, references={"x/p/r": 2.0},
                       rtol=1e-6, atol=1e-12)
    problems, _ = check_op(Op(("run",), "run", "p"), tmp_path, ctx)
    assert len(problems) == 3  # hash, certificate, 1e-2 * ||y0||
    (tmp_path / "r.json").write_text(json.dumps({"empirical_constant": 2.1}))
    problems, _ = check_op(Op(("x",), "audit", "p", ("r",)), tmp_path, ctx)
    assert len(problems) == 1
    # an audit summary written by run is checked against run/<preset>/<stem>
    (tmp_path / "audit_o.json").write_text(
        json.dumps({"empirical_constant": 1.0}))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"artifacts": {"audit_o.json": workloads._sha256(
            tmp_path / "audit_o.json")}}))
    ctx = CheckContext(y0_norms={"p": 1.0},
                       references={"run/p/audit_o": 1.0 + 1e-3},
                       rtol=1e-6, atol=1e-12)
    problems, _ = check_op(Op(("run",), "run", "p"), tmp_path, ctx)
    assert len(problems) == 3  # constant, certificate, 1e-2 * ||y0||
    ctx.references["run/p/audit_o"] = 1.0 + 1e-9
    problems, _ = check_op(Op(("run",), "run", "p"), tmp_path, ctx)
    assert len(problems) == 2
