"""Acceptance gate: the nine shipped guarantees, one printed line each.

Every test prints a single "acceptance N (...): PASS|FAIL" line through
the capture-disabled channel, so a full run always ends with a nine-line
scoreboard no matter how pytest itself reports.  The checks are
end-to-end: they exercise the public API the way the CLI does, at the
reference sizes, and assert the guarantees with their stated tolerances.
"""

import dataclasses
import json
import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from degenpop import control
from degenpop.coeffs import (DEFAULT_S_SWEEP, PowerLaw, VitalRates,
                             build_carleman_weights)
from degenpop.control import HUMConfig, compose_delay_control, glue_two_sided, hum_control
from degenpop.discretize import (Field2, Field3, Grid, random_final_data,
                                 spawn_rng, window_mask)
from degenpop.inequalities import (carleman_audit_deg0, carleman_audit_deg1,
                                   hardy_ratio, manufactured_family,
                                   observability_ratio,
                                   random_hardy_test_functions)
from degenpop.scenarios import (preset, preset_names, run_scenario,
                                scenario_from_config)
from degenpop.solver import (ProblemSpec, control_inner, energy_audit,
                             lattice_inner, lattice_norm, observation,
                             solve_adjoint, solve_forward)


@contextmanager
def gate(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}",
                  flush=True)


# ---------------------------------------------------------------------------
# shared builders


def duality_spec():
    grid = Grid(T=1.0, A=1.0, Nt=12, Na=12, Nx=24)
    rates = VitalRates(
        beta=lambda a, x: 3.0 * np.clip((np.asarray(a) - 0.4) / 0.2, 0.0, 1.0)
            * (1.0 + 0.25 * np.asarray(x)),
        mu=lambda t, a, x: 0.2 + 0.1 * np.asarray(a) + 0.15 * t
            + 0.1 * np.asarray(x),
        a_bar=0.4)
    return ProblemSpec(k=PowerLaw(0.5, 0.5), rates=rates, grid=grid,
                       omega=(0.3, 0.7))


def carleman_spec(n, k, span=3.0):
    grid = Grid(T=span, A=span, Nt=n, Na=n, Nx=n)
    rates = VitalRates(
        beta=lambda a, x: 2.0 * np.exp(-10.0 * (np.asarray(a) - 0.6 * span) ** 2)
            * np.ones_like(np.asarray(x)),
        mu=lambda t, a, x: 0.2 + 0.1 * np.asarray(a)
            * np.ones_like(np.asarray(x)),
        a_bar=0.5 * span)
    return ProblemSpec(k=k, rates=rates, grid=grid, omega=(0.3, 0.7))


TINY_CONFIG = {
    "model": {"T": 1.0, "A": 2.0, "a_bar": 0.5, "delta": 1.25,
              "k": {"form": "power", "alpha0": 0.5, "alpha1": 0.5},
              "beta": {"form": "window", "height": 3.0, "lo": 0.5,
                       "ramp": 0.25},
              "mu": {"form": "constant", "value": 0.2},
              "omega": [0.3, 0.7]},
    "grid": {"Nt": 8, "Na": 16, "Nx": 10},
    "hum": {"epsilon": 1e-4},
    "audits": ["carleman", "observability"],
    "seed": 3,
}


# ---------------------------------------------------------------------------
# the gate


def test_1_discrete_duality(capsys):
    with gate(capsys, "1 (discrete duality)"):
        spec = duality_spec()
        grid = spec.grid
        rng = spawn_rng(2026)
        worst = 0.0
        for trial in range(50):
            y0 = random_final_data(grid, seed=300 + trial, stream=0)
            v_T = random_final_data(grid, seed=300 + trial, stream=1)
            f = Field3(grid, rng.standard_normal(
                (grid.Nt + 1, grid.Na + 1, grid.Nx + 1)))
            fwd = solve_forward(spec, control=f, y0=y0)
            adj = solve_adjoint(spec, v_T)
            lhs = lattice_inner(fwd.final_level(), v_T.values, grid)
            rhs = lattice_inner(y0.values, adj.state.values[0], grid) \
                + control_inner(f, observation(spec, adj))
            worst = max(worst,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        assert worst <= 1e-10

        # independent oracle: dense one-step matrices by basis marching
        grid = Grid(T=0.2, A=1.0, Nt=1, Na=5, Nx=5)
        rates = VitalRates(
            beta=lambda a, x: 0.8 + 0.3 * np.asarray(a) * (1.0 - np.asarray(x)),
            mu=lambda t, a, x: 0.1 + 0.2 * np.asarray(x) + 0.0 * np.asarray(a),
            a_bar=0.2)
        small = ProblemSpec(k=PowerLaw(0.5, 0.5), rates=rates, grid=grid,
                            omega=(0.3, 0.7))
        dim = (grid.Na + 1) * (grid.Nx + 1)
        fwd_mat = np.zeros((dim, dim))
        adj_mat = np.zeros((dim, dim))
        for i in range(dim):
            basis = np.zeros(dim)
            basis[i] = 1.0
            shaped = basis.reshape(grid.Na + 1, grid.Nx + 1)
            fwd_mat[:, i] = solve_forward(
                small, y0=Field2(grid, shaped)).state.values[1].ravel()
            adj_mat[:, i] = solve_adjoint(
                small, Field2(grid, shaped)).state.values[0].ravel()
        scale = np.max(np.abs(fwd_mat))
        np.testing.assert_allclose(adj_mat, fwd_mat.T, atol=1e-13 * scale)


def test_2_energy_estimate(capsys):
    with gate(capsys, "2 (energy estimate)"):
        # no renewal, no source: the norm never grows, step over step
        spec = duality_spec()
        sterile = ProblemSpec(
            k=spec.k,
            rates=VitalRates(beta=lambda a, x: 0.0 * np.asarray(a)
                             * np.asarray(x),
                             mu=spec.rates.mu, a_bar=0.4),
            grid=spec.grid, omega=spec.omega)
        traj = solve_forward(sterile,
                             y0=random_final_data(spec.grid, seed=9))
        norms = traj.norms
        assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))

        # with renewal: the Gronwall bound holds on every builtin scenario
        for name in preset_names():
            sc = preset(name)
            audit = energy_audit(solve_forward(sc.spec), sc.spec)
            assert audit.passed, name


def test_3_hardy_poincare(capsys):
    with gate(capsys, "3 (weighted Hardy inequalities)"):
        for theta in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
            case = "HP1p" if theta < 1.0 else "HP2p"
            fns = random_hardy_test_functions(1.0 if theta < 1.0 else 0.0, 100,
                                              seed=41)
            # the primed cases raise if any ratio crosses 4/(1-theta)^2;
            # a returned report is itself the certificate
            report = hardy_ratio(PowerLaw(0.0, theta), theta, case, fns)
            bound = 4.0 / (1.0 - theta) ** 2
            assert report.empirical_constant <= bound * (1.0 + 1e-9)

        # analytic oracles: both sides integrable in closed form
        flat = hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1p",
                           [Polynomial([1.0, -1.0])])
        assert flat.empirical_constant == pytest.approx(1.0, rel=1e-3)
        steep = hardy_ratio(PowerLaw(0.0, 1.5), 1.5, "HP2p",
                            [Polynomial([0.0, 1.0])])
        assert steep.empirical_constant == pytest.approx(8.0 / 3.0, rel=1e-3)


def test_4_carleman_audits(capsys):
    with gate(capsys, "4 (weighted-estimate audits)"):
        cases = [(PowerLaw(0.5, 0.0), carleman_audit_deg0),
                 (PowerLaw(1.5, 0.0), carleman_audit_deg0),
                 (PowerLaw(0.0, 0.5), carleman_audit_deg1),
                 (PowerLaw(0.5, 0.5), carleman_audit_deg0)]
        for k, audit in cases:
            per_s = {}
            for n in (16, 24, 32):
                spec = carleman_spec(n, k)
                samples = manufactured_family(spec, 3, seed=11)
                weights = build_carleman_weights(spec.grid, spec.k)
                report = audit(samples, weights)
                per_s[n] = report.per_s_constant()
                if n == 24:
                    for s in DEFAULT_S_SWEEP:
                        c = per_s[n][s]
                        assert c is not None and math.isfinite(c) and c > 0.0
                    doubled = [(Field3(spec.grid, 2.0 * v.values),
                                Field3(spec.grid, 2.0 * f.values))
                               for v, f in samples]
                    rescaled = audit(doubled, weights)
                    for r1, r2 in zip(report.rows, rescaled.rows):
                        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-8)
            for s in DEFAULT_S_SWEEP:
                drift = abs(per_s[32][s] - per_s[16][s]) / per_s[16][s]
                assert drift <= 0.25, (k, s, drift)

        # mirror symmetry: reflecting samples and coefficient swaps audits
        spec = carleman_spec(24, PowerLaw(0.5, 0.0))
        samples = manufactured_family(spec, 3, seed=11)
        deg0 = carleman_audit_deg0(
            samples, build_carleman_weights(spec.grid, spec.k))
        mirrored = [(Field3(spec.grid, v.values[:, :, ::-1]),
                     Field3(spec.grid, f.values[:, :, ::-1]))
                    for v, f in samples]
        deg1 = carleman_audit_deg1(
            mirrored, build_carleman_weights(spec.grid, PowerLaw(0.0, 0.5)))
        for r0, r1 in zip(deg0.rows, deg1.rows):
            assert r1.ratio == pytest.approx(r0.ratio, rel=1e-10)


def test_5_penalized_hum_certificate(capsys):
    with gate(capsys, "5 (penalized control certificate)"):
        spec = preset("default_degenerate").spec
        config = HUMConfig(delta=1.25, epsilon=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = hum_control(spec, config)
        assert sol.cg_iterations <= control._CG_MAX_STEPS
        assert sol.final_residual <= sol.certificate * (1.0 + 1e-9)
        y0_norm = lattice_norm(spec.y0.values, spec.grid)
        assert sol.final_residual <= 1e-2 * y0_norm

        halved = hum_control(spec, dataclasses.replace(config, epsilon=5e-7))
        assert halved.final_residual <= sol.final_residual * (1.0 + 1e-9)


def test_6_delay_composition(capsys):
    with gate(capsys, "6 (delayed control)"):
        spec = preset("default_degenerate").spec
        config = HUMConfig(delta=1.25, epsilon=1e-6)
        sol = compose_delay_control(spec, config)
        grid = spec.grid
        n_tilde = int(round(sol.diagnostics["t_tilde"] / grid.dt))
        assert n_tilde == grid.Nt // 2  # a_bar = T/2 on this scenario
        assert not np.any(sol.f.values[:n_tilde + 1])
        assert sol.final_residual <= sol.certificate * (1.0 + 1e-9)
        assert sol.diagnostics["switch_norm"] <= sol.diagnostics["switch_bound"]


def test_7_two_sided_gluing(capsys):
    with gate(capsys, "7 (two-sided gluing)"):
        spec = preset("default_degenerate").spec
        config = HUMConfig(delta=1.25, epsilon=1e-6)
        sol = glue_two_sided(spec, config, 0.125, 0.875)
        diag = sol.diagnostics
        assert diag["residual"] <= 10.0 * diag["baseline"]
        outside = ~window_mask(spec.grid.x_nodes, *spec.omega)
        assert np.max(np.abs(sol.f.values[:, :, outside]), initial=0.0) == 0.0
        np.testing.assert_array_equal(sol.y.state.values[0], spec.y0.values)
        assert sol.final_residual <= sol.certificate * (1.0 + 1e-9)
        assert math.isfinite(sol.bound_ratio)


def test_8_observability_ensemble(capsys):
    with gate(capsys, "8 (observability ensemble)"):
        spec = preset("default_degenerate").spec
        ensemble = [random_final_data(spec.grid, seed=5, stream=i + 1)
                    for i in range(20)]
        narrow = observability_ratio(
            dataclasses.replace(spec, omega=(0.3, 0.5)), ensemble, 1.25)
        wide = observability_ratio(
            dataclasses.replace(spec, omega=(0.25, 0.7)), ensemble, 1.25)
        assert math.isfinite(narrow.empirical_constant)
        assert math.isfinite(wide.empirical_constant)
        assert wide.empirical_constant <= narrow.empirical_constant * (1.0 + 1e-12)


def test_9_determinism(capsys, tmp_path):
    with gate(capsys, "9 (deterministic reruns)"):
        digests = []
        for run in ("one", "two"):
            scenario = scenario_from_config(TINY_CONFIG)
            out = tmp_path / run
            run_scenario(scenario, out)
            digests.append((out / "manifest.json").read_bytes())
        assert digests[0] == digests[1]
        manifest = json.loads(digests[0])
        assert manifest["artifacts"]
