import dataclasses
import math

import numpy as np
import pytest

from degenpop import control, discretize, inequalities, solver
from degenpop.coeffs import PowerLaw, VitalRates
from degenpop.control import (CutoffFamily, HUMConfig, _Gramian,
                              _target_rows, compose_delay_control,
                              forward_defect, glue_two_sided, hum_control,
                              scheme_consistency_error)
from degenpop.discretize import Field2, Field3, Grid, random_final_data
from degenpop.scenarios import preset
from degenpop.solver import ProblemSpec, lattice_norm, solve_forward


def beta_window(a, x):
    u = np.clip((np.asarray(a, dtype=float) - 0.5) / 0.25, 0.0, 1.0)
    return 3.0 * u * u * (3.0 - 2.0 * u) * np.ones_like(
        np.asarray(x, dtype=float))


def make_spec(Nt=12, Nx=16, k=None, a_bar=0.5, omega=(0.3, 0.7), y0_seed=0):
    grid = Grid.aligned(T=1.0, A=2.0, Nt=Nt, Nx=Nx)
    rates = VitalRates(beta=beta_window,
                       mu=lambda t, a, x: 0.2 + 0.0 * a * x, a_bar=a_bar)
    y0 = random_final_data(grid, seed=y0_seed)
    return ProblemSpec(k=k or PowerLaw(0.5, 0.0), rates=rates, grid=grid,
                       omega=omega, y0=y0)


CONFIG = HUMConfig(delta=1.25, epsilon=1e-4)


class TestHUMConfig:
    def test_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                HUMConfig(delta=1.25, epsilon=bad)
        with pytest.raises(TypeError):
            HUMConfig()

    def test_fields_are_epsilon_and_delta(self):
        # CG's stop rule is the module's, not a configuration knob
        assert [f.name for f in dataclasses.fields(HUMConfig)] \
            == ["epsilon", "delta"]

    def test_delta_range_checked_at_solve(self):
        spec = make_spec()
        with pytest.raises(ValueError, match=r"delta must lie in \(T, A\)"):
            hum_control(spec, HUMConfig(delta=0.5))
        with pytest.raises(ValueError, match="refine the grid"):
            coarse = make_spec(Nt=2, Nx=6)
            hum_control(coarse, HUMConfig(delta=1.8))


class TestGramian:
    def test_symmetric_and_positive_with_time_dependent_mortality(self):
        grid = Grid.aligned(T=1.0, A=2.0, Nt=6, Nx=10)
        # a window starting at t = 0.25: mortality reads the outer clock
        rates = VitalRates(
            beta=beta_window, a_bar=0.5,
            mu=lambda t, a, x: 0.2 + 0.1 * a
            + 2.0 * (0.25 + t) * (1.0 + np.sin(5 * x)))
        spec = ProblemSpec(k=PowerLaw(0.5, 0.0), rates=rates, grid=grid,
                           omega=(0.3, 0.7))
        rows = _target_rows(grid, 1.25)
        op = _Gramian(spec, rows)
        rng = np.random.default_rng(11)
        for _ in range(4):
            u, v = rng.standard_normal((2, rows.size, grid.Nx - 1))
            lu, lv = op.apply(u), op.apply(v)
            nu, nv, nlu, nlv = (lattice_norm(w, grid) for w in (u, v, lu, lv))
            assert abs(op.inner(lu, v) - op.inner(u, lv)) \
                <= 1e-13 * (nlu * nv + nu * nlv)
            assert op.inner(lu, u) >= -1e-13 * nlu * nu


class TestHUMControl:
    def test_zero_initial_data(self):
        spec = make_spec()
        zero = dataclasses.replace(spec, y0=Field2.zeros(spec.grid))
        sol = hum_control(zero, CONFIG)
        assert not np.any(sol.f.values)
        assert sol.final_residual == 0.0
        assert sol.control_norm == 0.0
        assert sol.bound_ratio == 0.0
        assert sol.cg_iterations == 0

    def test_march_count_does_not_depend_on_the_data(self, monkeypatch):
        # cg + 1 adjoint and cg + 2 forward marches, zero target data too
        calls = []

        def spy(name):
            march = getattr(control, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return march(*args, **kwargs)
            return counting

        for name in ("solve_adjoint", "solve_forward"):
            monkeypatch.setattr(control, name, spy(name))
        scenario = preset("tirathaba_28C")
        spec = dataclasses.replace(scenario.spec,
                                   y0=Field2.zeros(scenario.spec.grid))
        cg = hum_control(spec, scenario.hum).cg_iterations
        assert cg == 0
        assert calls.count("solve_adjoint") == cg + 1
        assert calls.count("solve_forward") == cg + 2

    def test_missing_initial_data(self):
        spec = make_spec()
        bare = dataclasses.replace(spec, y0=None)
        with pytest.raises(ValueError, match="no initial data"):
            hum_control(bare, CONFIG)

    def test_certificate_is_identity_of_reported_numbers(self):
        spec = make_spec()
        sol = hum_control(spec, CONFIG)
        recomputed = 0.5 * sol.control_norm ** 2 \
            + sol.final_residual ** 2 / (2.0 * sol.epsilon)
        assert sol.j_star == pytest.approx(recomputed, rel=1e-12)
        assert sol.certificate == pytest.approx(
            math.sqrt(2.0 * sol.epsilon * sol.j_star), rel=1e-12)
        assert sol.final_residual <= sol.certificate * (1.0 + 1e-9)

    def test_control_beats_free_evolution(self):
        spec = make_spec()
        grid = spec.grid
        sol = hum_control(spec, CONFIG)
        free = solve_forward(spec)
        rows = (grid.a_nodes > CONFIG.delta) & (grid.a_nodes < grid.A)
        free_residual = lattice_norm(free.final_level()[rows][:, 1:-1], grid)
        assert sol.final_residual < 0.5 * free_residual
        assert sol.control_norm > 0.0

    def test_control_supported_in_window(self):
        spec = make_spec()
        sol = hum_control(spec, CONFIG)
        lo, hi = spec.omega
        outside = (spec.grid.x_nodes < lo) | (spec.grid.x_nodes > hi)
        assert np.max(np.abs(sol.f.values[:, :, outside])) == 0.0
        assert np.max(np.abs(sol.f.values[0])) == 0.0

    def test_linearity_in_initial_data(self):
        spec = make_spec()
        sol1 = hum_control(spec, CONFIG)
        doubled = Field2(spec.grid, 2.0 * spec.y0.values)
        sol2 = hum_control(dataclasses.replace(spec, y0=doubled), CONFIG)
        np.testing.assert_allclose(sol2.f.values, 2.0 * sol1.f.values,
                                   rtol=1e-10, atol=1e-14)
        assert sol2.j_star == pytest.approx(4.0 * sol1.j_star, rel=1e-10)

    def test_smaller_epsilon_smaller_residual(self):
        spec = make_spec()
        residuals = []
        norms = []
        for eps in (1e-3, 1e-4, 1e-5):
            sol = hum_control(spec, HUMConfig(delta=1.25, epsilon=eps))
            residuals.append(sol.final_residual)
            norms.append(sol.control_norm)
        assert residuals[0] >= residuals[1] >= residuals[2]
        assert norms[0] <= norms[1] <= norms[2]

    def test_duality_gap_tiny(self):
        spec = make_spec()
        sol = hum_control(spec, CONFIG)
        gap = abs(sol.diagnostics["duality_gap"])
        assert gap <= 1e-12 * max(1.0, sol.j_star)

    def test_solution_trajectory_consistent(self):
        # the reported trajectory is an exact forward solve driven by f
        spec = make_spec()
        sol = hum_control(spec, CONFIG)
        redo = solve_forward(spec, control=sol.f)
        np.testing.assert_array_equal(sol.y.state.values, redo.state.values)
        assert forward_defect(spec, sol.y.state, sol.f) < 1e-10

    def test_cg_short_of_the_tolerance_at_the_step_cap_raises(
            self, monkeypatch):
        # unpreconditioned, CG needs far more than _CG_MAX_STEPS steps on
        # the preset; the solve stops there instead of returning a control
        monkeypatch.setattr(_Gramian, "preconditioner",
                            lambda self, epsilon: lambda r: r)
        scenario = preset("default_degenerate")
        with pytest.raises(control.ControlError,
                           match=r"CG did not converge in 20 steps at "
                                 r"epsilon = 1e-06: relative residual "):
            hum_control(scenario.spec, scenario.hum)

    def test_csv_and_summary(self, tmp_path):
        spec = make_spec()
        sol = hum_control(spec, CONFIG)
        cg_path = tmp_path / "cg.csv"
        sol.write_cg_csv(cg_path)
        lines = cg_path.read_text().splitlines()
        assert lines[0] == "iter,functional,residual"
        assert len(lines) == len(sol.cg_residuals) + 1
        sol.write_summary(tmp_path / "summary.json")
        import json
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["final_residual"] == sol.final_residual
        assert payload["cg_iterations"] == sol.cg_iterations


class TestCutoffFamily:
    def test_window_validated(self):
        with pytest.raises(ValueError):
            CutoffFamily(0.7, 0.3)
        with pytest.raises(ValueError):
            CutoffFamily(0.0, 0.5)

    def test_partition_of_unity(self):
        cut = CutoffFamily(0.3, 0.7)
        x = np.linspace(0.0, 1.0, 1001)
        total = cut.xi(x) + cut.eta(x) + cut.phi_cut(x)
        np.testing.assert_allclose(total, 1.0, atol=1e-15)

    def test_plateaus_exact(self):
        cut = CutoffFamily(0.3, 0.7)
        left = np.linspace(0.0, cut.q1, 50)
        right = np.linspace(cut.q2, 1.0, 50)
        mid = np.linspace(cut.mid, 1.0, 50)
        assert np.all(cut.xi(left) == 1.0)
        assert np.all(cut.xi(mid) == 0.0)
        assert np.all(cut.eta(right) == 1.0)
        assert np.all(cut.eta(np.linspace(0.0, cut.mid, 50)) == 0.0)


class _Diagonal:
    """A fake Gramian: p -> lam * p, with the Euclidean inner product."""

    def __init__(self, lam):
        self.lam = lam

    def apply(self, p):
        return self.lam * p

    def inner(self, u, v):
        return float(np.sum(u * v))

    def preconditioner(self, epsilon):
        return lambda r: r


class TestConjugateGradientBreakdown:
    def test_lost_curvature(self):
        with pytest.raises(control.ControlError,
                           match="lost positive definiteness"):
            control._conjugate_gradient(_Diagonal(-2.0), np.ones(4), 1e-6)

    def test_no_convergence_within_the_step_cap(self):
        # eigenvalues 1 down to 2^-120 and no penalty: CG is nowhere near
        # the tolerance after _CG_MAX_STEPS steps
        op = _Diagonal(0.5 ** (8 * np.arange(16)))
        with pytest.raises(control.ControlError) as info:
            control._conjugate_gradient(op, np.ones(16), 0.0)
        message = str(info.value)
        assert message.startswith(
            f"CG did not converge in {control._CG_MAX_STEPS} steps at "
            "epsilon = 0.0: relative residual ")
        reached = float(message.split("relative residual ")[1].split(";")[0])
        assert reached > control._CG_TOL

    def test_converging_on_the_last_step_returns(self):
        # n distinct eigenvalues: plain CG meets the tolerance at step n
        n = control._CG_MAX_STEPS
        op = _Diagonal(1.0 + np.arange(n))
        xi, residuals, _ = control._conjugate_gradient(op, np.ones(n), 0.0)
        assert len(residuals) - 1 == n
        assert residuals[-1] <= control._CG_TOL * residuals[0]
        np.testing.assert_allclose(xi, -1.0 / (1.0 + np.arange(n)),
                                   rtol=1e-7)


def hum_problems(monkeypatch, solve, *args):
    """The (spec, config) of every hum_control call that ``solve`` makes."""
    seen = []
    hum = control.hum_control

    def spy(spec, config):
        seen.append((spec, config))
        return hum(spec, config)

    monkeypatch.setattr(control, "hum_control", spy)
    solve(*args)
    return seen


class TestCohortGramian:
    """Lambda is one exact (Nx-1)^2 block per target row, and the
    preconditioned CG it factors solves HUM in one step."""

    @staticmethod
    def check_blocks(spec, delta):
        rows = _target_rows(spec.grid, delta)
        blocks = control._cohort_gramian(spec, rows)
        op = _Gramian(spec, rows)
        n = spec.grid.Nx - 1
        # unit datum i on every target row at once gives column i of every
        # block, and would pick up any coupling between the rows
        cols = np.stack([op.apply(np.tile(unit, (rows.size, 1)))
                         for unit in np.eye(n)], axis=-1)
        top = np.max(np.abs(blocks))
        assert blocks.shape == (rows.size, n, n)
        assert np.max(np.abs(cols - blocks)) <= 1e-14 * top
        assert np.max(np.abs(blocks - blocks.transpose(0, 2, 1))) \
            <= 1e-14 * top
        eigenvalues = np.linalg.eigvalsh(blocks)
        assert eigenvalues.min() >= -1e-14 * eigenvalues.max()

    @pytest.mark.parametrize("name", ["default_degenerate", "tirathaba_28C",
                                      "tirathaba_20C", "nilaparvata"])
    def test_blocks_of_every_preset_delay_window(self, name, monkeypatch):
        scenario = preset(name)
        [(window, config)] = hum_problems(
            monkeypatch, compose_delay_control, scenario.spec, scenario.hum)
        assert window.grid.Nt < scenario.spec.grid.Nt
        self.check_blocks(window, config.delta)

    def test_blocks_of_plain_hum(self):
        scenario = preset("default_degenerate")
        self.check_blocks(scenario.spec, scenario.hum.delta)

    def test_blocks_of_a_glue_subproblem(self, monkeypatch):
        spec = make_spec(k=PowerLaw(0.5, 0.5))
        problems = hum_problems(monkeypatch, glue_two_sided, spec, CONFIG,
                                3.0 / 16.0, 14.0 / 16.0)
        assert len(problems) == 2
        window, config = problems[1]
        assert window.grid.x_span[0] > 0.0
        self.check_blocks(window, config.delta)

    def test_blocks_on_the_thomas_path(self, monkeypatch):
        monkeypatch.setattr(solver, "_DENSE_MAX_UNKNOWNS", 0)
        spec = make_spec()
        rates = dataclasses.replace(
            spec.rates,
            mu=lambda t, a, x: 0.2 + 0.1 * a + 2.0 * t * (1.0 + np.sin(5 * x)))
        spec = dataclasses.replace(spec, rates=rates)
        assert not spec._propagator.dense
        self.check_blocks(spec, CONFIG.delta)

    @pytest.mark.parametrize("name", ["default_degenerate", "tirathaba_28C"])
    def test_cg_is_the_direct_solve(self, name, monkeypatch):
        scenario = preset(name)
        [(window, config)] = hum_problems(
            monkeypatch, compose_delay_control, scenario.spec, scenario.hum)
        rows = _target_rows(window.grid, config.delta)
        op = _Gramian(window, rows)
        b = op.restrict(solve_forward(window).final_level())
        xi, residuals, _ = control._conjugate_gradient(op, b, config.epsilon)
        m = control._cohort_gramian(window, rows) \
            + config.epsilon * np.eye(window.grid.Nx - 1)
        direct = -np.linalg.solve(m, b[:, :, None])[:, :, 0]
        assert np.linalg.norm(xi - direct) <= 1e-10 * np.linalg.norm(direct)
        assert len(residuals) - 1 <= 2
        sol = hum_control(window, config)
        assert abs(sol.diagnostics["duality_gap"]) \
            <= 1e-12 * max(1.0, sol.j_star)

    @pytest.mark.parametrize("seed", [0, 8, 83])
    def test_every_preset_takes_at_most_two_steps(self, seed):
        # the data `degenpop run --seed` solves from
        for name in ("default_degenerate", "tirathaba_28C", "tirathaba_20C",
                     "nilaparvata"):
            scenario = preset(name)
            spec = dataclasses.replace(scenario.spec, y0=random_final_data(
                scenario.spec.grid, seed=seed, stream=0))
            sol = compose_delay_control(spec, scenario.hum)
            assert 1 <= sol.cg_iterations <= 2


class TestDelayComposition:
    def test_control_silent_before_switch(self):
        spec = make_spec(a_bar=0.5)
        sol = compose_delay_control(spec, CONFIG)
        n_tilde = round(sol.diagnostics["t_tilde"] / spec.grid.dt)
        assert n_tilde == 6
        assert np.max(np.abs(sol.f.values[:n_tilde + 1])) == 0.0
        assert np.max(np.abs(sol.f.values[n_tilde + 1:])) > 0.0

    def test_certificate_and_switch_bound(self):
        spec = make_spec(a_bar=0.5)
        sol = compose_delay_control(spec, CONFIG)
        assert sol.final_residual <= sol.certificate * (1.0 + 1e-9)
        assert sol.diagnostics["switch_norm"] <= sol.diagnostics["switch_bound"]

    def test_free_phase_matches_uncontrolled_solve(self):
        spec = make_spec(a_bar=0.5)
        sol = compose_delay_control(spec, CONFIG)
        free = solve_forward(spec)
        n_tilde = round(sol.diagnostics["t_tilde"] / spec.grid.dt)
        np.testing.assert_array_equal(sol.y.state.values[:n_tilde + 1],
                                      free.state.values[:n_tilde + 1])

    def test_full_window_reduces_to_plain_hum(self):
        spec = make_spec(a_bar=1.0)  # a_bar == T
        delayed = compose_delay_control(spec, CONFIG)
        plain = hum_control(spec, CONFIG)
        assert np.array_equal(delayed.f.values, plain.f.values)
        assert np.array_equal(delayed.y.state.values, plain.y.state.values)

    def test_window_keeps_the_problem_step(self, monkeypatch):
        # dt = 0.2: the free phase is the problem's own march, and the
        # control window spans fl(2*dt) in 2 steps, each of exactly dt
        grid = Grid(T=1.0, A=2.0, Nt=5, Na=10, Nx=10)
        rates = VitalRates(beta=beta_window,
                           mu=lambda t, a, x: 0.2 + 0.0 * a * x, a_bar=0.4)
        spec = ProblemSpec(k=PowerLaw(0.5, 0.0), rates=rates, grid=grid,
                           omega=(0.3, 0.7), y0=random_final_data(grid, seed=0))
        windows = []
        time_window = control._time_window

        def spy(*args):
            windows.append(time_window(*args))
            return windows[-1]

        monkeypatch.setattr(control, "_time_window", spy)
        compose_delay_control(spec, CONFIG)
        assert [w.grid.Nt for w in windows] == [2]
        assert [w.grid.dt for w in windows] == [grid.dt]

    def test_window_reads_mortality_on_the_outer_clock(self):
        spec = make_spec(a_bar=0.5)
        rates = dataclasses.replace(
            spec.rates,
            mu=lambda t, a, x: 0.2 + 0.1 * a + 2.0 * t * (1.0 + np.sin(5 * x)))
        spec = dataclasses.replace(spec, rates=rates)
        sol = compose_delay_control(spec, CONFIG)
        assert forward_defect(spec, sol.y.state, sol.f) < 1e-10

    def test_whole_horizon_fields_not_scanned_again(self, monkeypatch):
        # the control and state are pieced together from march outputs
        spec = make_spec(a_bar=0.5)
        grid = spec.grid
        scanned = []
        check = discretize._check_values

        def spy(values, shape, what):
            scanned.append(shape)
            return check(values, shape, what)

        monkeypatch.setattr(discretize, "_check_values", spy)
        sol = compose_delay_control(spec, CONFIG)
        assert (grid.Nt + 1, grid.Na + 1, grid.Nx + 1) not in scanned
        assert sol.f.grid == sol.y.grid == grid
        assert np.isfinite(sol.f.values).all()
        assert np.isfinite(sol.y.state.values).all()

    def test_off_lattice_a_bar_warns(self):
        spec = make_spec(a_bar=0.26)
        with pytest.warns(UserWarning, match="snapping"):
            compose_delay_control(spec, CONFIG)

    def test_a_bar_out_of_range(self):
        spec = make_spec(a_bar=1.5)  # exceeds T = 1
        with pytest.raises(ValueError, match="a_bar <= T"):
            compose_delay_control(spec, CONFIG)


class TestSchemeConsistency:
    def test_positive_and_linear_in_amplitude(self):
        spec = make_spec()
        base = scheme_consistency_error(spec)
        assert 0.0 < base < math.inf
        assert scheme_consistency_error(spec, amplitude=2.0) == pytest.approx(
            2.0 * base, rel=1e-12)

    def test_refinement_shrinks_consistency_error(self):
        coarse = scheme_consistency_error(make_spec(Nt=8, Nx=8))
        fine = scheme_consistency_error(make_spec(Nt=16, Nx=16))
        assert fine < coarse

    def test_forward_defect_of_exact_solve_is_roundoff(self):
        spec = make_spec()
        grid = spec.grid
        f = Field3(grid, np.zeros((grid.Nt + 1, grid.Na + 1, grid.Nx + 1)))
        traj = solve_forward(spec, control=f)
        assert forward_defect(spec, traj.state, f) < 1e-12


class TestGlueTwoSided:
    def _glued(self, **kwargs):
        spec = make_spec(k=PowerLaw(0.5, 0.5), **kwargs)
        return spec, glue_two_sided(spec, CONFIG, 3.0 / 16.0, 14.0 / 16.0)

    def test_residual_at_roundoff_scale(self):
        spec, sol = self._glued()
        diag = sol.diagnostics
        assert diag["residual"] <= 1e-8
        assert diag["residual"] <= 10.0 * diag["baseline"]
        assert diag["renewal_defect"] <= 1e-12

    def test_initial_state_and_support(self):
        spec, sol = self._glued()
        np.testing.assert_array_equal(sol.y.state.values[0], spec.y0.values)
        lo, hi = spec.omega
        outside = (spec.grid.x_nodes < lo) | (spec.grid.x_nodes > hi)
        assert np.max(np.abs(sol.f.values[:, :, outside])) == 0.0

    def test_final_residual_within_combined_certificates(self):
        _, sol = self._glued()
        assert sol.final_residual <= sol.certificate * (1.0 + 1e-9)
        assert math.isfinite(sol.bound_ratio)
        assert len(sol.diagnostics["sub_residuals"]) == 2

    def test_default_left_cut_is_the_local_audits_node(self, monkeypatch):
        # lo/2 = 0.15 lies between the nodes 7/48 and 8/48, nearer to 7
        spec = make_spec(Nt=4, Nx=48, k=PowerLaw(0.5, 0.5))
        xs = spec.grid.x_nodes
        assert glue_two_sided(spec, CONFIG).diagnostics["alpha_bar"] == xs[7]
        starts = []
        build = inequalities.build_carleman_weights

        def spy(grid, coef, **kwargs):
            starts.append(grid.x_span[0])
            return build(grid, coef, **kwargs)

        monkeypatch.setattr(inequalities, "build_carleman_weights", spy)
        one_sided = make_spec(Nt=4, Nx=48)
        inequalities.carleman_local_audit(
            inequalities.manufactured_family(one_sided, 1, seed=0),
            one_sided.omega, build(one_sided.grid, one_sided.k))
        assert starts == [xs[7]]

    def test_default_right_cut_is_the_local_audits_node(self, monkeypatch):
        # the mirror of the left cut for k degenerate at x = 1 alone:
        # (1 + hi)/2 = 0.85 lies between the nodes 40/48 and 41/48,
        # nearer to 41
        spec = make_spec(Nt=4, Nx=48, k=PowerLaw(0.5, 0.5))
        xs = spec.grid.x_nodes
        assert glue_two_sided(spec, CONFIG).diagnostics["beta_bar"] == xs[41]
        spans = []
        build = inequalities.build_carleman_weights

        def spy(grid, coef, **kwargs):
            spans.append(grid.x_span)
            return build(grid, coef, **kwargs)

        monkeypatch.setattr(inequalities, "build_carleman_weights", spy)
        one_sided = make_spec(Nt=4, Nx=48, k=PowerLaw(0.0, 0.5))
        report = inequalities.carleman_local_audit(
            inequalities.manufactured_family(one_sided, 1, seed=0),
            one_sided.omega, build(one_sided.grid, one_sided.k))
        assert report.name == "carleman_local_deg1"
        assert spans == [(0.0, xs[41])]

    def test_one_sided_coefficient_rejected(self):
        spec = make_spec(k=PowerLaw(0.5, 0.0))
        with pytest.raises(ValueError, match="both endpoints"):
            glue_two_sided(spec, CONFIG, 3.0 / 16.0, 14.0 / 16.0)

    def test_cut_points_validated(self):
        spec = make_spec(k=PowerLaw(0.5, 0.5))
        with pytest.raises(ValueError, match="alpha_bar < omega"):
            glue_two_sided(spec, CONFIG, 0.4, 14.0 / 16.0)
        bare = dataclasses.replace(spec, y0=None)
        with pytest.raises(ValueError, match="y0"):
            glue_two_sided(bare, CONFIG, 3.0 / 16.0, 14.0 / 16.0)


class TestPropagatorBuilds:
    """Each problem builds its one-step map once, however often it marches."""

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = []
        build = solver._Propagator.__init__

        def counting(prop, spec):
            seen.append(spec)
            build(prop, spec)

        monkeypatch.setattr(solver._Propagator, "__init__", counting)
        return seen

    @pytest.fixture
    def marched(self, monkeypatch):
        """The problem of every march control makes, in order."""
        seen = []
        for name in ("solve_adjoint", "solve_forward"):
            def counting(spec, *args, _march=getattr(control, name),
                         **kwargs):
                seen.append(spec)
                return _march(spec, *args, **kwargs)
            monkeypatch.setattr(control, name, counting)
        return seen

    def test_hum_builds_once(self, builds, marched):
        spec = make_spec()
        hum_control(spec, CONFIG)
        assert sum(s is spec for s in marched) >= 3
        assert len(builds) == 1 and builds[0] is spec

    def test_delay_builds_once_per_window(self, builds, marched):
        spec = make_spec()
        compose_delay_control(spec, CONFIG)
        # the problem, whose own march is the free phase, and the control
        # window: two problems, one build each
        assert len(builds) == len({id(b) for b in builds}) == 2
        assert builds[0] is spec
        assert sum(s is builds[1] for s in marched) >= 3

    def test_glue_builds_once_per_problem(self, builds):
        spec = make_spec(k=PowerLaw(0.5, 0.5))
        glue_two_sided(spec, CONFIG, 3.0 / 16.0, 14.0 / 16.0)
        # the whole problem, and each side's problem and control window
        assert len(builds) == len({id(spec) for spec in builds}) == 5
        assert sum(b is spec for b in builds) == 1
