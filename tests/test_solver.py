import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degenpop import discretize, solver
from degenpop.coeffs import PowerLaw, Tabulated, VitalRates
from degenpop.discretize import (Field2, Field3, Grid, random_final_data,
                                 sine_mode_data, spawn_rng)
from degenpop.solver import (ProblemSpec, _thomas_factor, _thomas_solve,
                             characteristic_consistency, control_inner,
                             control_norm, energy_audit, lattice_inner,
                             lattice_norm, observation, solve_adjoint,
                             solve_forward)


def beta_ramp(a, x):
    u = np.clip((np.asarray(a, dtype=float) - 0.5) / 0.25, 0.0, 1.0)
    return 4.0 * u * u * (3.0 - 2.0 * u) * np.ones_like(
        np.asarray(x, dtype=float))


def mu_mild(t, a, x):
    return 0.2 + 0.1 * np.asarray(a, dtype=float) \
        + 0.0 * np.asarray(x, dtype=float)


def zero_rate(*args):
    return 0.0 * np.asarray(args[-2], dtype=float) \
        * np.ones_like(np.asarray(args[-1], dtype=float))


def mu_seasonal(t, a, x):
    # depends on t, so every time level has a diagonal of its own
    return 0.2 + 0.1 * np.asarray(a, dtype=float) \
        + 2.0 * t * (1.0 + np.sin(5.0 * np.asarray(x, dtype=float)))


def thomas_reference(diag, off, rhs):
    """The unfactored Thomas sweep, pivots computed inside the loop: the
    solver's level solve before it stored its factors, kept as the oracle
    that the factored solve matches bit for bit."""
    rows, n = rhs.shape
    cp = np.empty((rows, max(n - 1, 0)))
    xs = np.empty_like(rhs)
    piv = diag[:, 0]
    sol = np.empty_like(rhs)
    sol[:, 0] = rhs[:, 0] / piv
    for i in range(1, n):
        cp[:, i - 1] = off[i - 1] / piv
        piv = diag[:, i] - off[i - 1] * cp[:, i - 1]
        sol[:, i] = (rhs[:, i] - off[i - 1] * sol[:, i - 1]) / piv
    xs[:, n - 1] = sol[:, n - 1]
    for i in range(n - 2, -1, -1):
        xs[:, i] = sol[:, i] - cp[:, i] * xs[:, i + 1]
    return xs


def make_spec(Nt=8, Nx=12, k=None, beta=beta_ramp, mu=mu_mild,
              omega=(0.3, 0.7), T=1.0, A=2.0):
    grid = Grid.aligned(T=T, A=A, Nt=Nt, Nx=Nx)
    rates = VitalRates(beta=beta, mu=mu, a_bar=0.5)
    return ProblemSpec(k=k or PowerLaw(0.5, 0.5), rates=rates, grid=grid,
                       omega=omega)


def duality_defect(spec, seed):
    """Relative defect of <y(T), v_T> - <y0, v(0)> = <f, obs> for random
    y0, v_T and control f drawn from ``seed``."""
    grid = spec.grid
    y0 = random_final_data(grid, seed=seed, stream=0)
    v_T = random_final_data(grid, seed=seed, stream=1)
    f = Field3(grid, np.random.default_rng(seed).standard_normal(
        (grid.Nt + 1, grid.Na + 1, grid.Nx + 1)))
    forward = solve_forward(spec, control=f, y0=y0)
    adjoint = solve_adjoint(spec, v_T)
    lhs = lattice_inner(forward.final_level(), v_T.values, grid)
    rhs = lattice_inner(y0.values, adjoint.state.values[0], grid) \
        + control_inner(f, observation(spec, adjoint))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


class TestForwardBasics:
    def test_zero_data_zero_solution(self):
        spec = make_spec()
        traj = solve_forward(spec, y0=Field2.zeros(spec.grid))
        assert not np.any(traj.state.values)

    def test_dirichlet_rows_exactly_zero(self):
        # computed levels carry exact zeros on the x boundary; slice 0 is
        # the caller's data, stored verbatim
        spec = make_spec()
        y0 = random_final_data(spec.grid, seed=1)
        traj = solve_forward(spec, y0=y0)
        assert np.all(traj.state.values[1:, :, 0] == 0.0)
        assert np.all(traj.state.values[1:, :, -1] == 0.0)
        np.testing.assert_array_equal(traj.state.values[0], y0.values)

    def test_renewal_row_satisfies_quadrature(self):
        # newborn row = c * trapezoid(beta * y) with the a=0 self term
        # solved algebraically; checked independently of the solver wiring
        spec = make_spec()
        grid = spec.grid
        traj = solve_forward(spec, y0=random_final_data(grid, seed=2))
        beta = spec.rates.beta_grid(grid)
        da = grid.da
        closing = 1.0 / (1.0 - 0.5 * da * beta[0])
        for n in range(1, grid.Nt + 1):
            level = traj.state.values[n]
            integral = da * np.sum(beta[1:-1] * level[1:-1], axis=0) \
                + 0.5 * da * beta[-1] * level[-1]
            expected = closing * integral
            np.testing.assert_allclose(level[0], expected, atol=1e-14,
                                       rtol=1e-12)

    def test_missing_initial_data(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="initial data"):
            solve_forward(spec)

    def test_grid_mismatch_rejected(self):
        spec = make_spec()
        other = Grid.aligned(T=1.0, A=2.0, Nt=4, Nx=6)
        with pytest.raises(ValueError):
            solve_forward(spec, y0=Field2.zeros(other))
        with pytest.raises(ValueError):
            solve_forward(spec, control=Field3.zeros(other),
                          y0=Field2.zeros(spec.grid))

    def test_energy_csv_header(self, tmp_path):
        spec = make_spec(Nt=4, Nx=6)
        traj = solve_forward(spec, y0=random_final_data(spec.grid, seed=3))
        path = tmp_path / "energy.csv"
        traj.write_energy_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "step,t,l2norm,flux"


class TestFactoredSolve:
    """The level solve against the Thomas sweep: the stored dense inverses
    agree with it to round-off, their transposed apply is bitwise their
    transpose, and the Thomas sweep runs wherever the dense path would not
    pay (``solver._DENSE_MAX_UNKNOWNS``, ``solver._DENSE_MAX_BYTES``)."""

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_random_systems(self, seed, rows, n):
        rng = np.random.default_rng(seed)
        off = -rng.uniform(0.0, 50.0, n - 1)
        pad = np.abs(np.concatenate([[0.0], off])) \
            + np.abs(np.concatenate([off, [0.0]]))
        diag = 1.0 + rng.uniform(0.0, 5.0, (rows, n)) + pad
        rhs = rng.standard_normal((rows, n))
        np.testing.assert_array_equal(
            _thomas_solve(_thomas_factor(diag, off), rhs),
            thomas_reference(diag, off, rhs))

    def _check_levels(self, spec):
        prop = spec._propagator
        assert prop.dense
        rng = spawn_rng(29)
        for level in range(1, spec.grid.Nt + 1):
            diag = prop._diag[level - 1]
            rhs = rng.standard_normal(diag.shape)
            ref = thomas_reference(diag, prop.offdiag, rhs)
            for transpose in (False, True):  # D is symmetric
                got = prop.solve_diffusion(level, rhs, transpose=transpose)
                assert np.max(np.abs(got - ref)) \
                    <= 1e-13 * np.max(np.abs(ref))
            # forward images of the unit vectors are the columns of the
            # inverse, the Thomas sweeps of the unit vectors; transposed
            # images are its rows: the same bits
            units = np.eye(diag.shape[1])[:, None, :].repeat(len(diag), 1)
            fwd = np.stack([prop.solve_diffusion(level, e)
                            for e in units], axis=-1)
            np.testing.assert_array_equal(fwd, np.stack(
                [thomas_reference(diag, prop.offdiag, e) for e in units],
                axis=-1))
            adj = np.stack([prop.solve_diffusion(level, e, transpose=True)
                            for e in units], axis=1)
            np.testing.assert_array_equal(fwd, adj)
        return prop

    def test_equal_levels_share_one_factorisation(self):
        prop = self._check_levels(make_spec(Nt=6, Nx=10))
        assert len({id(f) for f in prop._operands}) == 1
        assert len({id(d) for d in prop._diag}) == 1

    def test_time_dependent_mortality_factors_each_level(self):
        spec = make_spec(Nt=6, Nx=10, mu=mu_seasonal)
        prop = self._check_levels(spec)
        assert len({id(f) for f in prop._operands}) == spec.grid.Nt

    def test_dense_inverses_stay_within_their_limits(self):
        # 48 x 47 unknowns per level (the presets' grid): one distinct
        # level is 0.85 MB of inverses; with mortality depending on t each
        # level has its own, 24 of them within the byte cap, 96 over it
        prop = make_spec(Nt=24, Nx=48)._propagator
        assert prop.dense
        assert "_operands" not in vars(prop)  # built on the first solve
        prop = make_spec(Nt=24, Nx=48, mu=mu_seasonal)._propagator
        assert prop.dense
        stored = {id(op): op.nbytes for op in prop._operands}
        assert len(stored) == 24
        assert sum(stored.values()) <= solver._DENSE_MAX_BYTES
        prop = make_spec(Nt=96, Nx=48, mu=mu_seasonal, T=2.0,
                         A=1.0)._propagator
        assert prop._diag[0].shape == (48, 47)
        assert not prop.dense
        assert not any(isinstance(op, np.ndarray) for op in prop._operands)
        # 40 x 255 unknowns per level: past the crossover
        for mu in (mu_mild, mu_seasonal):
            spec = make_spec(Nt=2, Nx=256, mu=mu, T=0.1)
            grid = spec.grid
            assert grid.Na * (grid.Nx - 1) > solver._DENSE_MAX_UNKNOWNS
            prop = spec._propagator
            assert not prop.dense
            assert not any(isinstance(op, np.ndarray)
                           for op in prop._operands)
            for seed in range(3):
                assert duality_defect(spec, seed) < 1e-10

    def test_one_propagator_per_problem(self):
        spec = make_spec()
        prop = spec._propagator
        solve_forward(spec, y0=random_final_data(spec.grid, seed=1))
        solve_adjoint(spec, random_final_data(spec.grid, seed=2))
        assert spec._propagator is prop
        other = dataclasses.replace(spec, y0=None)
        assert other._propagator is not prop


class TestTransposeOracle:
    """Dense one-step matrices on a tiny grid: adjoint == transpose."""

    def _one_step_matrices(self):
        grid = Grid(T=0.2, A=1.0, Nt=1, Na=5, Nx=5)
        rates = VitalRates(
            beta=lambda a, x: 0.8 + 0.3 * np.asarray(a) * (1.0 - np.asarray(x)),
            mu=lambda t, a, x: 0.1 + 0.2 * np.asarray(x) + 0.0 * np.asarray(a),
            a_bar=0.2)
        spec = ProblemSpec(k=PowerLaw(0.5, 0.5), rates=rates, grid=grid,
                           omega=(0.3, 0.7))
        dim = (grid.Na + 1) * (grid.Nx + 1)
        fwd = np.zeros((dim, dim))
        adj = np.zeros((dim, dim))
        for i in range(dim):
            basis = np.zeros(dim)
            basis[i] = 1.0
            shaped = basis.reshape(grid.Na + 1, grid.Nx + 1)
            fwd[:, i] = solve_forward(
                spec, y0=Field2(grid, shaped)).state.values[1].ravel()
            adj[:, i] = solve_adjoint(
                spec, Field2(grid, shaped)).state.values[0].ravel()
        return fwd, adj

    def test_adjoint_is_exact_transpose(self):
        fwd, adj = self._one_step_matrices()
        scale = np.max(np.abs(fwd))
        np.testing.assert_allclose(adj, fwd.T, atol=1e-13 * scale)


class TestDuality:
    def test_identity_random_triples(self):
        spec = make_spec(Nt=12, Nx=24, T=1.0, A=1.0)
        grid = spec.grid
        rng = spawn_rng(17)
        for trial in range(10):
            y0 = random_final_data(grid, seed=100 + trial, stream=0)
            v_T = random_final_data(grid, seed=100 + trial, stream=1)
            f = Field3(grid, rng.standard_normal(
                (grid.Nt + 1, grid.Na + 1, grid.Nx + 1)))
            forward = solve_forward(spec, control=f, y0=y0)
            adjoint = solve_adjoint(spec, v_T)
            lhs = lattice_inner(forward.final_level(), v_T.values, grid)
            rhs = lattice_inner(y0.values, adjoint.state.values[0], grid) \
                + control_inner(f, observation(spec, adjoint))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_observation_masked_and_shifted(self):
        spec = make_spec()
        grid = spec.grid
        adjoint = solve_adjoint(spec, random_final_data(grid, seed=5))
        obs = observation(spec, adjoint).values
        assert not np.any(obs[0])
        lo, hi = spec.omega
        outside = (grid.x_nodes < lo) | (grid.x_nodes > hi)
        assert not np.any(obs[:, :, outside])

    def test_zero_final_data(self):
        spec = make_spec()
        adjoint = solve_adjoint(spec, Field2.zeros(spec.grid))
        assert not np.any(adjoint.state.values)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_forward_superposition(self, seed):
        spec = make_spec(Nt=4, Nx=6)
        grid = spec.grid
        a = random_final_data(grid, seed=seed, stream=0)
        b = random_final_data(grid, seed=seed, stream=1)
        ya = solve_forward(spec, y0=a).state.values
        yb = solve_forward(spec, y0=b).state.values
        both = solve_forward(
            spec, y0=Field2(grid, a.values + b.values)).state.values
        np.testing.assert_allclose(both, ya + yb, atol=1e-12, rtol=1e-10)


class TestTimeDependentDuality:
    """Duality and the exact transpose where every level has its own
    factors, a path no preset takes (their mortality ignores t)."""

    @staticmethod
    def _spec(grid, seed):
        rng = np.random.default_rng(seed)
        m0, m1, m2, b0 = rng.uniform(0.0, 1.0, 4)
        freq = rng.uniform(1.0, 8.0)
        rates = VitalRates(
            beta=lambda a, x: b0 + np.asarray(a) * (1.0 - np.asarray(x)),
            mu=lambda t, a, x: m0 + m1 * np.asarray(a)
            + (0.5 + 2.0 * m2) * t * (1.0 + np.sin(freq * np.asarray(x))),
            a_bar=0.2)
        return ProblemSpec(k=PowerLaw(0.5, 0.5), rates=rates, grid=grid,
                           omega=(0.3, 0.7))

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=4, max_value=14))
    @settings(max_examples=15, deadline=None)
    def test_identity(self, seed, Nt, Nx):
        grid = Grid.aligned(T=1.0, A=1.0, Nt=Nt, Nx=Nx)
        spec = self._spec(grid, seed)
        assert len({id(f) for f in spec._propagator._operands}) == Nt
        y0 = random_final_data(grid, seed=seed, stream=0)
        v_T = random_final_data(grid, seed=seed, stream=1)
        f = Field3(grid, np.random.default_rng(seed).standard_normal(
            (grid.Nt + 1, grid.Na + 1, grid.Nx + 1)))
        forward = solve_forward(spec, control=f, y0=y0)
        adjoint = solve_adjoint(spec, v_T)
        lhs = lattice_inner(forward.final_level(), v_T.values, grid)
        rhs = lattice_inner(y0.values, adjoint.state.values[0], grid) \
            + control_inner(f, observation(spec, adjoint))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-10

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=2, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_exact_transpose(self, seed, Nt):
        grid = Grid(T=0.2 * Nt, A=1.0, Nt=Nt, Na=5, Nx=5)
        spec = self._spec(grid, seed)
        dim = (grid.Na + 1) * (grid.Nx + 1)
        fwd = np.zeros((dim, dim))
        adj = np.zeros((dim, dim))
        for i in range(dim):
            shaped = np.zeros(dim)
            shaped[i] = 1.0
            shaped = Field2(grid, shaped.reshape(grid.Na + 1, grid.Nx + 1))
            fwd[:, i] = solve_forward(spec, y0=shaped).final_level().ravel()
            adj[:, i] = solve_adjoint(spec, shaped).state.values[0].ravel()
        scale = np.max(np.abs(fwd))
        np.testing.assert_allclose(adj, fwd.T, atol=1e-13 * scale)


class TestDecayAndEnergy:
    def test_norm_monotone_without_renewal(self):
        spec = make_spec(beta=zero_rate)
        traj = solve_forward(spec, y0=random_final_data(spec.grid, seed=4))
        norms = traj.norms
        for n in range(spec.grid.Nt):
            assert norms[n + 1] <= norms[n] * (1.0 + 1e-12)

    def test_energy_audit_zero_data(self):
        spec = make_spec()
        traj = solve_forward(spec, y0=Field2.zeros(spec.grid))
        audit = energy_audit(traj, spec)
        assert audit.passed and audit.sup_norm == 0.0

    def test_energy_audit_generic(self):
        spec = make_spec(Nt=16, Nx=32)
        traj = solve_forward(spec, y0=random_final_data(spec.grid, seed=6))
        audit = energy_audit(traj, spec)
        assert audit.passed
        assert audit.flux_integral >= 0.0

    def test_energy_constant_without_fertility(self):
        spec = make_spec(beta=zero_rate)
        traj = solve_forward(spec, y0=random_final_data(spec.grid, seed=7))
        audit = energy_audit(traj, spec)
        assert audit.passed
        assert audit.constant == pytest.approx(1.0 + spec.grid.T)


class TestExactModeTransport:
    def test_discrete_sine_mode_advects_exactly(self):
        # k = 1: sin(pi x_i) is an exact eigenvector of the tridiagonal
        # diffusion matrix, and the age shift is exact, so each step
        # multiplies a transported profile by the same scalar factor.
        grid = Grid.aligned(T=1.0, A=2.0, Nt=12, Nx=16)
        rates = VitalRates(beta=zero_rate, mu=zero_rate, a_bar=0.5)
        spec = ProblemSpec(k=PowerLaw(0.0, 0.0), rates=rates, grid=grid,
                           omega=(0.3, 0.7))
        g = np.exp(-((grid.a_nodes - 0.5) / 0.15) ** 2)
        y0 = Field2(grid, g[:, None] * np.sin(np.pi * grid.x_nodes)[None, :])
        traj = solve_forward(spec, y0=y0)
        dx, dt = grid.dx, grid.dt
        lam = (2.0 - 2.0 * np.cos(np.pi * dx)) / dx ** 2
        factor = 1.0 / (1.0 + dt * lam)
        n = grid.Nt
        expected = np.zeros((grid.Na + 1, grid.Nx + 1))
        rows = np.arange(n, grid.Na + 1)
        expected[rows] = (factor ** n) * g[rows - n, None] \
            * np.sin(np.pi * grid.x_nodes)[None, :]
        np.testing.assert_allclose(traj.state.values[n], expected,
                                   atol=1e-13, rtol=1e-11)
        # the discrete decay factor brackets the heat-kernel rate
        assert factor ** n < np.exp(-lam * 1.0 / (1.0 + dt * lam))


class TestManufacturedConvergence:
    def _error(self, Nt):
        T, A = 1.0, 2.0
        grid = Grid.aligned(T=T, A=A, Nt=Nt, Nx=Nt)
        coef = PowerLaw(0.5, 0.5)
        rates = VitalRates(beta=zero_rate, mu=mu_mild, a_bar=0.5)
        # omega wide enough to cover every interior node: the control
        # channel then injects a full-domain manufactured source
        spec = ProblemSpec(k=coef, rates=rates, grid=grid, omega=(0.02, 0.98))

        def y_star(t, a, x):
            return np.exp(-t) * a * (A - a) / A ** 2 * np.sin(np.pi * x)

        t = grid.t_nodes[:, None, None]
        a = grid.a_nodes[None, :, None]
        x = grid.x_nodes[None, None, 1:-1]
        q = a * (A - a) / A ** 2
        q_a = (A - 2.0 * a) / A ** 2
        sin_x, cos_x = np.sin(np.pi * x), np.cos(np.pi * x)
        amp = np.exp(-t)
        source = np.zeros((grid.Nt + 1, grid.Na + 1, grid.Nx + 1))
        source[:, :, 1:-1] = (
            -amp * q * sin_x + amp * q_a * sin_x
            - (coef.kprime(x) * amp * q * np.pi * cos_x
               - coef.k(x) * amp * q * np.pi ** 2 * sin_x)
            + mu_mild(t, a, x) * amp * q * sin_x)
        qa = grid.a_nodes * (A - grid.a_nodes) / A ** 2
        y0 = Field2(grid, qa[:, None] * np.sin(np.pi * grid.x_nodes)[None, :])
        traj = solve_forward(spec, control=Field3(grid, source), y0=y0)
        exact = Field3.from_function(grid, y_star)
        worst = max(
            lattice_norm(traj.state.values[n] - exact.values[n], grid)
            for n in range(grid.Nt + 1))
        return worst / lattice_norm(exact.values[-1], grid)

    def test_refinement_reduces_error(self):
        errors = [self._error(Nt) for Nt in (8, 16, 32)]
        assert errors[0] / errors[1] >= 1.5
        assert errors[1] / errors[2] >= 1.5


class TestCharacteristics:
    def test_consistency_requires_no_fertility(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="beta == 0"):
            characteristic_consistency(spec,
                                       random_final_data(spec.grid, seed=8))

    def test_adjoint_matches_characteristic_recomputation(self):
        spec = make_spec(beta=zero_rate, Nt=6, Nx=10)
        v_T = sine_mode_data(spec.grid, [[1.0, 0.2], [0.3, 0.0]])
        report = characteristic_consistency(spec, v_T)
        assert report.samples > 0
        assert report.max_rel_defect < 1e-12

    def test_zero_final_data_zero_defect(self):
        spec = make_spec(beta=zero_rate, Nt=4, Nx=6)
        report = characteristic_consistency(spec, Field2.zeros(spec.grid))
        assert report.max_abs_defect == 0.0


class TestRateChecks:
    @pytest.mark.parametrize("which,name", [("mu", "mortality"),
                                            ("beta", "fertility")])
    def test_non_finite_rate_rejected(self, which, name):
        def rate_with_nan(*args):
            a = np.asarray(args[-2], dtype=float)
            return np.where(a > 1.0, np.nan, 0.1) \
                * np.ones_like(np.asarray(args[-1], dtype=float))
        spec = make_spec(**{which: rate_with_nan})
        with pytest.raises(ValueError, match=f"non-finite {name}"):
            solve_forward(spec, y0=random_final_data(spec.grid, seed=0))


class TestOverflow:
    def test_overflow_first_in_the_last_renewal_row(self):
        # beta = H from age 1: every product beta*y stays finite, and so
        # does level 1, but level 2's renewal integral weighs three
        # fertile rows (weights 1/2, 1/2, 1/4) and overflows inside einsum
        big = 1.6e308
        rates = VitalRates(beta=lambda a, x: np.where(a >= 1.0, big, 0.0)
                           + 0.0 * x, mu=zero_rate, a_bar=0.5)
        k = Tabulated(np.array([0.0, 1.0]), np.full(2, 1e-9), np.zeros(2))

        def spec_for(Nt):
            grid = Grid(T=0.5 * Nt, A=2.0, Nt=Nt, Na=4, Nx=2)
            y0 = np.zeros((grid.Na + 1, grid.Nx + 1))
            y0[:3, 1] = 1.0
            return ProblemSpec(k=k, rates=rates, grid=grid, omega=(0.3, 0.7),
                               y0=Field2(grid, y0))

        assert np.all(np.isfinite(solve_forward(spec_for(1)).state.values))
        with pytest.raises(FloatingPointError, match=r"forward march: "
                           r"overflow in the renewal integral at time "
                           r"level 2 \(Nt = 2\)"):
            solve_forward(spec_for(2))

    def test_overflowing_energy_constant_is_vacuous(self):
        # exp(A * 400^2 * T) overflows: the bound holds with C = inf
        spec = make_spec(beta=lambda a, x: 100.0 * beta_ramp(a, x))
        traj = solve_forward(spec, y0=random_final_data(spec.grid, seed=0))
        audit = energy_audit(traj, spec)
        assert audit.constant == math.inf
        assert audit.passed
        zero = energy_audit(solve_forward(spec, y0=Field2.zeros(spec.grid)),
                            spec)
        assert zero.passed and zero.rhs_bound == 0.0

    def test_window_needs_an_interior_node(self):
        with pytest.raises(ValueError, match="no interior x node"):
            make_spec(Nx=10, omega=(0.31, 0.32))
        assert make_spec(Nx=10, omega=(0.31, 0.4)).omega == (0.31, 0.4)


class TestControlPairing:
    def test_slice_zero_excluded(self):
        grid = Grid.aligned(T=1.0, A=2.0, Nt=4, Nx=6)
        vals = np.zeros((grid.Nt + 1, grid.Na + 1, grid.Nx + 1))
        vals[0] = 7.0
        assert control_norm(Field3(grid, vals)) == 0.0

    def test_inner_requires_same_grid(self):
        g1 = Grid.aligned(T=1.0, A=2.0, Nt=4, Nx=6)
        g2 = Grid.aligned(T=1.0, A=2.0, Nt=8, Nx=6)
        with pytest.raises(ValueError):
            control_inner(Field3.zeros(g1), Field3.zeros(g2))

    def test_lattice_norm_scaling(self):
        grid = Grid.aligned(T=1.0, A=2.0, Nt=4, Nx=6)
        u = np.ones((grid.Na + 1, grid.Nx + 1))
        assert lattice_norm(u, grid) == pytest.approx(
            np.sqrt(grid.da * grid.dx * u.size))


class TestMarchOutputsScannedOnce:
    """A march raises at the level that overflows, so the fields it
    returns are not scanned for finiteness a second time."""

    def test_marches_scan_no_output(self, monkeypatch):
        spec = make_spec()
        y0 = random_final_data(spec.grid, seed=0, stream=0)
        v_T = random_final_data(spec.grid, seed=0, stream=1)
        scanned = []
        check = discretize._check_values

        def spy(values, shape, what):
            scanned.append(shape)
            return check(values, shape, what)

        monkeypatch.setattr(discretize, "_check_values", spy)
        grid = spec.grid
        forward = solve_forward(spec, y0=y0)
        adjoint = solve_adjoint(spec, v_T)
        assert (grid.Nt + 1, grid.Na + 1, grid.Nx + 1) not in scanned
        assert np.isfinite(forward.state.values).all()
        assert np.isfinite(observation(spec, adjoint).values).all()
