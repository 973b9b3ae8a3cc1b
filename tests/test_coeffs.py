import dataclasses

import numpy as np
import pytest

from degenpop.coeffs import (DEFAULT_S_SWEEP, PowerLaw, Tabulated,
                             VitalRates, build_carleman_weights,
                             classify_degeneracy, eval_theta,
                             validate_hypotheses)
from degenpop.discretize import Grid


def make_grid(Nt=8, Nx=16):
    return Grid.aligned(T=1.0, A=2.0, Nt=Nt, Nx=Nx)


class TestPowerLaw:
    def test_values_and_derivative(self):
        k = PowerLaw(0.5, 0.0)
        xs = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(k.k(xs), xs ** 0.5)
        np.testing.assert_allclose(k.kprime(xs), 0.5 * xs ** -0.5)

    def test_two_sided_product(self):
        k = PowerLaw(0.5, 1.5)
        xs = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(k.k(xs), xs ** 0.5 * (1 - xs) ** 1.5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PowerLaw(-0.1)

    @pytest.mark.parametrize("alphas, name", [
        ((np.nan,), "alpha0"), ((np.inf,), "alpha0"),
        ((0.5, np.nan), "alpha1"), ((0.5, np.inf), "alpha1")])
    def test_non_finite_exponent_rejected(self, alphas, name):
        with pytest.raises(ValueError, match=f"exponent {name} must be finite"):
            PowerLaw(*alphas)

    def test_face_values_are_midpoint_exact(self):
        k = PowerLaw(1.5)
        nodes = np.linspace(0.0, 1.0, 9)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        np.testing.assert_array_equal(k.face_values(nodes), k.k(mids))

    def test_log_k_handles_zero_exponents(self):
        # alpha1 = 0 must not produce 0 * log(0) = nan at x = 1
        k = PowerLaw(0.5, 0.0)
        vals = k.log_k(np.array([0.0, 0.5, 1.0]))
        assert vals[0] == -np.inf
        assert np.isfinite(vals[1]) and vals[2] == 0.0

    def test_slope_ratios(self):
        k = PowerLaw(0.5, 0.25)
        xs = np.array([0.2, 0.7])
        for end in (0.0, 1.0):
            np.testing.assert_allclose(k.slope_ratio(xs, end),
                                       (xs - end) * k.kprime(xs) / k.k(xs))


class TestTabulated:
    def test_requires_increasing_abscissae(self):
        with pytest.raises(ValueError, match="increasing"):
            Tabulated(np.array([0.0, 0.5, 0.4]), np.ones(3), np.ones(3))

    @pytest.mark.parametrize("which, bad", [
        (0, np.nan), (1, np.inf), (1, np.nan), (2, np.inf), (2, np.nan)])
    def test_non_finite_samples_rejected(self, which, bad):
        # a nan abscissa passed the ordering check; k and k' were unchecked
        samples = [np.linspace(0.0, 1.0, 4), np.ones(4), np.ones(4)]
        samples[which][-1] = bad
        name = ("x", "k_values", "kprime_values")[which]
        with pytest.raises(ValueError, match=f"tabulated {name} must be finite"):
            Tabulated(*samples)

    def test_negative_k_samples_rejected(self):
        # a sample below zero made the audits' weights log(negative)
        xs = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match=r"tabulated k_values must be "
                                             r"non-negative, got \[-1e-09\]"):
            Tabulated(xs, np.array([-1e-9, 0.5, 1.0]), np.ones(3))
        Tabulated(xs, np.array([0.0, 0.5, 0.0]), np.ones(3))  # zero is fine

    def test_interpolates(self):
        xs = np.linspace(0.0, 1.0, 11)
        tab = Tabulated(xs, xs ** 2, 2 * xs)
        assert tab.k(0.55) == pytest.approx(0.5 * (0.25 + 0.36))

    def test_face_values_average_nodes(self):
        xs = np.linspace(0.0, 1.0, 5)
        tab = Tabulated(xs, xs, np.ones(5))
        np.testing.assert_allclose(tab.face_values(xs),
                                   0.5 * (xs[:-1] + xs[1:]))


class TestClassification:
    def test_one_sided_weak(self):
        ends = classify_degeneracy(PowerLaw(0.5)).ends
        assert list(ends) == [0.0]
        assert ends[0.0].M == 0.5  # weak: M < 1
        assert ends[0.0].theta == pytest.approx(0.5)

    def test_one_sided_strong(self):
        ends = classify_degeneracy(PowerLaw(1.5)).ends
        assert list(ends) == [0.0] and ends[0.0].M >= 1.0
        assert ends[0.0].theta == pytest.approx(1.5)

    def test_two_sided_exponent_is_conservative(self):
        # for a two-sided coefficient the certified theta at 0 sits slightly
        # below alpha0 because k/x^theta is not globally monotone
        ends = classify_degeneracy(PowerLaw(1.5, 1.2)).ends
        assert list(ends) == [0.0, 1.0]
        assert ends[0.0].M >= 1.0 and ends[1.0].M >= 1.0
        assert 0.0 < ends[0.0].theta <= 1.5

    def test_nondegenerate(self):
        xs = np.linspace(0.0, 1.0, 21)
        rep = classify_degeneracy(Tabulated(xs, 1.0 + xs, np.ones(21)))
        assert rep.ends == {}

    @pytest.mark.parametrize("a, b", [(0.5, 0.0), (1.5, 0.0), (0.5, 0.5),
                                      (1.5, 1.2), (0.3, 1.7)])
    def test_mirrored_power_law_swaps_the_ends(self, a, b):
        self._assert_swapped(PowerLaw(a, b), PowerLaw(b, a))

    def test_mirrored_table_swaps_the_ends(self):
        # k = x^1.5 (1-x)^1.2 tabulated, and the same table read from
        # x = 1: x -> 1 - x, k' -> -k'
        xs = np.linspace(0.0, 1.0, 41)
        kv = xs ** 1.5 * (1.0 - xs) ** 1.2
        kp = 1.5 * xs ** 0.5 * (1.0 - xs) ** 1.2 \
            - 1.2 * xs ** 1.5 * (1.0 - xs) ** 0.2
        self._assert_swapped(Tabulated(xs, kv, kp),
                             Tabulated(1.0 - xs[::-1], kv[::-1], -kp[::-1]))

    @staticmethod
    def _assert_swapped(coef, mirrored):
        ends = classify_degeneracy(coef).ends
        swapped = classify_degeneracy(mirrored).ends
        assert sorted(swapped) == sorted(1.0 - end for end in ends)
        for end, deg in ends.items():
            other = swapped[1.0 - end]
            assert other.M == pytest.approx(deg.M, rel=1e-12)
            assert other.theta == pytest.approx(deg.theta, rel=1e-12)

    def test_excluded_slope_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            classify_degeneracy(PowerLaw(2.0))

    def test_interior_zero_rejected(self):
        xs = np.linspace(0.0, 1.0, 21)
        kv = np.abs(xs - 0.5)
        with pytest.raises(ValueError, match="nonpositive"):
            classify_degeneracy(Tabulated(xs, kv, np.sign(xs - 0.5)))


class TestVitalRates:
    def test_grids_broadcast(self):
        grid = make_grid()
        rates = VitalRates(beta=lambda a, x: a * (1.0 + 0.0 * x),
                           mu=lambda t, a, x: t + a + x, a_bar=0.5)
        bg = rates.beta_grid(grid)
        assert bg.shape == (grid.Na + 1, grid.Nx + 1)
        np.testing.assert_allclose(bg[:, 0], grid.a_nodes)
        mg = rates.mu_grid(0.25, grid)
        assert mg[2, 3] == pytest.approx(0.25 + grid.a_nodes[2] + grid.x_nodes[3])

    def test_negative_onset_rejected(self):
        with pytest.raises(ValueError):
            VitalRates(beta=None, mu=None, a_bar=-1.0)


class TestCarlemanWeights:
    def test_power_law_primitive_closed_form(self):
        grid = make_grid()
        w = build_carleman_weights(grid, PowerLaw(0.5))
        xs = grid.x_nodes
        np.testing.assert_allclose(w.p, xs ** 1.5 / 1.5)

    def test_quadrature_primitive_matches_closed_form(self):
        grid = make_grid()
        exact = build_carleman_weights(grid, PowerLaw(0.5)).p
        # same integrand through the quadrature path (tabulated k)
        xs_tab = np.linspace(0.0, 1.0, 4001)
        with np.errstate(divide="ignore"):
            kp_tab = np.where(xs_tab > 0, 0.5 * xs_tab ** -0.5, 0.0)
        tab = Tabulated(xs_tab, xs_tab ** 0.5, kp_tab)
        approx = build_carleman_weights(grid, tab).p
        np.testing.assert_allclose(approx, exact, rtol=2e-4, atol=2e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_primitive_from_one_for_k_degenerate_at_one(self, alpha):
        # k = (1-x)^alpha: p = int_x^1 (1-y)/k(y) dy, 0 at x = 1
        grid = make_grid()
        w = build_carleman_weights(grid, PowerLaw(0.0, alpha))
        assert w.end == 1.0
        xs = grid.x_nodes
        np.testing.assert_allclose(w.p, (1.0 - xs) ** (2.0 - alpha)
                                   / (2.0 - alpha))
        assert w.p[-1] == 0.0

    def test_quadrature_primitive_from_one_matches_closed_form(self):
        grid = make_grid()
        exact = build_carleman_weights(grid, PowerLaw(0.0, 0.5)).p
        # same integrand through the quadrature path (tabulated k)
        xs_tab = np.linspace(0.0, 1.0, 4001)
        with np.errstate(divide="ignore"):
            kp_tab = np.where(xs_tab < 1, -0.5 * (1.0 - xs_tab) ** -0.5, 0.0)
        tab = Tabulated(xs_tab, (1.0 - xs_tab) ** 0.5, kp_tab)
        approx = build_carleman_weights(grid, tab)
        assert approx.end == 1.0
        np.testing.assert_allclose(approx.p, exact, rtol=2e-4, atol=2e-6)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_tabulated_primitive_is_the_tables_integral(self, alpha, end):
        # p of k = |x - end|^alpha tabulated on 4001 nodes is the table's
        # own exact integral: the table is linear between its nodes, so
        # int_a^b y/(k_a + m (y - a)) dy has a closed form, h/m next to
        # k_a = 0.  The old quadrature was off by 1.3e-6 at alpha = 0.5 and
        # by 7.9e-3 at alpha = 1.5, at either end
        grid = make_grid()
        xs_tab = np.linspace(0.0, 1.0, 4001)
        dist = np.abs(xs_tab - end)
        k_tab = dist ** alpha
        tab = Tabulated(xs_tab, k_tab, np.gradient(k_tab, xs_tab))
        w = build_carleman_weights(grid, tab)
        assert w.end == end
        # the integral from the end along the table, mirrored for end 1
        ahead = slice(None, None, -1 if end else 1)
        a, k_a = dist[ahead][:-1], k_tab[ahead][:-1]
        h = np.diff(dist[ahead])
        m = np.diff(k_tab[ahead]) / h
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.log1p(m * h / k_a)
            pieces = np.where(k_a == 0.0, h / m,
                              a * log / m + k_a * (m * h / k_a - log) / m ** 2)
        exact = np.concatenate([[0.0], np.cumsum(pieces)])[ahead]
        # the 16-cell grid's nodes are every 250th table node
        np.testing.assert_allclose(w.p, exact[::250], rtol=0.0, atol=1e-13)

    def test_end_is_one_only_for_k_degenerate_at_one_alone(self):
        grid = make_grid()
        ends = [build_carleman_weights(grid, coef).end
                for coef in (PowerLaw(0.5), PowerLaw(0.0, 0.5),
                             PowerLaw(0.5, 0.5), PowerLaw(0.0))]
        assert ends == [0.0, 1.0, 0.0, 0.0]

    def test_sigma_vanishes_at_the_end_opposite_the_degeneracy(self):
        # on (0, 3/4), away from the degenerate end x = 1, k = (1-x)^0.5
        # is positive and sigma grows from 0 at x = 0
        grid = dataclasses.replace(make_grid(), x_span=(0.0, 0.75))
        w = build_carleman_weights(grid, PowerLaw(0.0, 0.5))
        assert w.end == 1.0
        assert w.sigma[0] == 0.0
        assert np.all(np.diff(w.sigma) > 0.0)
        assert w.sigma[-1] == w.sigma_max
        assert np.all(w.Psi < 0.0)

    def test_phi_profile_strictly_negative(self):
        grid = make_grid()
        for coef in (PowerLaw(0.5), PowerLaw(1.5), PowerLaw(0.5, 0.5),
                     PowerLaw(0.0, 0.5)):
            w = build_carleman_weights(grid, coef)
            assert np.all(w.phi_profile() < 0.0)

    def test_nondegenerate_profiles(self):
        grid = make_grid()
        xs = np.linspace(0.0, 1.0, 101)
        tab = Tabulated(xs, 1.0 + xs * (1 - xs), 1.0 - 2.0 * xs)
        w = build_carleman_weights(grid, tab)
        assert w.Psi is not None
        assert np.all(w.Psi < 0.0)
        assert w.sigma[0] == pytest.approx(w.sigma_max)
        assert w.sigma[-1] == pytest.approx(0.0, abs=1e-15)

    def test_require_nondeg_raises_for_degenerate(self):
        w = build_carleman_weights(make_grid(), PowerLaw(0.5))
        with pytest.raises(ValueError, match="strictly positive"):
            w.require_nondeg()

    @pytest.mark.parametrize("sweep", [(), (-1.0,), (0.0,), (1.0, -2.0),
                                       (float("inf"),), (1.0, float("nan"))])
    def test_sweep_validated(self, sweep):
        # an empty sweep gave a report of no rows; -1.0 a misleading error
        # about infinite weights
        with pytest.raises(ValueError, match="s_sweep must hold one or more "
                           "finite positive values"):
            build_carleman_weights(make_grid(), PowerLaw(0.5), s_sweep=sweep)


class TestThetaWeight:
    def test_poles_are_inf(self):
        assert eval_theta(0.0, 1.0, T=1.0) == np.inf
        assert eval_theta(1.0, 1.0, T=1.0) == np.inf
        assert eval_theta(0.5, 0.0, T=1.0) == np.inf

    def test_minimum_on_default_box(self):
        # min over (0,T) x (0,A) at t = T/2, a = A: 1/((T/2)^8 A^4)
        t = np.linspace(0.0, 1.0, 101)[:, None]
        a = np.linspace(0.0, 2.0, 101)[None, :]
        vals = eval_theta(t, a, T=1.0)
        assert np.min(vals) == pytest.approx(16.0)


class TestHypotheses:
    def _rates(self):
        def beta(a, x):
            ramp = np.clip((a - 0.5) / 0.25, 0.0, 1.0)
            return 4.0 * ramp * ramp * (3 - 2 * ramp) * np.ones_like(
                np.asarray(x, dtype=float))

        return VitalRates(beta=beta,
                          mu=lambda t, a, x: 0.2 + 0.1 * a + 0.0 * np.asarray(x),
                          a_bar=0.5)

    def test_reference_setup_passes(self):
        report = validate_hypotheses(PowerLaw(0.5, 0.5), self._rates(),
                                     T=1.0, A=2.0, omega=(0.3, 0.7), delta=1.25)
        assert report.passed
        assert report.failures() == ()

    def test_bad_window_fails_with_detail(self):
        report = validate_hypotheses(PowerLaw(0.5), self._rates(),
                                     T=1.0, A=2.0, omega=(0.0, 0.7),
                                     delta=1.25)
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert "control window" in names

    def test_beta_support_violation_detected(self):
        rates = VitalRates(beta=lambda a, x: 1.0 + 0.0 * a + 0.0 * x,
                           mu=lambda t, a, x: 0.0 * a + 0.0 * x, a_bar=0.5)
        report = validate_hypotheses(PowerLaw(0.5), rates,
                                     T=1.0, A=2.0, omega=(0.3, 0.7),
                                     delta=1.25)
        failed = {c.name for c in report.failures()}
        assert "fertility support" in failed

    @pytest.mark.parametrize("delta,passed", [(1.25, True), (0.5, False),
                                              (2.0, False)])
    def test_age_cutoff_is_always_checked(self, delta, passed):
        report = validate_hypotheses(PowerLaw(0.5, 0.5), self._rates(),
                                     T=1.0, A=2.0, omega=(0.3, 0.7),
                                     delta=delta)
        cutoff, = [c for c in report.checks if c.name == "age cutoff"]
        assert cutoff.passed is passed
        assert cutoff.detail == f"delta = {delta:.6g} (need T < delta < A)"

    # the lines validate prints, up to and after the degeneracy checks
    _HEAD = ["[ok] horizon: T = 1, A = 2 (need T < A)",
             "[ok] fertility onset: a_bar = 0.5 (need 0 < a_bar <= T)",
             "[ok] age cutoff: delta = 1.25 (need T < delta < A)",
             "[ok] control window: omega = (0.3, 0.7) "
             "(need 0 < lo < hi < 1)",
             "[ok] interior positivity: k > 0 on (0, 1)"]
    _TAIL = ["[ok] fertility sign: beta >= 0 on samples",
             "[ok] fertility support: beta vanishes for a <= a_bar = 0.5",
             "[ok] mortality sign: mu >= 0 on samples"]

    @pytest.mark.parametrize("coef, lines", [
        (PowerLaw(0.5), [
            "[ok] slope bound at 0: x k'/k <= M1 = 0.5 on the sampled "
            "half next to 0",
            "[ok] monotonicity exponent at 0: theta0 = 0.5 certified near 0"]),
        (PowerLaw(0.0, 1.5), [
            "[ok] slope bound at 1: (x-1) k'/k <= M2 = 1.5 on the sampled "
            "half next to 1",
            "[ok] monotonicity exponent at 1: theta1 = 1.5 certified near 1"]),
        (PowerLaw(1.5, 1.2), [
            "[ok] slope bound at 0: x k'/k <= M1 = 1.5 on the sampled "
            "half next to 0",
            "[ok] monotonicity exponent at 0: theta0 = 1.43684 certified "
            "near 0",
            "[ok] slope bound at 1: (x-1) k'/k <= M2 = 1.2 on the sampled "
            "half next to 1",
            "[ok] monotonicity exponent at 1: theta1 = 1.12105 certified "
            "near 1"]),
        (Tabulated(np.linspace(0.0, 1.0, 21), np.linspace(1.0, 2.0, 21),
                   np.ones(21)), [
            "[FAIL] degeneracy class: k is bounded away from zero at both "
            "ends; no degenerate endpoint"]),
    ], ids=["at 0", "at 1", "both", "neither"])
    def test_report_lines_are_the_printed_text(self, coef, lines):
        report = validate_hypotheses(coef, self._rates(), T=1.0, A=2.0,
                                     omega=(0.3, 0.7), delta=1.25)
        assert report.lines() == self._HEAD + lines + self._TAIL

    def test_slope_bound_read_where_m_is_certified(self):
        # k = (1-x)^1.5 on 41 nodes with k' by np.gradient, as a config
        # table without kprime gives it: M2 = 1.49983 is certified on the
        # half next to x = 1, and the ratio is 1.50005 at x = 0.00125, on
        # the other half, where no bound at 1 is claimed
        xs = np.linspace(0.0, 1.0, 41)
        kv = (1.0 - xs) ** 1.5
        coef = Tabulated(xs, kv, np.gradient(kv, xs, edge_order=2))
        far = np.linspace(0.0, 1.0, 801)[1:400]
        assert np.max(coef.slope_ratio(far, 1.0)) > \
            classify_degeneracy(coef).ends[1.0].M + 1e-9
        report = validate_hypotheses(coef, self._rates(), T=1.0, A=2.0,
                                     omega=(0.3, 0.7), delta=1.25)
        assert report.passed, report.lines()

    def test_slope_bound_broken_next_to_its_end_fails(self):
        # k = x with a spike of k' at x = 241/800, a node of validate's
        # lattice between two nodes of classify_degeneracy's: M1 = 1 is
        # certified, and x k'/k = 1.5 there breaks it
        xs = np.concatenate([np.linspace(0.0, 1.0, 11), [0.301, 0.30125,
                                                         0.3015]])
        order = np.argsort(xs)
        kprime = np.where(xs == 0.30125, 1.5, 1.0)
        coef = Tabulated(xs[order], xs[order], kprime[order])
        assert classify_degeneracy(coef).ends[0.0].M == pytest.approx(1.0)
        report = validate_hypotheses(coef, self._rates(), T=1.0, A=2.0,
                                     omega=(0.3, 0.7), delta=1.25)
        failed = [c.name for c in report.failures()]
        assert failed == ["slope bound at 0"]

    def test_report_lines_render(self):
        report = validate_hypotheses(PowerLaw(0.5), self._rates(),
                                     T=1.0, A=2.0, omega=(0.3, 0.7),
                                     delta=1.25)
        lines = report.lines()
        assert all(line.startswith("[") for line in lines)


def test_default_sweep_is_increasing():
    assert list(DEFAULT_S_SWEEP) == sorted(DEFAULT_S_SWEEP)
    assert DEFAULT_S_SWEEP[0] > 0
