import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import degenpop.inequalities as inequalities
from degenpop.coeffs import (DEFAULT_S_SWEEP, PowerLaw, Tabulated,
                             VitalRates, build_carleman_weights)
from degenpop.discretize import (Field2, Field3, Grid, random_final_data,
                                 spawn_rng, weighted_norm)
from degenpop.inequalities import (ReportRow,
                                   caccioppoli_audit,
                                   carleman_audit_deg0, carleman_audit_deg1,
                                   carleman_audit_nondeg,
                                   carleman_local_audit, hardy_ratio,
                                   hardy_ratio_at_zero, manufactured_adjoint,
                                   manufactured_family, observability_ratio,
                                   random_adjoint_profiles,
                                   random_hardy_test_functions)
from degenpop.scenarios import AUDITS, preset
from degenpop.solver import ProblemSpec, solve_adjoint

S_SMALL = (0.05, 0.2, 1.0)


def small_spec(Nt=8, Nx=12, k=None, omega=(0.3, 0.7)):
    grid = Grid.aligned(T=1.0, A=2.0, Nt=Nt, Nx=Nx)
    rates = VitalRates(beta=lambda a, x: 0.5 + 0.0 * a * x,
                       mu=lambda t, a, x: 0.1 + 0.0 * a * x, a_bar=0.5)
    return ProblemSpec(k=k or PowerLaw(0.5, 0.0), rates=rates, grid=grid,
                       omega=omega)


class TestHardyOracles:
    def test_weak_degeneracy_exact_ratio(self):
        # k = (1-x)^{1/2}, w = 1-x: both sides equal int (1-x)^{1/2} = 2/3,
        # so the ratio is exactly 1 (and the certified bound is 16)
        report = hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1p",
                             [Polynomial([1.0, -1.0])])
        assert report.empirical_constant == pytest.approx(1.0, rel=1e-3)
        assert report.meta["bound"] == pytest.approx(16.0)

    def test_strong_degeneracy_exact_ratio(self):
        # k = (1-x)^{3/2}, w = x: lhs = B(3, 1/2) = 16/15, rhs = 2/5,
        # ratio 8/3; bound 4/(1-3/2)^2 = 16
        report = hardy_ratio(PowerLaw(0.0, 1.5), 1.5, "HP2p",
                             [Polynomial([0.0, 1.0])])
        assert report.empirical_constant == pytest.approx(8.0 / 3.0, rel=1e-3)

    def test_at_zero_mirror_matches_direct(self):
        # reflected problem: k = x^{1/2}, w = x near x = 0
        direct = hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1p",
                             [Polynomial([1.0, -1.0])])
        mirrored = hardy_ratio_at_zero(PowerLaw(0.5, 0.0), 0.5, "HP1p",
                                       [Polynomial([0.0, 1.0])])
        assert mirrored.name == "hardy_at_zero"
        assert mirrored.empirical_constant == pytest.approx(
            direct.empirical_constant, rel=1e-12)

    @pytest.mark.parametrize("theta,case", [(0.25, "HP1p"), (0.5, "HP1p"),
                                            (0.75, "HP1p"), (1.25, "HP2p"),
                                            (1.5, "HP2p"), (1.75, "HP2p")])
    def test_random_families_respect_bound(self, theta, case):
        alpha1 = theta
        fns = random_hardy_test_functions(1.0 if theta < 1.0 else 0.0, 25,
                                          seed=7)
        report = hardy_ratio(PowerLaw(0.0, alpha1), theta, case, fns)
        bound = 4.0 / (1.0 - theta) ** 2
        assert report.empirical_constant <= bound * (1.0 + 1e-9)

    def test_mislabeled_theta_trips_certified_bound(self):
        # k really behaves like (1-x)^{1.01}; claiming theta = 1.99 caps
        # the ratio at 4/0.99^2 = 4.08, while w = x gives 2.01 B(3, 0.01)
        # = 198, which the Gauss-Jacobi rule for the left weight
        # (1-x)^{-0.99} gives to round-off
        k = PowerLaw(0.0, 1.01)
        w = Polynomial([0.0, 1.0])
        with pytest.raises(ArithmeticError, match="certified bound"):
            hardy_ratio(k, 1.99, "HP2p", [w])
        # the unprimed case reports the ratio without raising
        report = hardy_ratio(k, 1.99, "HP2", [w])
        assert report.empirical_constant > 10.0 * report.meta["bound"]

    def test_validation_errors(self):
        ok = Polynomial([1.0, -1.0])
        with pytest.raises(ValueError, match="k must be a PowerLaw or a "
                           "Tabulated coefficient, got function"):
            hardy_ratio(lambda x: 1.0 - x, 0.5, "HP1", [ok])
        with pytest.raises(ValueError, match="unknown case"):
            hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP3", [ok])
        with pytest.raises(ValueError, match=r"theta must lie in \(0,1\)"):
            hardy_ratio(PowerLaw(0.0, 0.5), 1.5, "HP1", [ok])
        with pytest.raises(ValueError, match=r"theta must lie in \(1,2\)"):
            hardy_ratio(PowerLaw(0.0, 1.5), 0.5, "HP2", [ok])
        with pytest.raises(ValueError, match="does not vanish"):
            hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1", [Polynomial([1.0])])
        for ratio in (hardy_ratio, hardy_ratio_at_zero):
            with pytest.raises(ValueError, match="empty test function family"):
                ratio(PowerLaw(0.5, 0.5), 0.5, "HP1", [])

    @pytest.mark.parametrize("bad", [
        lambda x: 1.0 - x,
        (Polynomial([1.0, -1.0]), lambda x: -np.ones_like(x)),
        Polynomial([1.0, -1.0], domain=[0.0, 1.0]),
        (Polynomial([1.0, -1.0]),),
        (Polynomial([1.0, -1.0]), Polynomial([-1.0])),
        Polynomial([1.0, -1.0j]),
    ], ids=["callable w", "pair with callable w'", "not in x", "one-tuple",
            "pair", "complex"])
    def test_test_functions_are_polynomials_in_x(self, bad):
        # w' is w's derivative, never an input: a (w, w') pair is refused
        ok = Polynomial([1.0, -1.0])
        for ratio in (hardy_ratio, hardy_ratio_at_zero):
            with pytest.raises(ValueError, match="^test function 1 is not a "
                               "numpy.polynomial.Polynomial in x$"):
                ratio(PowerLaw(0.5, 0.5), 0.5, "HP1", [ok, bad])

    def test_report_plumbing(self, tmp_path):
        fns = random_hardy_test_functions(1.0, 5, seed=3)
        report = hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1p", fns)
        assert len(report.ratios()) == 5
        path = tmp_path / "hardy.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,s,lhs,rhs,ratio"
        assert len(lines) == 6
        summary = report.summary()
        assert summary["name"] == "hardy"
        assert summary["samples"] == 5
        report.write_summary(tmp_path / "hardy.json")


def _reference_weighted_norm(values, x, weight):
    # weighted_norm as it was when every Hardy test function re-evaluated
    # the weight and rebuilt the quadrature: a loop over the cells
    f = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    g = np.broadcast_to(np.asarray(weight(x), dtype=float), f.shape) * f * f
    h = float(x[1] - x[0])
    return float((0.5 * h * (g[:-1] + g[1:])).sum())


def _reference_hardy_rows(k, fns, end, case, dtype):
    # each test function's sides summed node by node, in dtype, over the
    # audit's Gauss rules, with w' and q = (w - w(end)) / (x - end) from
    # Polynomial's own derivative and division, and Horner's rule in dtype
    rhs_rule = inequalities._k_rule(k, 8)
    hp1 = case.startswith("HP1")
    lhs_rule = rhs_rule if hp1 else inequalities._k_rule(k, 8, end)

    def side(rule, p):
        x, weights = (np.asarray(a).astype(dtype) for a in rule)
        values = np.zeros_like(x)
        for c in p.coef.astype(dtype)[::-1]:
            values = values * x + c
        total = dtype(0.0)
        for term in weights * values ** 2:
            total += term
        return float(total)

    rows = []
    for idx, w in enumerate(fns):
        p = (w - w(end)) // Polynomial([-end, 1.0]) if hp1 else w
        lhs, rhs = side(lhs_rule, p), side(rhs_rule, w.deriv())
        rows.append(ReportRow(idx, 0.0, lhs, rhs, lhs / rhs))
    return tuple(rows)


def _reference_family(vanish_at, count, seed):
    rng = spawn_rng(seed, stream=11)
    pairs = []
    for _ in range(count):
        poly = Polynomial(rng.standard_normal(7))
        edge = Polynomial([1.0, -1.0]) if vanish_at == 1.0 \
            else Polynomial([0.0, 1.0])
        w = edge * poly
        pairs.append((w, w.deriv()))
    return pairs


# Hardy rows stay within 1.2e-15 relative of per-function sums over the
# same Gauss nodes, in double or in np.longdouble; the Carleman-type level
# kernel's sums move by at most 7.9e-16 from the per-(sample, s) loop's
ROUND_OFF = 1e-13


def _assert_rows_close(got, want, rel=ROUND_OFF):
    assert [(r.sample_id, r.s) for r in got] == \
        [(r.sample_id, r.s) for r in want]
    for g, r in zip(got, want):
        for side in ("lhs", "rhs", "ratio"):
            assert getattr(g, side) == _close(getattr(r, side), rel), side


def _close(value, rel=ROUND_OFF):
    return pytest.approx(value, rel=rel, abs=0.0)


def _one_end(at_zero, theta):
    """The audit of one end, a k that degenerates there with exponent
    theta, and the end, where the left weight is singular."""
    if at_zero:
        return hardy_ratio_at_zero, PowerLaw(theta, 0.0), 0.0
    return hardy_ratio, PowerLaw(0.0, theta), 1.0


def _table(end):
    """A piecewise-linear k over three intervals of (0, 1), 0 at ``end``;
    its last knot lies beyond the other end."""
    x = np.array([0.0, 0.25, 0.625, 1.5])
    k = np.array([0.0, 0.5, 0.75, 1.25])
    if end:
        x, k = 1.0 - x[::-1], k[::-1]
    return Tabulated(x, k, np.zeros_like(x))


# exact rational arithmetic on power-series coefficients, as Fractions

def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_quotient(c, end):
    """(w - w(end)) / (x - end) by synthetic division; w(end) dropped."""
    q, carry = [], Fraction(0)
    for coef in c[:0:-1]:
        carry = coef + end * carry
        q.append(carry)
    return q[::-1]


def _exact_power_rows(fns, theta, case, end):
    # k = |x - end|^theta: in y = |x - end| each side is int_0^1 y^e p^2,
    # the sum of c_j / (j + e + 1) over the coefficients c_j of p^2
    theta = Fraction(theta)
    rows = []
    for idx, w in enumerate(fns):
        c = [Fraction(v) for v in w.coef]
        if end:  # w in y = 1 - x
            c = [sum(cj * math.comb(j, m) * (-1) ** m
                     for j, cj in enumerate(c) if j >= m)
                 for m in range(len(c))]
        p, e = (c[1:], theta) if case.startswith("HP1") else (c, theta - 2)
        wp = [j * cj for j, cj in enumerate(c)][1:]

        def moment(p, e):
            return float(sum(cj / (j + e + 1)
                             for j, cj in enumerate(_times(p, p))))

        lhs, rhs = moment(p, e), moment(wp, theta)
        rows.append(ReportRow(idx, 0.0, lhs, rhs, lhs / rhs))
    return tuple(rows)


def _exact_table_rows(table, fns, end):
    # int_0^1 k p^2 over the pieces where the table's k is linear
    xs = [Fraction(float(v)) for v in table.x]
    ks = [Fraction(float(v)) for v in table.k_values]
    cuts = [Fraction(0)] + [v for v in xs if 0 < v < 1] + [Fraction(1)]

    def k_at(x):
        i = max(i for i in range(len(xs) - 1) if xs[i] <= x)
        return ks[i] + (ks[i + 1] - ks[i]) / (xs[i + 1] - xs[i]) * (x - xs[i])

    def side(p):
        total = Fraction(0)
        for lo, hi in zip(cuts, cuts[1:]):
            slope = (k_at(hi) - k_at(lo)) / (hi - lo)
            terms = _times([k_at(lo) - slope * lo, slope], _times(p, p))
            total += sum(cj * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
                         for j, cj in enumerate(terms))
        return float(total)

    rows = []
    for idx, w in enumerate(fns):
        c = [Fraction(v) for v in w.coef]
        wp = [j * cj for j, cj in enumerate(c)][1:]
        lhs = side(_exact_quotient(c, Fraction(end)))
        rhs = side(wp)
        rows.append(ReportRow(idx, 0.0, lhs, rhs, lhs / rhs))
    return tuple(rows)


# the Gauss sums stay within 7e-15 relative of these closed forms, where
# a 20 001-node trapezoid rule with subdivided end cells was off by up to
# 3.8e-5 (HP1) and 2.5e-3 (HP2)
EXACT = 1e-12


class TestHardyOnce:
    @pytest.mark.parametrize("theta,case", [(0.5, "HP1"), (0.5, "HP1p"),
                                            (1.5, "HP2"), (1.5, "HP2p")])
    @pytest.mark.parametrize("at_zero", [False, True])
    def test_rows_match_the_per_function_loop(self, theta, case, at_zero):
        ratio, k, end = _one_end(at_zero, theta)
        vanish_at = end if case.startswith("HP1") else 1.0 - end
        fns = random_hardy_test_functions(vanish_at, 6, seed=5)
        got = ratio(k, theta, case, fns)
        want = _reference_hardy_rows(k, fns, end, case, float)
        _assert_rows_close(got.rows, want)

    @pytest.mark.parametrize("vanish_at", [0.0, 1.0])
    def test_family_is_the_per_draw_polynomials(self, vanish_at):
        # one (count, 7) draw and array ops give every coefficient of the
        # per-function Polynomial product, bit for bit, and the audit's
        # w' (w's coefficients times their powers) is Polynomial.deriv's
        for seed, count in [(0, 100), (3, 1), (5, 6), (8, 0)]:
            fns = random_hardy_test_functions(vanish_at, count, seed)
            ref = _reference_family(vanish_at, count, seed)
            assert len(fns) == len(ref) == count
            for p, (q, q_prime) in zip(fns, ref):
                assert type(p) is Polynomial
                assert p.coef.tobytes() == q.coef.tobytes()
                assert p.domain.tobytes() == q.domain.tobytes()
                assert p.window.tobytes() == q.window.tobytes()
                derivative = p.coef[1:] * np.arange(1, p.coef.size)
                assert derivative.tobytes() == q_prime.coef.tobytes()

    @pytest.mark.parametrize("ends", [(), (0,), (-1,), (0, -1)])
    @pytest.mark.parametrize("support", ["all", "end cells"])
    def test_weighted_norm_matches_the_reference(self, ends, support):
        # a field on the end cells alone shows their last bits in the sum;
        # at each end in ``ends`` the weight is |x - end|^-gamma, steep next
        # to the end and 0 at its node, since inf ** -gamma == 0
        nodes = np.linspace(0.0, 1.0, 2001)
        values = spawn_rng(2).standard_normal(nodes.size)
        if support == "end cells":
            values[2:-2] = 0.0

        def weight(x):
            x = np.asarray(x, dtype=float)
            w = 1.0 + x
            if 0 in ends:
                w = w * np.where(x > 0.0, x, np.inf) ** -0.5
            if -1 in ends:
                w = w * np.where(x < 1.0, 1.0 - x, np.inf) ** -0.75
            return w

        got = weighted_norm(values, nodes, weight=weight)
        assert got == _close(_reference_weighted_norm(values, nodes, weight))

    @pytest.mark.parametrize("at_zero", [False, True])
    def test_node_passes_do_not_grow_with_the_family(self, monkeypatch,
                                                      at_zero):
        # one polyval of the whole family per side and one for the norms,
        # on the rules' 8 nodes, and one at the vanishing end, whatever
        # the family's size; no test function is called: w is read off
        # its coefficients
        passes = []

        def counted(x, c, tensor=True):
            passes.append(np.size(x))
            return np.polynomial.polynomial.polyval(x, c, tensor)

        monkeypatch.setattr(inequalities, "polyval", counted)
        ratio, k, end = _one_end(at_zero, 0.5)
        for count in (5, 100):
            passes.clear()
            fns = [_Counted(w.coef)
                   for w in random_hardy_test_functions(end, count, seed=0)]
            ratio(k, 0.5, "HP1", fns)
            assert passes == [8, 8, 8, 1]
            assert all(w.points == [] for w in fns)

    @pytest.mark.parametrize("at_zero,case,theta,vanish_at", [
        (False, "HP1", 0.5, "1"), (False, "HP2", 1.5, "0"),
        (True, "HP1", 0.5, "0"), (True, "HP2", 1.5, "1")])
    def test_vanishing_error_names_the_callers_end(self, at_zero, case,
                                                   theta, vanish_at):
        flat = Polynomial([1.0])
        ratio, k, _ = _one_end(at_zero, theta)
        with pytest.raises(ValueError, match=f"test function 1 does not "
                                             f"vanish at x = {vanish_at}$"):
            ratio(k, theta, case,
                  random_hardy_test_functions(float(vanish_at), 1, seed=0)
                  + [flat])

    @pytest.mark.parametrize("at_zero", [False, True])
    def test_k_is_evaluated_on_the_nodes_once(self, monkeypatch, at_zero):
        # a Tabulated k once per report, at the 8 nodes of each of its
        # three intervals; a PowerLaw k never: its rule is built from the
        # exponents
        calls = []
        for cls in (PowerLaw, Tabulated):
            real = cls.k

            def k(self, x, real=real):
                calls.append((type(self), np.size(x)))
                return real(self, x)

            monkeypatch.setattr(cls, "k", k)
        ratio, power_law, end = _one_end(at_zero, 0.5)
        fns = random_hardy_test_functions(end, 5, seed=0)
        ratio(_table(end), 0.5, "HP1", fns)
        ratio(power_law, 0.5, "HP1", fns)
        assert calls == [(Tabulated, 24)]

    def test_non_finite_test_function_names_its_index(self):
        # a non-finite coefficient makes a side non-finite
        ok = Polynomial([1.0, -1.0])
        gap = Polynomial([1.0, np.nan])
        with pytest.raises(ValueError, match="test function 1 .*non-finite"):
            hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1", [ok, gap])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="np.longdouble is double here")
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75, 1.25, 1.5, 1.75])
    @pytest.mark.parametrize("at_zero", [False, True])
    def test_rows_match_a_longdouble_sum(self, theta, at_zero):
        ratio, k, end = _one_end(at_zero, theta)
        case = "HP1" if theta < 1.0 else "HP2"
        vanish_at = end if case == "HP1" else 1.0 - end
        fns = random_hardy_test_functions(vanish_at, 10, seed=5)
        got = ratio(k, theta, case, fns)
        want = _reference_hardy_rows(k, fns, end, case, np.longdouble)
        _assert_rows_close(got.rows, want)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75, 1.25, 1.5, 1.75])
    @pytest.mark.parametrize("at_zero", [False, True])
    def test_rows_match_the_closed_form(self, theta, at_zero):
        # k = (1 - x)^theta at x = 1, x^theta at x = 0
        ratio, k, end = _one_end(at_zero, theta)
        case = "HP1" if theta < 1.0 else "HP2"
        vanish_at = end if case == "HP1" else 1.0 - end
        fns = random_hardy_test_functions(vanish_at, 10, seed=5)
        got = ratio(k, theta, case, fns)
        _assert_rows_close(got.rows, _exact_power_rows(fns, theta, case, end),
                           rel=EXACT)

    @pytest.mark.parametrize("at_zero", [False, True])
    def test_tabulated_rows_match_the_piecewise_integral(self, at_zero):
        ratio, _, end = _one_end(at_zero, 0.5)
        table = _table(end)
        fns = random_hardy_test_functions(end, 6, seed=5)
        got = ratio(table, 0.5, "HP1", fns)
        _assert_rows_close(got.rows, _exact_table_rows(table, fns, end),
                           rel=EXACT)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.0, 0.5), (-0.5, 0.5),
                                     (1.5, 0.0), (-0.99, 0.0), (-0.5, -0.5)])
    def test_gauss_jacobi_rule_is_scipys(self, a, b):
        # a + b = -1 and a + b = 0 are the recurrence's edge cases
        special = pytest.importorskip("scipy.special")
        for n in (1, 2, 8):
            nodes, weights = inequalities._gauss_jacobi(n, a, b)
            # scipy's rule is on [-1, 1], for the weight (1 - y)^a (1 + y)^b
            y, v = special.roots_jacobi(n, a, b)
            assert np.max(np.abs(nodes - 0.5 * (1.0 + y))) <= 1e-15
            np.testing.assert_allclose(weights, v / 2.0 ** (a + b + 1.0),
                                       rtol=1e-12, atol=0.0)

    def test_too_few_nodes_for_the_family_named(self):
        fns = random_hardy_test_functions(1.0, 3, seed=0)  # degree 7
        for n_quad in (1, 7):
            with pytest.raises(ValueError, match=f"^n_quad = {n_quad} .*: "
                                                 f"they need 8$"):
                hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1", fns,
                            n_quad=n_quad)

    def test_trapezoid_sized_n_quad_refused(self):
        # refused before any rule is built: 100 001 Gauss nodes would be
        # one eigh of a 100 001 x 100 001 matrix
        fns = random_hardy_test_functions(1.0, 3, seed=0)
        with pytest.raises(ValueError, match="^n_quad = 100001 Gauss nodes "
                                             "per rule are more than 1000; "
                                             "8 integrate"):
            hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1", fns, n_quad=100_001)
        assert len(hardy_ratio(PowerLaw(0.0, 0.5), 0.5, "HP1", fns,
                               n_quad=1000).rows) == 3

    @pytest.mark.parametrize("power", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("at_zero", [False, True])
    def test_hp2_left_side_diverges_at_a_weak_end(self, power, at_zero):
        # k/(x - end)^2 ~ |x - end|^(power - 2) is not integrable
        ratio, _, end = _one_end(at_zero, 1.5)
        k = PowerLaw(power, 0.0) if at_zero else PowerLaw(0.0, power)
        fns = random_hardy_test_functions(1.0 - end, 3, seed=0)
        for case in ("HP2", "HP2p"):
            with pytest.raises(ValueError, match=(
                    f"^HP2 left side diverges at x = {end:g}: k's exponent "
                    f"there is {power:g}, not above 1$")):
                ratio(k, 1.5, case, fns)

    @pytest.mark.parametrize("at_zero", [False, True])
    def test_hp2_left_side_diverges_for_a_tabulated_k(self, at_zero):
        # piecewise linear: k/(x - end)^2 >= c/|x - end| next to end
        ratio, _, end = _one_end(at_zero, 1.5)
        fns = random_hardy_test_functions(1.0 - end, 3, seed=0)
        with pytest.raises(ValueError, match=f"^HP2 left side diverges at "
                                             f"x = {end:g}: a tabulated k"):
            ratio(_table(end), 1.5, "HP2", fns)


class _Counted(Polynomial):
    """A Polynomial that records the number of points of each call."""

    def __init__(self, coef) -> None:
        super().__init__(coef)
        self.points = []

    def __call__(self, x):
        self.points.append(np.size(x))
        return super().__call__(x)


def _t_dependent(k=None):
    """``small_spec(k=k)`` with mortality depending on t: D differs at
    every level."""
    spec = small_spec(k=k)
    return dataclasses.replace(spec, rates=dataclasses.replace(
        spec.rates, mu=lambda t, a, x: 0.1 + t + 0.0 * a * x))


class TestManufacturedAdjoint:
    def test_reproduction_under_solve_adjoint(self):
        # the pair is beta-free, so it reproduces on a problem with beta = 0
        spec = small_spec()
        spec = dataclasses.replace(spec, rates=dataclasses.replace(
            spec.rates, beta=lambda a, x: 0.0 * a * x))
        grid = spec.grid
        profile = random_adjoint_profiles(grid.T, grid.A, 1, seed=5)[0]
        v, f = manufactured_adjoint(spec, profile)
        v_T = Field2(grid, v.values[-1])
        traj = solve_adjoint(spec, v_T, source=f)
        scale = np.max(np.abs(v.values))
        np.testing.assert_allclose(traj.state.values, v.values,
                                   atol=1e-12 * scale)

    def test_profile_constraints_enforced(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="x-boundary"):
            manufactured_adjoint(spec, lambda t, a, x: np.cos(np.pi * x)
                                 + 0.0 * t * a)
        with pytest.raises(ValueError, match="a = A"):
            manufactured_adjoint(
                spec, lambda t, a, x: np.sin(np.pi * x) * (1.0 + 0.0 * t * a))

    def test_family_size(self):
        spec = small_spec(Nt=4, Nx=8)
        samples = manufactured_family(spec, 3, seed=2)
        assert len(samples) == 3
        for v, f in samples:
            assert v.grid == spec.grid and f.grid == spec.grid

    @pytest.mark.parametrize("name", ["small", "default_degenerate",
                                      "small mu(t)"])
    def test_family_is_the_per_profile_pairs(self, name):
        # the batch sums in another order than the per-profile path: v
        # moves by under 7e-16 of max |v|, f by under 1e-13 of max |f|;
        # with mortality depending on t, each level has its own D
        spec = (preset(name).spec if name == "default_degenerate"
                else small_spec() if name == "small" else _t_dependent())
        grid = spec.grid
        for count, seed in [(30, 0), (3, 11), (1, 5)]:
            family = manufactured_family(spec, count, seed)
            ref = [manufactured_adjoint(spec, p) for p in
                   random_adjoint_profiles(grid.T, grid.A, count, seed)]
            assert len(family) == len(ref) == count
            for pair, want in zip(family, ref):
                for got, field, tol in zip(pair, want, (1e-15, 1e-12)):
                    scale = np.max(np.abs(field.values))
                    np.testing.assert_allclose(got.values, field.values,
                                               rtol=0.0, atol=tol * scale)

    def test_family_reproduces_under_solve_adjoint(self):
        spec = small_spec()
        spec = dataclasses.replace(spec, rates=dataclasses.replace(
            spec.rates, beta=lambda a, x: 0.0 * a * x))
        for v, f in manufactured_family(spec, 30, seed=0):
            traj = solve_adjoint(spec, Field2(spec.grid, v.values[-1]),
                                 source=f)
            scale = np.max(np.abs(v.values))
            np.testing.assert_allclose(traj.state.values, v.values,
                                       atol=1e-12 * scale)

    @pytest.mark.parametrize("mu", ["constant", "time-dependent"])
    def test_one_d_apply_per_mode_and_distinct_level(self, monkeypatch, mu):
        spec = small_spec()
        if mu == "time-dependent":
            spec = dataclasses.replace(spec, rates=dataclasses.replace(
                spec.rates, mu=lambda t, a, x: 0.1 + t + 0.0 * a * x))
        prop = spec._propagator
        distinct = sum(not prop.repeats_level(n)
                       for n in range(1, spec.grid.Nt + 1))
        assert distinct == (1 if mu == "constant" else spec.grid.Nt)
        calls = []
        real = type(prop).apply_diffusion

        def counting(self, level, rows):
            calls.append(level)
            return real(self, level, rows)

        monkeypatch.setattr(type(prop), "apply_diffusion", counting)
        counts = []
        for count in (1, 30):
            calls.clear()
            manufactured_family(spec, count, seed=0)
            counts.append(len(calls))
        assert counts == [4 * distinct] * 2

    def test_family_needs_vanishing_modes(self):
        # on x in (0, 0.5) the modes sin(pi x) are 1 at x = 0.5, as the
        # profiles are, and the family raises as manufactured_adjoint does
        spec = small_spec()
        grid = dataclasses.replace(spec.grid, x_span=(0.0, 0.5))
        spec = dataclasses.replace(spec, grid=grid, omega=(0.2, 0.4))
        with pytest.raises(ValueError, match="x-boundary"):
            manufactured_family(spec, 2, seed=0)
        profile = random_adjoint_profiles(grid.T, grid.A, 1, seed=0)[0]
        with pytest.raises(ValueError, match="x-boundary"):
            manufactured_adjoint(spec, profile)


class TestCarlemanAudits:
    def _samples(self, spec, count=3, seed=11):
        return manufactured_family(spec, count, seed=seed)

    def test_deg0_finite_positive_constant(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        report = carleman_audit_deg0(self._samples(spec), weights)
        assert report.empirical_constant is not None
        assert 0.0 < report.empirical_constant < math.inf
        for row in report.rows:
            assert row.lhs >= 0.0 and row.rhs >= 0.0

    def test_deg0_scaling_invariance(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        samples = self._samples(spec, count=2)
        scaled = [(Field3(spec.grid, 2.0 * v.values),
                   Field3(spec.grid, 2.0 * f.values)) for v, f in samples]
        base = carleman_audit_deg0(samples, weights)
        double = carleman_audit_deg0(scaled, weights)
        assert double.empirical_constant == pytest.approx(
            base.empirical_constant, rel=1e-8)

    def test_deg1_is_exact_mirror_of_deg0(self):
        # deg1 is audited where k degenerates, not by reflecting onto
        # deg0, so on the mirror problem its sums run in another order
        # and the sides agree to round-off (4.0e-16 at most here)
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        samples = self._samples(spec)
        weights0 = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        deg0 = carleman_audit_deg0(samples, weights0)
        mirrored = [(Field3(spec.grid, v.values[:, :, ::-1]),
                     Field3(spec.grid, f.values[:, :, ::-1]))
                    for v, f in samples]
        weights1 = build_carleman_weights(spec.grid, PowerLaw(0.0, 0.5),
                                          s_sweep=S_SMALL)
        deg1 = carleman_audit_deg1(mirrored, weights1)
        assert deg1.name == "carleman_deg1"
        assert [(r.sample_id, r.s) for r in deg1.rows] == \
            [(r.sample_id, r.s) for r in deg0.rows]
        for r0, r1 in zip(deg0.rows, deg1.rows):
            assert r1.lhs == pytest.approx(r0.lhs, rel=1e-13, abs=0.0)
            assert r1.rhs == pytest.approx(r0.rhs, rel=1e-13, abs=0.0)

    def test_deg1_on_a_tabulated_k_mirrors_deg0(self):
        # k = (1-x)^0.5 sampled on 4001 nodes, through Tabulated.log_k;
        # the mirrored table and samples audited at x = 0 give the same
        # sides (1.7e-13 relative at most here)
        xs = np.linspace(0.0, 1.0, 4001)
        with np.errstate(divide="ignore"):
            kp = np.where(xs < 1, -0.5 * (1.0 - xs) ** -0.5, 0.0)
        at_one = Tabulated(xs, (1.0 - xs) ** 0.5, kp)
        at_zero = Tabulated(xs, at_one.k_values[::-1],
                            -at_one.kprime_values[::-1])
        spec = small_spec(k=at_one)
        samples = manufactured_family(spec, 3, seed=11)
        mirrored = [(Field3(spec.grid, v.values[:, :, ::-1]),
                     Field3(spec.grid, f.values[:, :, ::-1]))
                    for v, f in samples]
        deg1 = carleman_audit_deg1(samples, build_carleman_weights(
            spec.grid, at_one, s_sweep=S_SMALL))
        deg0 = carleman_audit_deg0(mirrored, build_carleman_weights(
            spec.grid, at_zero, s_sweep=S_SMALL))
        assert [(r.sample_id, r.s) for r in deg1.rows] == \
            [(r.sample_id, r.s) for r in deg0.rows]
        assert all(r.ratio is not None for r in deg1.rows)
        for r0, r1 in zip(deg0.rows, deg1.rows):
            assert r1.lhs == pytest.approx(r0.lhs, rel=1e-10, abs=0.0)
            assert r1.rhs == pytest.approx(r0.rhs, rel=1e-10, abs=0.0)

    def test_degenerate_audits_need_weights_for_their_end(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        samples = self._samples(spec)
        for k, audit, end in ((PowerLaw(0.0, 0.5), carleman_audit_deg0, 0),
                              (PowerLaw(0.5, 0.0), carleman_audit_deg1, 1),
                              (PowerLaw(0.5, 0.5), carleman_audit_deg1, 1)):
            weights = build_carleman_weights(spec.grid, k, s_sweep=S_SMALL)
            with pytest.raises(ValueError, match=f"carleman_deg{end} needs "
                               f"weights built for k degenerate at x = {end}; "
                               f"these are for x = {1 - end}"):
                audit(samples, weights)

    def test_nondeg_audit_runs(self):
        nodes = np.linspace(0.0, 1.0, 101)
        k_lin = Tabulated(x=nodes, k_values=1.0 + 0.5 * nodes,
                          kprime_values=np.full(nodes.shape, 0.5))
        spec = small_spec(k=k_lin)
        weights = build_carleman_weights(spec.grid, k_lin, s_sweep=S_SMALL)
        report = carleman_audit_nondeg(self._samples(spec), weights)
        assert report.empirical_constant is not None
        assert report.empirical_constant > 0.0

    def test_nondeg_audit_mirrors_for_weights_at_one(self):
        # on (0, 3/4) k = (1-x)^0.5 is positive, and its weights (end 1)
        # anchor sigma at x = 0: the audit is the mirror of the one for
        # k = x^0.5 on (1/4, 1), to round-off
        grid = small_spec().grid
        left = dataclasses.replace(grid, x_span=(0.0, 0.75))
        right = dataclasses.replace(grid, x_span=(0.25, 1.0))
        t, a, x = np.meshgrid(left.t_nodes, left.a_nodes,
                              left.x_nodes / 0.75, indexing="ij")
        v = np.sin(math.pi * x) * np.sin(math.pi * a / grid.A) * (1.0 + t)
        f = v * (2.0 - x)
        reports = []
        for g, k, flip in ((left, PowerLaw(0.0, 0.5), slice(None)),
                           (right, PowerLaw(0.5, 0.0), slice(None, None, -1))):
            weights = build_carleman_weights(g, k, s_sweep=S_SMALL)
            assert weights.end == (1.0 if g is left else 0.0)
            reports.append(carleman_audit_nondeg(
                [(Field3(g, v[:, :, flip]), Field3(g, f[:, :, flip]))],
                weights))
        for r0, r1 in zip(*(report.rows for report in reports)):
            assert r0.lhs == pytest.approx(r1.lhs, rel=1e-12, abs=0.0)
            assert r0.rhs == pytest.approx(r1.rhs, rel=1e-12, abs=0.0)

    def test_nondeg_rejects_degenerate_coefficient(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        with pytest.raises(ValueError):
            carleman_audit_nondeg(self._samples(spec), weights)

    def test_local_audit_deg0(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        report = carleman_local_audit(self._samples(spec), (0.3, 0.7), weights)
        assert report.name == "carleman_local_deg0"
        assert report.empirical_constant is not None
        assert report.meta["omega"] == [0.3, 0.7]

    def test_local_audit_reflects_deg1(self):
        spec = small_spec(k=PowerLaw(0.0, 0.5))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        report = carleman_local_audit(self._samples(spec), (0.3, 0.7), weights)
        assert report.name == "carleman_local_deg1"
        assert report.meta["omega"] == [0.3, 0.7]

    def test_local_audit_names_a_window_of_one_node(self):
        # on Nx = 12 only the node 5/12 lies in [0.35, 0.45]
        for k in (PowerLaw(0.5, 0.0), PowerLaw(0.0, 0.5)):
            spec = small_spec(k=k)
            weights = build_carleman_weights(spec.grid, k, s_sweep=S_SMALL)
            with pytest.raises(ValueError, match=r"window omega = "
                               r"\[0.35, 0.45\] .*needs two x nodes"):
                carleman_local_audit(self._samples(spec), (0.35, 0.45),
                                     weights)

    def test_local_audit_rejects_two_sided(self):
        spec = small_spec(k=PowerLaw(0.5, 0.5))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        with pytest.raises(ValueError, match="gluing"):
            carleman_local_audit(self._samples(spec), (0.3, 0.7), weights)

    def test_empty_and_zero_samples_rejected(self):
        spec = small_spec()
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        with pytest.raises(ValueError, match="empty"):
            carleman_audit_deg0([], weights)
        zeros = [(Field3.zeros(spec.grid), Field3.zeros(spec.grid))]
        with pytest.raises(ValueError, match="zero"):
            carleman_audit_deg0(zeros, weights)

    def test_family_of_vanishing_modes_is_zero(self):
        # the only ages are 0 and A, where every mode vanishes, so every
        # sample is zero whatever its time factors
        spec = dataclasses.replace(small_spec(), grid=Grid(
            T=2.0, A=2.0, Nt=1, Na=1, Nx=12))
        family = manufactured_family(spec, 3, seed=0)
        assert family.times.all()
        assert not any(field.values.any() for pair in family
                       for field in pair)
        with pytest.raises(ValueError, match="all samples are zero"):
            caccioppoli_audit(family, (0.35, 0.65), (0.25, 0.75), s=1.0)

    def test_list_nonzero_only_at_t0_runs_excluded(self):
        # a nonzero entry anywhere passes the check; level 0 is a Theta
        # pole level, so every row is an excluded 0/0
        spec = small_spec()
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        v = Field3.zeros(spec.grid)
        v.values[0, 3, 5] = 1.0
        report = carleman_audit_deg0([(v, Field3.zeros(spec.grid))], weights)
        assert len(report.rows) == len(S_SMALL)
        assert all(r.ratio is None for r in report.rows)

    def test_grid_mismatch_rejected(self):
        spec = small_spec()
        other = small_spec(Nt=4, Nx=8)
        weights = build_carleman_weights(other.grid, spec.k, s_sweep=S_SMALL)
        with pytest.raises(ValueError, match="grid"):
            carleman_audit_deg0(self._samples(spec), weights)

    def test_infinite_weight_needs_a_vanishing_sample(self):
        # x^2/k is +inf at x = 1 for k = x^0.5 (1-x)^0.5, where a
        # Dirichlet sample vanishes; one that does not has no finite lhs
        spec = small_spec(k=PowerLaw(0.5, 0.5))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        samples = self._samples(spec)
        report = carleman_audit_deg0(samples, weights)
        assert all(math.isfinite(r.lhs) and math.isfinite(r.rhs)
                   for r in report.rows)
        samples = list(samples)  # a family is read-only; a list is not
        v, f = samples[1]
        vals = v.values.copy()
        vals[:, :, -1] = 1.0
        samples[1] = (Field3(spec.grid, vals), f)
        with pytest.raises(ValueError, match=r"sample 1 is nonzero where "
                           r"its v weight is infinite"):
            carleman_audit_deg0(samples, weights)


class TestPinnedConstants:
    """Empirical constants of the Carleman-type audits on the small grid,
    pinned so that a change to the weighted quadrature cannot pass
    unnoticed; three manufactured samples at seed 11."""

    NODES = np.linspace(0.0, 1.0, 101)
    # case -> (k, audit, arguments between samples and weights, constant)
    CASES = {
        "deg0": (PowerLaw(0.5, 0.0), carleman_audit_deg0, (),
                 0.05438943988687022),
        "deg1": (PowerLaw(0.0, 0.5), carleman_audit_deg1, (),
                 0.04061584468541728),
        "nondeg": (Tabulated(x=NODES, k_values=1.0 + 0.5 * NODES,
                             kprime_values=np.full(NODES.shape, 0.5)),
                   carleman_audit_nondeg, (), 0.059677172641265146),
        "local_deg0": (PowerLaw(0.5, 0.0), carleman_local_audit, ((0.3, 0.7),),
                       0.23543763965874526),
        "local_deg1": (PowerLaw(0.0, 0.5), carleman_local_audit, ((0.3, 0.7),),
                       0.23217414296827268),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_carleman_constants(self, case):
        k, audit, args, expected = self.CASES[case]
        spec = small_spec(k=k)
        samples = manufactured_family(spec, 3, seed=11)
        weights = build_carleman_weights(spec.grid, k, s_sweep=S_SMALL)
        assert audit(samples, *args, weights).empirical_constant == \
            pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_caccioppoli_constant(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        samples = manufactured_family(spec, 3, seed=11)
        report = caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75),
                                   s=1.0)
        # abs=0: approx's default absolute tolerance of 1e-12 would
        # accept any value this small
        assert report.empirical_constant == pytest.approx(
            2.5205657747846396e-38, rel=1e-12, abs=0.0)


class TestWeightsOncePerS:
    """The weights are built once per time level and term for the whole
    sweep: never per sample, never per s, and not at the Theta pole levels
    0 and Nt, where every one is 0."""

    def _levels_of_weight_calls(self, monkeypatch, run):
        calls = []
        real = inequalities._weight

        def counting(levels, n, *args, **kwargs):
            calls.append(n)
            return real(levels, n, *args, **kwargs)

        monkeypatch.setattr(inequalities, "_weight", counting)
        run()
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("case", TestPinnedConstants.CASES)
    def test_carleman_audits(self, monkeypatch, case):
        k, audit, args, _ = TestPinnedConstants.CASES[case]
        spec = small_spec(k=k)

        def calls(count, sweep):
            samples = manufactured_family(spec, count, seed=11)
            weights = build_carleman_weights(spec.grid, k, s_sweep=sweep)
            return self._levels_of_weight_calls(
                monkeypatch, lambda: audit(samples, *args, weights))

        one = calls(1, S_SMALL)
        assert calls(4, S_SMALL) == one
        assert calls(1, (0.5,)) == calls(1, DEFAULT_S_SWEEP) == one
        levels = range(1, spec.grid.Nt)
        per_level = len(one) // len(levels)
        assert per_level > 0
        assert one == [n for n in levels for _ in range(per_level)]

    def test_caccioppoli(self, monkeypatch):
        spec = small_spec()

        def calls(count):
            samples = manufactured_family(spec, count, seed=11)
            return self._levels_of_weight_calls(monkeypatch, lambda: (
                caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75),
                                  s=1.0)))

        assert calls(1) == calls(4) == [n for n in range(1, spec.grid.Nt)
                                        for _ in range(2)]

    @pytest.mark.parametrize("case", list(TestPinnedConstants.CASES)
                             + ["caccioppoli"])
    def test_pole_levels_change_no_row(self, monkeypatch, case):
        # building and summing the pole levels' weights, which are all 0,
        # gives the same rows bit for bit
        if case == "caccioppoli":
            spec = small_spec()
            samples = manufactured_family(spec, 3, seed=11)
            run = lambda: caccioppoli_audit(samples, (0.35, 0.65),
                                            (0.25, 0.75), s=1.0)
        else:
            k, audit, args, _ = TestPinnedConstants.CASES[case]
            spec = small_spec(k=k)
            samples = manufactured_family(spec, 3, seed=11)
            weights = build_carleman_weights(spec.grid, k, s_sweep=S_SMALL)
            run = lambda: audit(samples, *args, weights)
        skipped = run()
        monkeypatch.setattr(inequalities._Levels, "pole_level",
                            lambda self, n: False)
        assert repr(run().rows) == repr(skipped.rows)

    @pytest.mark.parametrize("x_rule", ["edge", "bracket", "inner"])
    def test_column_weights_are_the_full_blocks(self, x_rule):
        # a weight with an x rule takes exp only where the rule is nonzero
        # and is the full-grid block bit for bit, 0s included; an entry is
        # 0 where its product with the rule would fall below e times the
        # smallest normal float
        spec = preset("default_degenerate").spec
        grid, xs = spec.grid, spec.grid.x_nodes
        levels = inequalities._Levels(grid)
        s = inequalities._column(DEFAULT_S_SWEEP)
        rule = np.zeros(grid.Nx + 1)
        if x_rule == "edge":
            rule[-1] = 0.75
        elif x_rule == "bracket":
            rule[[0, -1]] = [-0.5, 1.5]
        else:
            rule = inequalities._window_rule(grid, (0.35, 0.65), "omega'")
        profile = -(1.0 + 4.0 * xs * (1.0 - xs))
        for log_geom in (0.0, 0.3 * xs):
            for n in (0, 1, grid.Nt // 2, grid.Nt):
                trapezoid = levels.rule_at(n, rule)
                with np.errstate(divide="ignore", invalid="ignore"):
                    full = 2.0 * s * levels.theta[n] * profile
                    full += levels.log_theta[n]
                    full += log_geom
                    small = full < math.log(np.finfo(float).tiny) + 1.0 \
                        - np.log(np.abs(trapezoid))
                    np.exp(full, out=full)
                full[small] = 0.0
                full[:, levels.poles[n]] = 0.0
                full *= trapezoid
                with np.errstate(invalid="ignore"):
                    exponent = 2.0 * s * levels.theta[n] * profile
                got = inequalities._weight(levels, n, exponent, 1.0,
                                           log_geom, rule, None)
                assert got.tobytes() == full.tobytes()

    def test_preset_weights_hold_no_subnormal(self, monkeypatch):
        # an entry whose product with its rule would be subnormal is 0;
        # cut before the rule was multiplied in, 881 entries of these
        # audits' weights were subnormal
        subnormal = []
        real = inequalities._weight

        def scanning(*args, **kwargs):
            block = real(*args, **kwargs)
            subnormal.append(int(np.count_nonzero(
                (block != 0.0) & (np.abs(block) < np.finfo(float).tiny))))
            return block

        monkeypatch.setattr(inequalities, "_weight", scanning)
        scenario = preset("default_degenerate")
        for audit in ("carleman", "caccioppoli"):
            AUDITS[audit](scenario, count=1)
        assert len(subnormal) > 0 and sum(subnormal) == 0

    def test_memory_is_per_level_blocks(self):
        # a level's weight blocks for the whole sweep and the family's
        # basis products, 46 level blocks whatever the count, never a
        # weight over Q per s (the per-s weights over Q peaked at 9.9
        # Q-sized arrays here) and no block per sample (the squares took
        # three per sample and level)
        spec = small_spec(Nt=24)
        grid = spec.grid
        level = 8 * (grid.Na + 1) * (grid.Nx + 1)

        def peak(sweep, count):
            samples = manufactured_family(spec, count, seed=11)
            weights = build_carleman_weights(grid, spec.k, s_sweep=sweep)
            tracemalloc.start()
            try:
                carleman_audit_deg0(samples, weights)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, six = peak((0.5,), 3), peak(DEFAULT_S_SWEEP, 3)
        assert six - one <= 5 * 8 * level  # at most 8 level blocks per s
        # the products and at most 20 other blocks at one s: _Levels'
        # (t, a) arrays, a level's weights and numpy's buffers
        assert one <= (46 + 20) * level
        assert peak(DEFAULT_S_SWEEP, 30) - six < level

    def test_caccioppoli_memory_does_not_grow_with_the_count(self):
        # no block per sample: the 30-sample audit's peak is within one
        # level block of the 3-sample one's (the samples' v and f at a
        # level took 2 x count blocks)
        spec = preset("default_degenerate").spec
        grid = spec.grid
        block = 8 * (grid.Na + 1) * (grid.Nx + 1)

        def peak(count):
            samples = manufactured_family(spec, count, seed=0)
            tracemalloc.start()
            try:
                caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75),
                                  s=DEFAULT_S_SWEEP[0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(30) - peak(3) < block


class TestFamilyStream:
    """The audits read a ``manufactured_family`` one time level at a
    time, as quadratic forms in its time factors; the rows are those on
    the family's pairs as a list, whose levels the audits copy and square,
    to round-off.  Mortality depends on t, so every level has its own D,
    and the deg and nondeg audits skip the pole levels: a reader that kept
    the last level's operands would go stale."""

    @pytest.mark.parametrize("case", TestPinnedConstants.CASES)
    def test_carleman_rows_are_the_pairs_rows(self, case):
        k, audit, args, _ = TestPinnedConstants.CASES[case]
        spec = _t_dependent(k)
        prop = spec._propagator
        assert not any(prop.repeats_level(n)
                       for n in range(1, spec.grid.Nt + 1))
        family = manufactured_family(spec, 4, seed=3)
        weights = build_carleman_weights(spec.grid, k, s_sweep=S_SMALL)
        streamed = audit(family, *args, weights).rows
        _assert_rows_close(streamed, audit(list(family), *args, weights).rows)
        assert any(row.ratio for row in streamed)

    def test_caccioppoli_rows_are_the_pairs_rows(self):
        spec = _t_dependent(PowerLaw(0.5, 0.0))
        family = manufactured_family(spec, 4, seed=3)

        def rows(samples):
            return caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75),
                                     s=1.0).rows

        streamed = rows(family)
        _assert_rows_close(streamed, rows(list(family)))
        assert any(row.ratio for row in streamed)

    def test_reader_forms_are_the_squared_fields(self):
        # at every level, C @ B of each term is the squared field of the
        # pairs; mortality depends on t, so a reader that kept an earlier
        # level's f products would miss here
        spec = _t_dependent()
        grid = spec.grid
        assert not any(spec._propagator.repeats_level(n)
                       for n in range(1, grid.Nt + 1))
        family = manufactured_family(spec, 4, seed=3)
        v = np.stack([v_s.values for v_s, _ in family])
        f = np.stack([f_s.values for _, f_s in family])
        vx = np.gradient(v, grid.dx, axis=-1, edge_order=2)
        read = family.reader()
        for n in range(grid.Nt + 1):
            terms = read(n)
            for key, field in (("v", v), ("vx", vx), ("f", f)):
                coef, products = terms[key]
                want = field[:, n].reshape(len(family), -1) ** 2
                np.testing.assert_allclose(
                    coef @ products, want, rtol=0.0,
                    atol=1e-13 * np.max(want), err_msg=f"{key} at {n}")

    def test_family_is_not_held(self):
        # the Carleman audit of 30 samples on the preset holds less than
        # one (30, Nt+1, Na+1, Nx+1) stack, 14.4 MB, where the two stacks
        # of v and f would take twice that
        spec = preset("default_degenerate").spec
        grid = spec.grid
        stack = 8 * 30 * (grid.Nt + 1) * (grid.Na + 1) * (grid.Nx + 1)
        weights = build_carleman_weights(grid, spec.k)
        spec._propagator  # built once per problem, not per family
        tracemalloc.start()
        try:
            carleman_audit_deg0(manufactured_family(spec, 30, 0), weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack

    def test_sequence_of_pairs(self):
        spec = _t_dependent()
        family = manufactured_family(spec, 3, seed=2)
        pairs = list(family)
        for idx in (0, 2, -1):
            for got, want in zip(family[idx], pairs[idx]):
                assert got.grid == spec.grid
                assert got.values.tobytes() == want.values.tobytes()
        with pytest.raises(IndexError):
            family[3]


def _reference_sample_rows(samples, grid, sweep, terms):
    """The per-(sample, s) loop that the level kernel replaced: per s, each
    term's weight over Q, stacked from its level blocks (a weighted term's
    2s Theta profile taken for that term alone, and its block 0 at the
    Theta pole levels, where a plain term's is the trapezoid rule's), with
    its +inf entries set to 0, and np.vdot of it with each sample's
    squares."""
    levels = inequalities._Levels(grid)
    s = inequalities._column(sweep)
    zero = np.zeros((len(sweep), grid.Na + 1, grid.Nx + 1))

    def block(n, scale, p, profile_x, log_geom_x, x_rule):
        if profile_x is None:
            return zero + scale * levels.rule_at(n, x_rule)
        if levels.pole_level(n):
            return zero
        with np.errstate(invalid="ignore", over="ignore"):
            exponent = 2.0 * s * levels.theta[n] * profile_x
        return scale * inequalities._weight(
            levels, n, exponent, p, log_geom_x, x_rule,
            inequalities._cut(levels.rule_at(n)))

    weights = [(side, key, np.stack([block(n, *rest)
                                     for n in range(grid.Nt + 1)], axis=1))
               for side, key, *rest in terms]
    rows = [[] for _ in samples]
    for j, s in enumerate(sweep):
        infinite = []
        for _, key, w in weights:
            inf = np.isinf(w[j])
            if inf.any():
                w[j][inf] = 0.0
                infinite.append((key, inf))
        for idx, (v, f) in enumerate(samples):
            squares = {"v": v.values ** 2, "f": f.values ** 2,
                       "vx": np.gradient(v.values, grid.dx, axis=-1,
                                         edge_order=2) ** 2}
            for key, inf in infinite:
                if np.any(squares[key][inf]):
                    raise ValueError(f"sample {idx} is nonzero where its "
                                     f"{key} weight is infinite")
            lhs, rhs = (sum(np.vdot(w[j], squares[key])
                            for side, key, w in weights if side == i)
                        for i in (0, 1))
            rows[idx].append(inequalities._make_row(idx, s, lhs, rhs))
    return [row for per_sample in rows for row in per_sample]


class TestLevelKernel:
    """``_sample_rows`` against the per-(sample, s) loop it replaced, on
    the same weights: the sums run in another order, so the sides agree
    to round-off, and the excluded rows exactly."""

    def _both(self, monkeypatch, run):
        got = run()
        monkeypatch.setattr(inequalities, "_sample_rows",
                            _reference_sample_rows)
        want = run()
        monkeypatch.undo()
        return got, want

    def _assert_close(self, got, want, rel=ROUND_OFF):
        assert [(r.sample_id, r.s, r.ratio is None) for r in got.rows] == \
            [(r.sample_id, r.s, r.ratio is None) for r in want.rows]
        for g, r in zip(got.rows, want.rows):
            for side in ("lhs", "rhs", "ratio"):
                if getattr(r, side) is not None:
                    assert getattr(g, side) == _close(getattr(r, side),
                                                      rel), side

    @pytest.mark.parametrize("case", TestPinnedConstants.CASES)
    def test_carleman_audits(self, monkeypatch, case):
        # s = 50 underflows every weight on this grid: excluded 0/0 rows,
        # but for the local audits' unweighted window term
        k, audit, args, _ = TestPinnedConstants.CASES[case]
        spec = small_spec(k=k)
        samples = manufactured_family(spec, 3, seed=11)
        weights = build_carleman_weights(spec.grid, k,
                                         s_sweep=S_SMALL + (50.0,))
        got, want = self._both(monkeypatch,
                               lambda: audit(samples, *args, weights))
        assert any(r.ratio is None for r in want.rows) == \
            (not case.startswith("local"))
        self._assert_close(got, want)

    def test_caccioppoli(self, monkeypatch):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        samples = manufactured_family(spec, 3, seed=11)
        got, want = self._both(monkeypatch, lambda: caccioppoli_audit(
            samples, (0.35, 0.65), (0.25, 0.75), s=1.0))
        self._assert_close(got, want)

    # A family's sides are quadratic forms over pair products of its
    # bases.  Where a sample's field, in the region its weight picks out,
    # is a near cancellation of its basis terms, the forms' round-off
    # grows as the square of that ratio and the squares' as the ratio: on
    # the preset's 30 samples the rows move from the reference's by
    # 9.3e-15 at seed 0 and by at most 1.5e-11 (seed 6) over seeds 0-11
    @pytest.mark.parametrize("seed,rel", [(0, ROUND_OFF), (6, 1e-10)])
    def test_family_on_the_preset(self, monkeypatch, seed, rel):
        spec = preset("default_degenerate").spec
        samples = manufactured_family(spec, 30, seed)
        weights = build_carleman_weights(spec.grid, spec.k)
        for run in (lambda: carleman_audit_deg0(samples, weights),
                    lambda: caccioppoli_audit(samples, (0.35, 0.65),
                                              (0.25, 0.75),
                                              s=DEFAULT_S_SWEEP[0])):
            got, want = self._both(monkeypatch, run)
            self._assert_close(got, want, rel)

    @pytest.mark.parametrize("case", list(TestPinnedConstants.CASES)
                             + ["caccioppoli"])
    def test_family_with_a_d_per_level(self, monkeypatch, case):
        # mortality depends on t, so every level has its own f products
        if case == "caccioppoli":
            spec = _t_dependent()
            samples = manufactured_family(spec, 4, seed=3)
            run = lambda: caccioppoli_audit(samples, (0.35, 0.65),
                                            (0.25, 0.75), s=1.0)
        else:
            k, audit, args, _ = TestPinnedConstants.CASES[case]
            spec = _t_dependent(k)
            samples = manufactured_family(spec, 4, seed=3)
            weights = build_carleman_weights(spec.grid, k, s_sweep=S_SMALL)
            run = lambda: audit(samples, *args, weights)
        got, want = self._both(monkeypatch, run)
        assert any(r.ratio for r in want.rows)
        self._assert_close(got, want)

    def test_infinite_weight(self, monkeypatch):
        # x^2/k is +inf at x = 1 for k = x^0.5 (1-x)^0.5; samples 2 and 1
        # do not vanish there, and the lowest is named
        spec = small_spec(k=PowerLaw(0.5, 0.5))
        weights = build_carleman_weights(spec.grid, spec.k, s_sweep=S_SMALL)
        samples = manufactured_family(spec, 3, seed=11)
        got, want = self._both(monkeypatch,
                               lambda: carleman_audit_deg0(samples, weights))
        self._assert_close(got, want)
        samples = list(samples)  # a family is read-only; a list is not
        for idx in (2, 1):
            v, f = samples[idx]
            vals = v.values.copy()
            vals[spec.grid.Nt // 2, :, -1] = 1.0
            samples[idx] = (Field3(spec.grid, vals), f)
        message = r"^sample 1 is nonzero where its v weight is infinite$"
        with pytest.raises(ValueError, match=message):
            carleman_audit_deg0(samples, weights)
        monkeypatch.setattr(inequalities, "_sample_rows",
                            _reference_sample_rows)
        with pytest.raises(ValueError, match=message):
            carleman_audit_deg0(samples, weights)


class TestCaccioppoli:
    def test_audit_runs(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        samples = manufactured_family(spec, 2, seed=4)
        report = caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75),
                                   s=1.0)
        assert report.empirical_constant is not None
        assert report.empirical_constant > 0.0
        assert report.meta["omega_prime"] == [0.35, 0.65]

    def test_nesting_validated(self):
        spec = small_spec()
        samples = manufactured_family(spec, 1, seed=4)
        with pytest.raises(ValueError, match="strictly inside"):
            caccioppoli_audit(samples, (0.2, 0.8), (0.3, 0.7), s=1.0)

    def test_samples_on_another_grid_rejected(self):
        # same 8x16x10 node counts, so the arrays alone cannot tell the
        # grids apart; the second sample would be integrated with the
        # first one's spacings and Theta
        samples = []
        for T in (1.0, 0.5):
            grid = Grid(T=T, A=2.0 * T, Nt=8, Na=16, Nx=10)
            spec = ProblemSpec(k=PowerLaw(0.5, 0.0), rates=small_spec().rates,
                               grid=grid, omega=(0.3, 0.7))
            samples += manufactured_family(spec, 1, seed=4)
        with pytest.raises(ValueError, match="grid"):
            caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75), s=1.0)

    def test_windows_of_one_node_named(self):
        # on Nx = 12 only the node 5/12 lies in [0.35, 0.45] or [0.4, 0.42]
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        samples = manufactured_family(spec, 1, seed=4)
        with pytest.raises(ValueError, match=r"window omega = "
                           r"\[0.35, 0.45\] .*needs two x nodes"):
            caccioppoli_audit(samples, (0.4, 0.42), (0.35, 0.45), s=1.0)
        with pytest.raises(ValueError, match=r"window omega' = "
                           r"\[0.4, 0.42\] .*needs two x nodes"):
            caccioppoli_audit(samples, (0.4, 0.42), (0.25, 0.75), s=1.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, float("inf"), float("nan")])
    def test_s_validated(self, s):
        spec = small_spec()
        samples = manufactured_family(spec, 1, seed=4)
        with pytest.raises(ValueError, match="s must be finite and positive"):
            caccioppoli_audit(samples, (0.35, 0.65), (0.25, 0.75), s=s)


class TestObservability:
    def _ensemble(self, grid, count=4):
        return [random_final_data(grid, seed=n, stream=n)
                for n in range(1, count + 1)]

    def test_standard_mode(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        report = observability_ratio(spec, self._ensemble(spec.grid), 1.25)
        assert report.empirical_constant is not None
        assert 0.0 < report.empirical_constant < math.inf
        assert "mode" not in report.meta

    def test_window_override(self):
        spec = small_spec(k=PowerLaw(0.5, 0.0))
        ens = self._ensemble(spec.grid)
        narrow = observability_ratio(
            dataclasses.replace(spec, omega=(0.35, 0.6)), ens, 1.25)
        assert narrow.meta["omega"] == [0.35, 0.6]

    def test_validation_errors(self):
        spec = small_spec()
        ens = self._ensemble(spec.grid, count=1)
        with pytest.raises(ValueError, match="empty"):
            observability_ratio(spec, [], 1.25)
        with pytest.raises(ValueError, match=r"delta"):
            observability_ratio(spec, ens, 0.5)
        bad = Field2(spec.grid, np.ones((spec.grid.Na + 1, spec.grid.Nx + 1)))
        with pytest.raises(ValueError, match=r"v_T\(A"):
            observability_ratio(spec, [bad], 1.25)

    def test_a_bar_beyond_the_horizon_rejected(self):
        # T - a_bar lies before t = 0: no level to observe, not level 0
        spec = small_spec()
        late = dataclasses.replace(
            spec, rates=dataclasses.replace(spec.rates, a_bar=1.5))
        with pytest.raises(ValueError, match=r"a_bar = 1\.5"):
            observability_ratio(late, self._ensemble(spec.grid, count=1),
                                1.25)
