"""Empirical audits of the weighted functional inequalities.

Each audit evaluates both sides of an inequality on a family of exact
discrete solutions and reports the worst ratio as an empirical constant.
Each side of a Carleman-type audit is a quadratic form, summed one time
level at a time: at each level, one weight block (quadrature weights
times the Carleman weight) per s of the sweep for each of v^2, v_x^2 and
f^2, and one matrix product of those blocks with the samples' squares.
The weight is exactly 0 at the Theta poles, so the levels t = 0 and
t = T, poles on every node, add only window terms; it is +inf only where
(x-end)^2/k is, and there a sample must vanish, or the audit raises.  The
manufactured samples of these audits share four (a, x) modes and differ
only in their time factors, so their squares at a level are quadratic
forms in those factors: the audits take the weight's products with the
pair products of the modes, of their x-gradients and of D applied to
them, and never build a sample's field.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from .coeffs import (CarlemanWeights, DegenerateCoefficient, PowerLaw,
                     build_carleman_weights, eval_theta)
from .discretize import (
    Field3,
    Grid,
    _nearest_x_node,
    _check_values,
    _write_csv,
    axis_weights,
    spawn_rng,
    weighted_norm,
    window_mask,
    write_json,
)
from .solver import (ProblemSpec, _adjoint_levels, _switch_level,
                     lattice_inner, solve_adjoint)

__all__ = [
    "InequalityReport",
    "ReportRow",
    "hardy_ratio",
    "hardy_ratio_at_zero",
    "random_hardy_test_functions",
    "manufactured_adjoint",
    "random_adjoint_profiles",
    "manufactured_family",
    "carleman_audit_deg0",
    "carleman_audit_deg1",
    "carleman_audit_nondeg",
    "carleman_local_audit",
    "caccioppoli_audit",
    "window_nodes",
    "observability_ratio",
    # re-exported, no longer called here: the benchmark's tracer tests
    # (perfbench/test_perfbench.py) reach them through this module
    "weighted_norm",
    "solve_adjoint",
]


@dataclass(frozen=True)
class ReportRow:
    sample_id: int
    s: float
    lhs: float
    rhs: float
    ratio: float | None  # None marks an excluded 0/0 sample


@dataclass(frozen=True)
class InequalityReport:
    """One audit's rows and sweep; its constants are read off the rows."""

    name: str
    rows: tuple[ReportRow, ...]
    s_used: tuple[float, ...]
    meta: dict

    def ratios(self) -> list[float]:
        return [r.ratio for r in self.rows if r.ratio is not None]

    @property
    def empirical_constant(self) -> float | None:
        """The worst ratio, None when every sample is an excluded 0/0."""
        return max(self.ratios(), default=None)

    @property
    def unstable_s(self) -> bool:
        """Over 4+ s values, the per-s constant rises to over 5x its first."""
        per_s = self.per_s_constant()
        svals = sorted(per_s)
        if len(svals) < 4:
            return False
        seq = [per_s[s] for s in svals[len(svals) // 2:]]
        growing = all(b > a for a, b in zip(seq, seq[1:]))
        return growing and per_s[svals[-1]] > 5.0 * per_s[svals[0]] > 0.0

    def per_s_constant(self) -> dict[float, float]:
        out: dict[float, float] = {}
        for r in self.rows:
            if r.ratio is not None:
                out[r.s] = max(out.get(r.s, 0.0), r.ratio)
        return out

    def write_csv(self, path) -> None:
        _write_csv(path, ["sample_id", "s", "lhs", "rhs", "ratio"],
                   ([r.sample_id, r.s, r.lhs, r.rhs, r.ratio]
                    for r in self.rows))

    def summary(self) -> dict:
        return {
            "name": self.name,
            "empirical_constant": self.empirical_constant,
            "sweep": list(self.s_used),
            "unstable_s": self.unstable_s,
            "samples": len({r.sample_id for r in self.rows}),
            **self.meta,
        }

    def write_summary(self, path) -> None:
        write_json(path, self.summary())


# ---------------------------------------------------------------------------
# Hardy-Poincare ratios

_HARDY_CASES = ("HP1", "HP1p", "HP2", "HP2p")
# The most Gauss nodes per rule: a rule of n nodes is one eigh of an n x n
# matrix, 8 MB at 1000, where a trapezoid-sized count such as 100 001
# would ask for 80 GB.
_MAX_GAUSS_NODES = 1000


def hardy_ratio(k, theta: float, case: str, test_functions, *,
                n_quad: int = 8) -> InequalityReport:
    """Ratios of int k/(1-x)^2 w^2 over int k |w'|^2 per test function.

    ``k`` is a ``PowerLaw`` or a ``Tabulated`` (else ValueError).
    ``test_functions`` is a non-empty list of real
    ``numpy.polynomial.Polynomial`` w in x (default domain and window),
    such as :func:`random_hardy_test_functions` returns; w' is w's
    derivative.  ``case`` follows the proposition's naming: HP1/HP1p need
    w(1) = 0 and theta in (0,1); HP2/HP2p need w(0) = 0 and theta in
    (1,2).  For the primed cases, where k/(1-x)^theta is monotone on all
    of (0,1), the ratio is checked against the closed bound
    4/(1-theta)^2 and an arithmetic error is raised on violation (that
    bound is exact theory, so exceeding it means a quadrature or input
    bug).  A test function that is not such a polynomial, that does not
    vanish where the case needs it, or whose left or right side is not
    finite (a non-finite coefficient makes it so) raises ValueError
    naming its index, and so does an empty family.  Both sides are Gauss
    sums of ``n_quad`` nodes per panel, exact up to round-off; ValueError
    names ``n_quad`` below the family's degree plus one, and the end of
    an HP2 left side that diverges (k's exponent at x = 1 at most 1, or
    any ``Tabulated`` k).  :func:`hardy_ratio_at_zero` is the same audit
    with the singular end at x = 0; both are calls of one kernel.
    """
    return _hardy(k, theta, case, test_functions, n_quad, 1.0, "hardy")


def hardy_ratio_at_zero(k, theta: float, case: str, test_functions, *,
                        n_quad: int = 8) -> InequalityReport:
    """Ratios of int k/x^2 w^2 over int k |w'|^2 per test function.

    :func:`hardy_ratio` with the singular end at x = 0, by the same
    kernel: HP1 cases need w(0) = 0, HP2 cases w(1) = 0.
    """
    return _hardy(k, theta, case, test_functions, n_quad, 0.0,
                  "hardy_at_zero")


def _hardy(k, theta: float, case: str, test_functions, n_quad: int,
           end: float, name: str) -> InequalityReport:
    """The Hardy audit with the left weight k/(end - x)^2, singular at
    ``end`` (1.0 or 0.0), reported as ``name``.

    Each side is the sum of weight_i p(x_i)^2 over a Gauss rule for its
    weight (``_k_rule``): on the right p = w' against k; on an HP1 left
    side p = q against k, with w = w(end) + (x - end) q; on an HP2 left
    side p = w against k/(end - x)^2.  The rules have ``n_quad`` nodes per
    panel, so they are exact for p^2 of degree 2 n_quad - 1 or less:
    ``n_quad`` must be the family's degree plus one or more.  HP1 drops
    the remainder w(end): the vanishing check bounds it by 1e-9 ||w||,
    with ||w|| the same sum on a Legendre rule, and for theta < 1 a
    nonzero w(end) makes the true left side infinite.
    """
    if not isinstance(k, DegenerateCoefficient):
        raise ValueError(f"k must be a PowerLaw or a Tabulated coefficient, "
                         f"got {type(k).__name__}")
    if case not in _HARDY_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {_HARDY_CASES}")
    if case in ("HP1", "HP1p"):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0,1) for HP1 cases")
        vanish_at = end
    else:
        if not 1.0 < theta < 2.0:
            raise ValueError("theta must lie in (1,2) for HP2 cases")
        vanish_at = 1.0 - end
    bound = 4.0 / (1.0 - theta) ** 2
    w = _hardy_coefficients(test_functions)
    size = w.shape[1]
    if n_quad < size:
        raise ValueError(f"n_quad = {n_quad} Gauss nodes are too few for "
                         f"degree-{size - 1} test functions: they need "
                         f"{size}")
    if n_quad > _MAX_GAUSS_NODES:
        raise ValueError(f"n_quad = {n_quad} Gauss nodes per rule are more "
                         f"than {_MAX_GAUSS_NODES}; {size} integrate "
                         f"degree-{size - 1} test functions exactly")
    k_rule = _k_rule(k, n_quad)
    if vanish_at == end:  # HP1
        lhs_sums = _rule_sums(k_rule, _quotient(w, end))
    else:
        lhs_sums = _rule_sums(_k_rule(k, n_quad, end), w)
    rhs_sums = _rule_sums(k_rule, w[:, 1:] * np.arange(1, size))
    scales = np.sqrt(_rule_sums(_gauss_legendre(n_quad, np.array([0.0, 1.0])),
                                w))
    at_vanish = polyval(vanish_at, w.T)

    rows = []
    for idx in range(len(w)):
        scale, edge = float(scales[idx]), abs(float(at_vanish[idx]))
        if scale > 0.0 and edge > 1e-9 * scale:
            raise ValueError(
                f"test function {idx} does not vanish at x = {vanish_at:g}")
        lhs, rhs = float(lhs_sums[idx]), float(rhs_sums[idx])
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"test function {idx} gives a non-finite side: "
                             f"lhs {lhs!r}, rhs {rhs!r}")
        row = _make_row(idx, 0.0, lhs, rhs)
        if case.endswith("p") and (row.ratio or 0.0) > bound * (1.0 + 1e-9):
            raise ArithmeticError(f"Hardy ratio {row.ratio:.6g} exceeds the "
                                  f"certified bound {bound:.6g}")
        rows.append(row)
    return InequalityReport(name, tuple(rows), (),
                            {"case": case, "theta": theta, "bound": bound})


def _hardy_coefficients(test_functions) -> np.ndarray:
    """The power-series coefficients in x of every test function, one row
    each, zero-padded to the family's longest and to at least two;
    ValueError names the first that is not a real
    ``numpy.polynomial.Polynomial`` in x, or an empty family."""
    for idx, w in enumerate(test_functions):
        if not (isinstance(w, Polynomial) and np.isrealobj(w.coef)
                and w.mapparms() == (0.0, 1.0)):
            raise ValueError(f"test function {idx} is not a "
                             f"numpy.polynomial.Polynomial in x")
    if not test_functions:
        raise ValueError("empty test function family")
    out = np.zeros((len(test_functions),
                    max(2, *(w.coef.size for w in test_functions))))
    for row, w in zip(out, test_functions):
        row[:w.coef.size] = w.coef
    return out


def _quotient(w: np.ndarray, end: float) -> np.ndarray:
    """The coefficients of q = (w - w(end)) / (x - end) for each row of
    power-series coefficients of w, by synthetic division at ``end``; the
    remainder w(end) is dropped."""
    q = np.zeros((len(w), w.shape[1] - 1))
    carry = w[:, -1]
    for j in range(q.shape[1] - 1, -1, -1):
        q[:, j] = carry
        carry = w[:, j] + end * carry
    return q


def _rule_sums(rule: tuple[np.ndarray, np.ndarray],
               coef: np.ndarray) -> np.ndarray:
    """sum_i weight_i p(x_i)^2 over the (nodes, weights) ``rule`` for
    each row of power-series coefficients of p."""
    nodes, weights = rule
    return polyval(nodes, coef.T) ** 2 @ weights


def _k_rule(k, n_quad: int,
            end: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for int_0^1 k p, or with ``end`` for
    int_0^1 k/(end - x)^2 p, exact for polynomials p of degree
    2 n_quad - 1 or less: for a ``PowerLaw`` k = (1 - x)^a x^b, one
    ``_gauss_jacobi`` rule, the exponent at ``end`` lowered by 2; for a
    ``Tabulated`` k, one ``_gauss_legendre`` rule per table interval
    inside (0, 1), times k at the nodes.  ValueError names ``end`` where
    the integral diverges."""
    if isinstance(k, PowerLaw):
        a, b = k.alpha1, k.alpha0
        if end is None:
            return _gauss_jacobi(n_quad, a, b)
        power = a if end else b
        if power > 1.0:
            return _gauss_jacobi(n_quad, *((a - 2.0, b) if end
                                           else (a, b - 2.0)))
        reason = f"k's exponent there is {power:g}, not above 1"
    elif end is None:
        inside = k.x[(k.x > 0.0) & (k.x < 1.0)]
        nodes, weights = _gauss_legendre(
            n_quad, np.concatenate([[0.0], inside, [1.0]]))
        return nodes, weights * k.k(nodes)
    else:
        reason = (f"a tabulated k is piecewise linear, so k/(x - {end:g})^2 "
                  f"is not integrable there")
    raise ValueError(f"HP2 left side diverges at x = {end:g}: {reason}")


def _gauss_jacobi(n: int, a: float,
                  b: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss rule on [0, 1] for the weight (1 - x)^a x^b,
    a, b > -1, by Golub-Welsch: the nodes are the eigenvalues of the
    Jacobi matrix of the monic Jacobi polynomials P_j^(a,b)(2x - 1), and
    each weight is B(a + 1, b + 1) times the square of the first
    component of its unit eigenvector."""
    s = a + b
    j = np.arange(1.0, n)
    t = 2.0 * j + s
    diag = np.concatenate([[(b - a) / (s + 2.0)],
                           (b * b - a * a) / (t * (t + 2.0))])
    j, t = j[1:], t[1:]
    # the squared off-diagonal at j = 1 with the factor 1 + s cancelled,
    # which is 0/0 in the general term when s = -1
    off = np.sqrt(np.concatenate([
        [4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))],
        4.0 * j * (j + a) * (j + b) * (j + s)
        / (t * t * (t + 1.0) * (t - 1.0))])[:n - 1])
    # the recurrence on [-1, 1], mapped to [0, 1] by x = (1 + y) / 2; eigh
    # reads the lower triangle
    nodes, vectors = np.linalg.eigh(np.diag(0.5 * (1.0 + diag))
                                    + np.diag(0.5 * off, -1))
    mass = math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(s + 2.0)
    return nodes, mass * vectors[0] ** 2


def _gauss_legendre(n: int,
                    cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on each interval between consecutive
    ``cuts``, their nodes and weights concatenated in order."""
    y, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(cuts)[:, None]
    return ((cuts[:-1, None] + half * (1.0 + y)).ravel(),
            (half * weights).ravel())


def random_hardy_test_functions(vanish_at: float, count: int, seed: int):
    """Random degree-7 polynomials that vanish at ``vanish_at`` (0 or 1):
    an edge factor, 1 - x or x, times a degree-6 polynomial with standard
    normal coefficients.  Returns ``numpy.polynomial.Polynomial``."""
    if vanish_at not in (0.0, 1.0):
        raise ValueError(f"vanish_at must be 0 or 1, got {vanish_at!r}")
    # one draw of (count, 7) is the stream of count draws of 7
    q = spawn_rng(seed, stream=11).standard_normal((max(count, 0), 7))
    # the coefficients Polynomial's product gives, bit for bit
    w = np.empty((len(q), 8))
    if vanish_at == 1.0:  # (1 - x) q
        w[:, 0] = q[:, 0]
        np.subtract(q[:, 1:], q[:, :-1], out=w[:, 1:7])
        w[:, 7] = -q[:, 6]
    else:  # x q
        w[:, 0] = 0.0
        w[:, 1:] = q
    return [Polynomial(a) for a in w]


# ---------------------------------------------------------------------------
# manufactured adjoint pairs


def manufactured_adjoint(spec: ProblemSpec, profile) -> tuple[Field3, Field3]:
    """Build an exact discrete (v, f) pair for the backward equation.

    ``profile`` is a smooth callable v(t, a, x) with homogeneous Dirichlet
    x-rows and v(., A, .) = 0.  The source f is extracted by applying the
    beta-free one-step transpose to v (beta is not read), so on a problem
    with beta = 0 re-running solve_adjoint with this source reproduces v
    to round-off; no continuum differentiation is involved.
    """
    grid = spec.grid
    v = Field3.from_function(grid, profile)
    vals = v.values
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if np.max(np.abs(vals[:, :, 0])) > 1e-9 * scale or \
            np.max(np.abs(vals[:, :, -1])) > 1e-9 * scale:
        raise ValueError("profile must vanish on the x-boundary rows")
    if np.max(np.abs(vals[:, -1, :])) > 1e-9 * scale:
        raise ValueError("profile must vanish at a = A")
    # snap round-off residue on the constrained rows so the extracted pair
    # reproduces under solve_adjoint to machine precision
    vals[:, :, 0] = 0.0
    vals[:, :, -1] = 0.0
    vals[:, -1, :] = 0.0
    prop = spec._propagator
    f = np.zeros_like(vals)
    for n in range(grid.Nt):
        target = vals[n + 1][1:, 1:-1]
        m_rows = vals[n][:-1, 1:-1]
        f[n + 1][1:, 1:-1] = (target - prop.apply_diffusion(n + 1, m_rows)) / grid.dt
    return v, Field3(grid, f)


def _adjoint_draws(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients and phases of ``count`` random adjoint profiles,
    (count, 2, 2) each, drawn per profile in that order."""
    rng = spawn_rng(seed, stream=23)
    coeffs, phases = np.empty((2, max(count, 0), 2, 2))
    for c, p in zip(coeffs, phases):
        c[...] = rng.standard_normal((2, 2))
        p[...] = rng.uniform(0.0, 2.0 * math.pi, size=(2, 2))
    return coeffs, phases


def random_adjoint_profiles(T: float, A: float, count: int, seed: int):
    """Smooth random closures vanishing at a = A and on the x-boundary,
    each a 2x2 sine series in (x, a) with a time-modulated amplitude.

    Returned callables are grid-free, so the same family can be evaluated
    on several resolutions for refinement studies.
    """
    profiles = []
    for coeffs, phases in zip(*_adjoint_draws(count, seed)):

        def profile(t, a, x, *, coeffs=coeffs, phases=phases):
            total = 0.0
            for m in range(coeffs.shape[0]):
                for n in range(coeffs.shape[1]):
                    total = total + (
                        coeffs[m, n]
                        * np.sin((m + 1) * math.pi * x)
                        * np.sin((n + 1) * math.pi * a / A)
                        * (1.0 + 0.3 * np.cos((m + n + 1) * math.pi * t / T
                                              + phases[m, n])))
            return total

        profiles.append(profile)
    return profiles


def manufactured_family(spec: ProblemSpec, count: int, seed: int):
    """The (v, f) pairs of ``manufactured_adjoint`` for the profiles of
    ``random_adjoint_profiles(T, A, count, seed)``, in their order, as one
    family that the audits read as quadratic forms in its time factors.

    Every profile is sum_{m,n<2} c_mn(t) M_mn(a, x) over the same four
    modes M_mn = sin((m+1) pi x) sin((n+1) pi a/A); only the time factors
    c_mn(t) = coeff (1 + 0.3 cos((m+n+1) pi t/T + phase)) differ.  So level
    n of every sample's v is the time factors at n times the modes, and
    by linearity f^n = (v^n - D_n v^{n-1}) / dt is the time factors at n
    and n - 1 times the modes and D applied to them.  D is applied here,
    once per mode and distinct level, whatever ``count``.  The Carleman
    and Caccioppoli audits never build a sample's field: a weighted
    integral of v^2, v_x^2 or f^2 at a level is a quadratic form in that
    level's time factors, whose matrix is the pair products of the modes,
    of their x-gradients or of the level's eight operands against the
    weight (``_sample_rows``).  The pairs match the per-profile ones to
    round-off.  The family is a sequence of (Field3, Field3) pairs:
    indexing or iterating builds the samples, one matrix product per level
    and field.
    """
    return _Family(spec, count, seed)


# the pairs (k, l), k <= l, of up to eight basis functions, ordered by l
# then k: the pairs of the first b functions are the first b (b + 1) / 2
_PAIR_K, _PAIR_L = np.array([(k, l) for l in range(8)
                             for k in range(l + 1)]).T


def _pair_products(basis: np.ndarray, out: np.ndarray,
                   start: int = 0) -> np.ndarray:
    """B_k B_l of the rows of ``basis``, doubled for k < l, into the rows
    of ``out`` in ``_PAIR_K``/``_PAIR_L`` order from row ``start`` on,
    one row at a time: a broadcast product would take numpy's buffers."""
    for row in range(start, len(out)):
        k, l = _PAIR_K[row], _PAIR_L[row]
        np.multiply(basis[k], basis[l], out=out[row])
        if k < l:
            out[row] *= 2.0
    return out


class _Family(Sequence):
    """The time factors, modes and D-applied modes of
    :func:`manufactured_family`: each level's products taken on request
    by :meth:`fill`, and the audits' quadratic forms by :meth:`reader`."""

    def __init__(self, spec: ProblemSpec, count: int, seed: int) -> None:
        grid = self.grid = spec.grid
        coeffs, phases = _adjoint_draws(count, seed)
        count = len(coeffs)
        modes = _adjoint_modes(grid)
        m, n = np.divmod(np.arange(4), 2)  # the profile's term order
        angle = (m + n + 1) * math.pi * grid.t_nodes[:, None] / grid.T
        times = coeffs.reshape(count, 1, 4) * (
            1.0 + 0.3 * np.cos(angle + phases.reshape(count, 1, 4)))
        self.times, self.modes = times, modes.reshape(4, -1)
        # level n of every sample's f: [c(t^n), c(t^{n-1})] @ [M; -D_n
        # applied to M's rows 0..Na-1, placed on rows 1..Na]; the operands
        # are 0 off rows 1..Na and the interior x nodes, and a level that
        # repeats D shares the one before's
        self.pairs = np.concatenate([times[:, 1:], times[:, :-1]], axis=2)
        prop = spec._propagator
        self.operands = []
        for level in range(1, grid.Nt + 1):
            if not prop.repeats_level(level):
                operands = np.zeros((8,) + modes.shape[1:])
                operands[:4] = modes
                for mode, out in zip(modes, operands[4:]):
                    np.negative(prop.apply_diffusion(level, mode[:-1, 1:-1]),
                                out=out[1:, 1:-1])
                operands = operands.reshape(8, -1)
                _check_values(operands, operands.shape, "D-applied modes")
            self.operands.append(operands)
        # every level's fields and forms are sums of products of these
        _check_values(times, times.shape, "time factors")
        _check_values(self.modes, self.modes.shape, "modes")

    def __len__(self) -> int:
        return len(self.times)

    def fill(self, n: int, v: np.ndarray, f: np.ndarray) -> None:
        """Every sample's v and f at time level n into ``v`` and ``f``,
        (count, Na+1, Nx+1) each."""
        size = self.modes.shape[1]
        np.matmul(self.times[:, n], self.modes, out=v.reshape(-1, size))
        if n:
            np.matmul(self.pairs[:, n - 1], self.operands[n - 1],
                      out=f.reshape(-1, size))
            f /= self.grid.dt
        else:
            f[...] = 0.0

    def reader(self):
        """``read(n)``, the quadratic forms of v^2, v_x^2 and f^2 at time
        level n for ``_sample_rows``: for each, the products of each
        sample's time factors at n, C_k C_l, and the pair products of the
        basis, B_k B_l (doubled for k < l).  The v and v_x bases are the
        modes and their ``_x_gradient``, both with the time factors at n;
        the f basis is the level's operands, with ``pairs[:, n-1] / dt``.
        The modes' products are built here, once per reader; the operands'
        first ten are the modes', and their other 26 are built once per
        distinct D level, over the last level's."""
        grid, count = self.grid, len(self)
        shape = (4, grid.Na + 1, grid.Nx + 1)
        gradients = np.empty(shape)
        _x_gradient(self.modes.reshape(shape), grid.dx, out=gradients)
        # f's products; v's are their first ten, the modes' pairs
        f_products = np.empty((36, self.modes.shape[1]))
        v_products = _pair_products(self.modes, f_products[:10])
        vx_products = _pair_products(gradients.reshape(4, -1),
                                     np.empty((10, self.modes.shape[1])))
        held = None  # the operands whose products f_products holds

        def read(n):
            nonlocal held
            operands = self.operands[max(n - 1, 0)]
            if held is not operands:
                held = operands
                _pair_products(operands, f_products, 10)
            c = self.times[:, n]
            c = c[:, _PAIR_K[:10]] * c[:, _PAIR_L[:10]]
            f = (self.pairs[:, n - 1] / grid.dt if n
                 else np.zeros((count, 8)))
            return {"v": (c, v_products), "vx": (c, vx_products),
                    "f": (f[:, _PAIR_K] * f[:, _PAIR_L], f_products)}

        return read

    def __getitem__(self, idx):
        return list(self)[idx]

    def __iter__(self):
        """The pairs, every level filled by :meth:`fill`."""
        grid = self.grid
        v, f = np.empty((2, len(self)) + Field3._shape(grid))
        for n in range(grid.Nt + 1):
            self.fill(n, v[:, n], f[:, n])
        return ((Field3._checked_already(grid, v_s),
                 Field3._checked_already(grid, f_s)) for v_s, f_s in zip(v, f))


def _adjoint_modes(grid: Grid) -> np.ndarray:
    """The modes sin((m+1) pi x) sin((n+1) pi a/A), m, n < 2, of every
    random adjoint profile on ``grid``, (4, Na+1, Nx+1) in the profile's
    term order, snapped to 0 on the x-boundary rows and at a = A as in
    ``manufactured_adjoint``; ValueError as there where a mode does not
    vanish on the x-boundary rows (at a = A every mode does)."""
    sin_x = [np.sin((m + 1) * math.pi * grid.x_nodes) for m in range(2)]
    sin_a = [np.sin((n + 1) * math.pi * grid.a_nodes / grid.A)
             for n in range(2)]
    modes = np.array([s_a[:, None] * s_x for s_x in sin_x for s_a in sin_a])
    scale = np.max(np.abs(modes), axis=(1, 2))
    if np.any(np.max(np.abs(modes[:, :, [0, -1]]), axis=(1, 2))
              > 1e-9 * scale):
        raise ValueError("profile must vanish on the x-boundary rows")
    modes[:, :, [0, -1]] = 0.0
    modes[:, -1, :] = 0.0
    return modes


# ---------------------------------------------------------------------------
# weighted quadrature over Q, one time level at a time


class _Levels:
    """The (t, a) factors of every Carleman-type weight on ``grid``, built
    once per audit and read one time level at a time: Theta, log Theta,
    the Theta poles and the t and a trapezoid weights."""

    def __init__(self, grid: Grid) -> None:
        self.theta = eval_theta(grid.t_nodes[:, None, None],
                                grid.a_nodes[None, :, None], grid.T)
        with np.errstate(divide="ignore"):
            self.log_theta = np.log(self.theta)
        self.poles = np.isinf(self.theta[:, :, 0])
        self.rule = (axis_weights(grid.Nt + 1, grid.dt)[:, None, None]
                     * axis_weights(grid.Na + 1, grid.da)[None, :, None])
        self.x_rule = axis_weights(grid.Nx + 1, grid.dx)
        self._exponent = self._cut = None  # one level's, for its next call

    def exponent(self, n: int, s: np.ndarray,
                 profile_x: np.ndarray) -> np.ndarray:
        """2 s Theta profile_x at level n, one (Na+1, Nx+1) block per s of
        the (S, 1, 1) sweep ``s``, built once for the calls of a level
        with the same sweep and ``profile_x`` array."""
        held = self._exponent
        if not (held and held[0] == n and held[1] is profile_x
                and np.array_equal(held[2], s)):
            with np.errstate(invalid="ignore", over="ignore"):
                held = (n, profile_x, s, 2.0 * s * self.theta[n] * profile_x)
            self._exponent = held
        return held[3]

    def cut(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``_cut`` of level n's full trapezoid weights, built once per
        level."""
        if self._cut is None or self._cut[0] != n:
            self._cut = (n, *_cut(self.rule_at(n)))
        return self._cut[1:]

    def pole_level(self, n: int) -> bool:
        """Whether Theta is +inf on all of level n (t = 0 and t = T), where
        every Carleman-type weight is 0."""
        return bool(self.poles[n].all())

    def rule_at(self, n: int, x_rule=None) -> np.ndarray:
        """Tensor trapezoid weights of level n, (Na+1, Nx+1); ``x_rule``
        replaces the x axis's."""
        return self.rule[n] * (self.x_rule if x_rule is None else x_rule)


def _column(sweep) -> np.ndarray:
    """The values of an s sweep as an (S, 1, 1) array."""
    return np.asarray(sweep, dtype=float)[:, None, None]


def _window_rule(grid: Grid, window: tuple[float, float],
                 name: str) -> np.ndarray:
    """The x trapezoid weights of the nodes in ``window``, 0 elsewhere."""
    sel = window_nodes(grid.x_nodes, window, name)
    rule = np.zeros(grid.Nx + 1)
    rule[sel] = axis_weights(np.count_nonzero(sel), grid.dx)
    return rule


# the log of the smallest normal float: exp of anything less is 0 or
# subnormal
_LOG_TINY = math.log(np.finfo(float).tiny)


def _cut(trapezoid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``trapezoid`` and the log below which a weight entry's product with
    it would fall under e times the smallest normal float."""
    with np.errstate(divide="ignore"):
        return trapezoid, _LOG_TINY + 1.0 - np.log(np.abs(trapezoid))


def _weight(levels: _Levels, n: int, s: np.ndarray, theta_power: float,
            profile_x, log_geom_x=0.0, x_rule=None) -> np.ndarray:
    """Quadrature weights at time level n of Theta^p e^{2s Theta profile}
    e^{geom}, one (Na+1, Nx+1) block per s of the (S, 1, 1) sweep ``s``:
    ``levels.rule_at(n, x_rule)`` times exp(p log Theta + 2s Theta
    profile_x + log_geom_x).  0 at the Theta poles (profile_x < 0), +inf
    where log_geom_x is ((x-end)^2/k where k = 0; see ``_sample_rows``).
    x_rule may be a window's trapezoid rule, or nonzero at one x node to
    integrate over (t, a) there; the weight is then taken only on the x
    columns where x_rule is nonzero, each entry as on the full block, and
    is 0 on the others.  2s Theta profile_x and the full rule's cut are
    ``levels``' for the level (:meth:`_Levels.exponent`, :meth:`_Levels.cut`).
    """
    if x_rule is None:
        cols = slice(None)
        trapezoid, cut = levels.cut(n)
    else:
        cols = np.flatnonzero(x_rule)
        trapezoid, cut = _cut(levels.rule_at(n, x_rule[cols]))
    with np.errstate(invalid="ignore", over="ignore"):
        w = levels.exponent(n, s, profile_x)[..., cols] \
            + theta_power * levels.log_theta[n]
        w += np.broadcast_to(log_geom_x, levels.x_rule.shape)[cols]
        # an entry whose product with the (possibly signed) rule would
        # fall below tiny, with a factor e to spare for rounding, is 0:
        # numpy takes a slow path to exp into the subnormals, and a
        # subnormal entry would slow the products too
        small = w < cut
        out = np.zeros(w.shape)
        np.exp(w, out=out, where=~small)
    out[:, levels.poles[n]] = 0.0
    out *= trapezoid
    if x_rule is None:
        return out
    block = np.zeros(out.shape[:-1] + levels.x_rule.shape)
    block[..., cols] = out
    return block


def _carleman_lhs(levels: _Levels, n: int, sweep, profile_x, log_geom_vx,
                  log_geom_v) -> dict:
    """Weights at level n of s int_Q Theta e^{geom_vx} v_x^2 e^{2s Theta
    profile} + s^3 int_Q Theta^3 e^{geom_v} v^2 e^{2s Theta profile}, the
    left side of every Carleman audit, for each s of ``sweep``."""
    s = _column(sweep)
    vx = _weight(levels, n, s, 1.0, profile_x, log_geom_vx)
    vx *= s
    v = _weight(levels, n, s, 3.0, profile_x, log_geom_v)
    v *= _column([value ** 3 for value in sweep])  # Python's pow, per s
    return {"vx": vx, "v": v}


def _degenerate_lhs(weights: CarlemanWeights) -> tuple:
    """The x profiles of int_Q (s Theta k v_x^2 + s^3 Theta^3 (r^2/k) v^2)
    e^{2s phi}, r = x - ``weights.end``, in ``_carleman_lhs``'s order:
    phi's profile, log k and log r^2/k."""
    xs, end = weights.grid.x_nodes, weights.end
    log_k = np.asarray(weights.coef.log_k(xs), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x2_over_k = 2.0 * np.log(np.abs(xs - end)) - log_k  # +inf: k = 0
    # 0/0 at x = end, where r^2/k -> 0: k vanishes slower than r^2
    log_x2_over_k[xs == end] = -np.inf
    return weights.phi_profile(), log_k, log_x2_over_k


def _check_samples(samples, grid: Grid | None = None) -> Grid:
    """The grid of ``samples``: ``grid``, or by default the first
    sample's.  ValueError for an empty list, a sample on another grid and
    samples that are all zero, read level by level as the audits read
    them."""
    if not samples:
        raise ValueError("empty sample list")
    grids = ([samples.grid] if isinstance(samples, _Family)
             else [field.grid for pair in samples for field in pair])
    grid = grids[0] if grid is None else grid
    if any(other != grid for other in grids):
        raise ValueError("sample grid does not match the weight grid")
    fill = _level_fill(samples)
    v, f = np.empty((2, len(samples), grid.Na + 1, grid.Nx + 1))
    for n in range(grid.Nt + 1):
        fill(n, v, f)
        if v.any() or f.any():
            return grid
    raise ValueError("all samples are zero; no informative ratios")


def _level_fill(samples):
    """``fill(n, v, f)``, which writes every sample's v and f at time
    level n into the (samples, Na+1, Nx+1) arrays ``v`` and ``f``: a
    family's two products, or a copy of each pair's level."""
    if isinstance(samples, _Family):
        return samples.fill

    def fill(n, v, f):
        for idx, (v_s, f_s) in enumerate(samples):
            v[idx] = v_s.values[n]
            f[idx] = f_s.values[n]

    return fill


def window_nodes(xs: np.ndarray, window: tuple[float, float],
                 name: str) -> np.ndarray:
    """Mask of the x nodes in ``window``; its trapezoid rule needs two."""
    sel = window_mask(xs, *window)
    if np.count_nonzero(sel) < 2:
        raise ValueError(f"window {name} = [{window[0]:g}, {window[1]:g}] "
                         f"needs two x nodes for the audit; it holds fewer")
    return sel


def _make_row(idx: int, s: float, lhs: float, rhs: float) -> ReportRow:
    lhs, rhs = float(lhs), float(rhs)
    if lhs == 0.0 and rhs == 0.0:
        return ReportRow(idx, s, lhs, rhs, None)
    return ReportRow(idx, s, lhs, rhs, lhs / rhs if rhs != 0.0 else math.inf)


def _sample_rows(samples, grid: Grid, sweep, forms) -> list[ReportRow]:
    """One report row per sample and s, ordered by sample, then by s.

    ``forms(n)`` gives the weights of the left and the right side at time
    level n, each a dict from "v", "vx" or "f" to an (S, Na+1, Nx+1)
    array, one block per s of ``sweep``, or to an (Na+1, Nx+1) array for
    a weight that does not depend on s.  Each side is a sum of quadratic
    forms: level by level, ``_level_reader`` gives for each key the
    coefficients C (samples, pairs) and the products B (pairs, (Na+1)
    (Nx+1)) for which sum_p C_cp B_p is sample c's squared field (v, its
    nodal x-gradient v_x, or f), and a side gains C @ (B @ w^T) per term.
    A ``manufactured_family`` gives the pair products of its bases
    (:meth:`_Family.reader`), so a level costs its weights and pairs x
    nodes x s products whatever the count; that sum moves a row from the
    squares' by 9.3e-15 relative on the 30 samples of seed 0 on
    ``default_degenerate``, and by up to 1.5e-11 where a sample's field
    nearly cancels in its weight's support (seeds 0-11).  Any other list
    of pairs, checked by ``_check_samples`` against ``grid``, gives its
    squared fields with identity coefficients.  A level where both dicts
    are empty (a Theta pole level, where every weight is 0, of an audit
    with no window term) is skipped.  A +inf weight counts 0 where the
    squared field, read from C and B on the infinite entries, vanishes;
    where a sample's does not, ValueError names the lowest such sample.
    """
    count, size = len(samples), (grid.Na + 1) * (grid.Nx + 1)
    sides = (np.zeros((count, len(sweep))), np.zeros((count, len(sweep))))
    hits = {}  # key -> the samples nonzero where that weight is infinite
    read = _level_reader(samples, grid)
    for n in range(grid.Nt + 1):
        level = forms(n)
        if not any(level):
            continue  # no term: every weight is 0 at a Theta pole level
        terms = read(n)
        for side, weights in zip(sides, level):
            for key, w in weights.items():
                coef, products = terms[key]
                w = w.reshape(-1, size)
                inf = np.isinf(w)
                if inf.any():
                    w[inf] = 0.0
                    hit = hits.setdefault(key, np.zeros(count, dtype=bool))
                    hit |= (coef @ products[:, inf.any(axis=0)]).any(axis=1)
                side += coef @ (products @ w.T)
        del level, weights, w, inf, terms  # before the next level's
    offending = [(idx, key) for key, hit in hits.items()
                 for idx in np.flatnonzero(hit)]
    if offending:
        idx, key = min(offending, key=lambda pair: pair[0])
        raise ValueError(f"sample {idx} is nonzero where its {key} weight "
                         f"is infinite")
    lhs, rhs = sides
    return [_make_row(idx, s, lhs[idx, j], rhs[idx, j])
            for idx in range(count) for j, s in enumerate(sweep)]


def _level_reader(samples, grid: Grid):
    """``read(n)`` for ``_sample_rows``: a family's quadratic forms, or,
    for a list of pairs, every sample's squared v, v_x and f at time level
    n, each (samples, (Na+1)(Nx+1)), with identity coefficients."""
    if isinstance(samples, _Family):
        return samples.reader()
    count = len(samples)
    squares = {key: np.empty((count, grid.Na + 1, grid.Nx + 1))
               for key in ("v", "vx", "f")}
    identity = np.eye(count)
    terms = {key: (identity, block.reshape(count, -1))
             for key, block in squares.items()}
    fill = _level_fill(samples)

    def read(n):
        fill(n, squares["v"], squares["f"])
        _x_gradient(squares["v"], grid.dx, out=squares["vx"])
        for block in squares.values():
            np.square(block, out=block)
        return terms

    return read


def _x_gradient(values: np.ndarray, dx: float, out: np.ndarray) -> None:
    """``np.gradient(values, dx, axis=-1, edge_order=2)`` into ``out``, both
    C-contiguous, bit for bit: central differences inside, 3-point
    one-sided ones at the ends.  The central differences run over the
    flattened array, a fifth of np.gradient's time on a level's block;
    the ends then overwrite those taken across two rows."""
    flat, grad = values.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=grad[1:-1])
    grad[1:-1] /= 2.0 * dx
    out[..., 0] = (-1.5 / dx * values[..., 0] + 2.0 / dx * values[..., 1]
                   + -0.5 / dx * values[..., 2])
    out[..., -1] = (0.5 / dx * values[..., -3] + -2.0 / dx * values[..., -2]
                    + 1.5 / dx * values[..., -1])


# ---------------------------------------------------------------------------
# Carleman audits


def carleman_audit_deg0(samples, weights: CarlemanWeights) -> InequalityReport:
    """Weighted estimate with boundary observation at x = 1, for every s of
    ``weights.s_sweep``.

    LHS: int_Q (s Theta k v_x^2 + s^3 Theta^3 (x^2/k) v^2) e^{2s phi};
    RHS: int_Q f^2 e^{2s phi} + s int int Theta [k v_x^2 e^{2s phi}](x=1).
    ``weights.end`` must be 0 (ValueError otherwise).
    """
    return _carleman_degenerate(samples, weights, 0.0)


def carleman_audit_deg1(samples, weights: CarlemanWeights) -> InequalityReport:
    """Mirror audit (degeneracy at x = 1 alone, boundary observation at
    x = 0): :func:`carleman_audit_deg0`'s kernel with x^2 replaced by
    (1-x)^2 and p by int_x^1 (1-y)/k(y) dy, taken where the degeneracy
    is, so the two agree to round-off on mirror-symmetric inputs.
    ``weights.end`` must be 1 (ValueError otherwise).
    """
    return _carleman_degenerate(samples, weights, 1.0)


def _carleman_degenerate(samples, weights: CarlemanWeights,
                         end: float) -> InequalityReport:
    """The degenerate audit at ``end``, observed at x = 1 - end."""
    name = f"carleman_deg{end:g}"
    if weights.end != end:
        raise ValueError(f"{name} needs weights built for k degenerate at "
                         f"x = {end:g}; these are for x = {weights.end:g}")
    grid, sweep = _check_samples(samples, weights.grid), weights.s_sweep
    levels, s = _Levels(grid), _column(sweep)
    lhs = _degenerate_lhs(weights)
    prof = lhs[0]
    observed = 0 if end else -1  # the x node at 1 - end
    edge = np.zeros_like(grid.x_nodes)
    edge[observed] = weights.coef.k(grid.x_nodes[observed])

    def forms(n):
        if levels.pole_level(n):
            return {}, {}
        return (_carleman_lhs(levels, n, sweep, *lhs),
                {"f": _weight(levels, n, s, 0.0, prof),
                 "vx": s * _weight(levels, n, s, 1.0, prof, x_rule=edge)})

    rows = _sample_rows(samples, grid, sweep, forms)
    return InequalityReport(name, tuple(rows), weights.s_sweep,
                            {"kappa": weights.kappa})


def carleman_audit_nondeg(samples, weights: CarlemanWeights) -> InequalityReport:
    """Non-degenerate estimate with the exponential-of-sigma weights, for
    every s of ``weights.s_sweep``.

    LHS: int_Q (s^3 phi^3 z^2 + s phi z_x^2) e^{2s Phi} with
    phi = Theta e^{kappa sigma}; RHS: int_Q f^2 e^{2s Phi} minus the
    signed boundary bracket -s kappa [k e^{2s Phi} phi z_x^2] from 0 to 1,
    or from 1 to 0 for weights with ``end`` 1, whose sigma grows from the
    grid's left end: the mirror estimate.
    """
    grid, sweep = _check_samples(samples, weights.grid), weights.s_sweep
    weights.require_nondeg()
    levels, s = _Levels(grid), _column(sweep)
    psi = weights.Psi
    kappa_sigma = weights.kappa * weights.sigma
    bracket = np.zeros_like(grid.x_nodes)  # [k ...] from 0 to 1, or 1 to 0
    bracket[[0, -1]] = weights.coef.k(grid.x_nodes[[0, -1]]) * (
        [1.0, -1.0] if weights.end else [-1.0, 1.0])

    def forms(n):
        if levels.pole_level(n):
            return {}, {}
        return (_carleman_lhs(levels, n, sweep, psi, kappa_sigma,
                              3.0 * kappa_sigma),
                {"f": _weight(levels, n, s, 0.0, psi),
                 "vx": -s * weights.kappa * _weight(levels, n, s, 1.0, psi,
                                                    kappa_sigma, bracket)})

    rows = _sample_rows(samples, grid, sweep, forms)
    return InequalityReport("carleman_nondeg", tuple(rows), weights.s_sweep,
                            {"kappa": weights.kappa, "frak_d": weights.frak_d})


def carleman_local_audit(samples, omega: tuple[float, float],
                         weights: CarlemanWeights) -> InequalityReport:
    """Omega-local estimate: degenerate LHS against source plus window terms,
    for every s of ``weights.s_sweep``.

    LHS is the degenerate-audit left side at ``weights.end``; RHS combines
    int_Q f^2 e^{2s Phi} (Phi from non-degenerate weights built from the
    cut to the other end and continued by a constant across the cut) with
    the unweighted window integral of v^2.  The cut is the node that
    ``glue_two_sided``'s default cut snaps to: lo/2 for end 0, (1 + hi)/2
    for end 1.  Two-sided k raises ValueError.
    """
    grid = _check_samples(samples, weights.grid)
    coef = weights.coef
    lo, hi = omega
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("window must be strictly interior to (0,1)")
    window = _window_rule(grid, omega, "omega")
    end = weights.end
    # k vanishes at 1 - end only when both ends degenerate (end is then 0)
    if coef.k(1.0 - end) <= 0.0:
        raise ValueError("local audit needs one-sided degeneracy; "
                         "use the gluing construction for two-sided k")

    xs = grid.x_nodes  # the sub grid has at least two cells
    if end:
        first, last = 0, max(_nearest_x_node(grid, 0.5 * (1.0 + hi)), 2)
    else:
        first = min(_nearest_x_node(grid, 0.5 * lo), grid.Nx - 2)
        last = grid.Nx
    sub = replace(grid, Nx=last - first,
                  x_span=(float(xs[first]), float(xs[last])))
    sub_weights = build_carleman_weights(sub, coef)
    sub_weights.require_nondeg()
    psi_ext = np.pad(sub_weights.Psi, (first, grid.Nx - last), mode="edge")

    sweep = weights.s_sweep
    levels, s = _Levels(grid), _column(sweep)
    lhs = _degenerate_lhs(weights)

    def forms(n):
        if levels.pole_level(n):
            return {}, {"v": levels.rule_at(n, window)}
        return (_carleman_lhs(levels, n, sweep, *lhs),
                {"f": _weight(levels, n, s, 0.0, psi_ext),
                 "v": levels.rule_at(n, window)})

    rows = _sample_rows(samples, grid, sweep, forms)
    return InequalityReport(f"carleman_local_deg{end:g}", tuple(rows),
                            weights.s_sweep,
                            {"kappa": weights.kappa, "omega": [lo, hi]})


def caccioppoli_audit(samples, omega_prime: tuple[float, float],
                      omega: tuple[float, float],
                      s: float) -> InequalityReport:
    """Interior gradient bound: weighted v_x^2 on omega' by v^2 on omega.

    LHS: int int_{omega'} e^{2s Theta Psi} v_x^2; RHS: int int_omega v^2
    + int_Q e^{2s Theta Psi} f^2, with the negative spatial profile
    Psi(x) = -(1 + 4x(1 - x)).  Every sample must live on the first
    sample's grid.
    """
    grid = _check_samples(samples)
    lo_p, hi_p = omega_prime
    lo, hi = omega
    if not (0.0 < lo < lo_p < hi_p < hi < 1.0):
        raise ValueError("need omega' strictly inside omega strictly inside (0,1)")
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"s must be finite and positive, got {s!r}")
    xs = grid.x_nodes
    psi_x = -(1.0 + 4.0 * xs * (1.0 - xs))
    window = _window_rule(grid, omega, "omega")
    x_inner = _window_rule(grid, omega_prime, "omega'")
    levels, s_col = _Levels(grid), _column((s,))

    def forms(n):
        if levels.pole_level(n):
            return {}, {"v": levels.rule_at(n, window)}
        return ({"vx": _weight(levels, n, s_col, 0.0, psi_x, x_rule=x_inner)},
                {"v": levels.rule_at(n, window),
                 "f": _weight(levels, n, s_col, 0.0, psi_x)})

    rows = _sample_rows(samples, grid, (s,), forms)
    return InequalityReport("caccioppoli", tuple(rows), (s,),
                            {"omega": [lo, hi], "omega_prime": [lo_p, hi_p]})


# ---------------------------------------------------------------------------
# observability


def observability_ratio(spec: ProblemSpec, ensemble,
                        delta: float) -> InequalityReport:
    """Empirical constant of the intermediate-time observability bound.

    For each final datum the renewal-coupled adjoint is solved and

        int int v^2(T - a_bar)  <=  C (int_{a<=delta} v_T^2 + window term)

    is evaluated, with T - a_bar the lattice level of
    ``solver._switch_level``.  The window term integrates over
    ``spec.omega`` (another window: ``dataclasses.replace(spec, omega=w)``);
    each call solves its adjoints afresh, the whole ensemble as one march
    (``solver._adjoint_levels``) whose levels are read as they come.
    """
    if not ensemble:
        raise ValueError("empty ensemble")
    grid = spec.grid
    if not grid.T < delta < grid.A:
        raise ValueError("delta must lie in (T, A)")
    for idx, v_T in enumerate(ensemble):
        if v_T.grid != grid:
            raise ValueError("ensemble grid does not match the problem grid")
        tail = float(np.max(np.abs(v_T.values[-1])))
        if tail > 1e-12 * max(float(np.max(np.abs(v_T.values))), 1e-300):
            raise ValueError(f"ensemble member {idx} has v_T(A,.) != 0")
    lo, hi = spec.omega
    sel = window_mask(grid.x_nodes, lo, hi)
    n_star = _switch_level(grid, spec.rates.a_bar)
    t_weights = axis_weights(grid.Nt + 1, grid.dt)
    early = grid.a_nodes <= delta
    window = np.zeros(len(ensemble))
    final = np.stack([v_T.values for v_T in ensemble], axis=1)
    for n, level in _adjoint_levels(spec, final):
        inside = level[:, :, sel]
        window += t_weights[n] * np.einsum("akx,akx->k", inside, inside)
        if n == n_star:
            lhs = [lattice_inner(v, v, grid) for v in level.transpose(1, 0, 2)]
    window *= grid.da * grid.dx
    rows = []
    for idx, v_T in enumerate(ensemble):
        early_rows = v_T.values[early]
        final_term = lattice_inner(early_rows, early_rows, grid)
        rows.append(_make_row(idx, 0.0, lhs[idx],
                              final_term + float(window[idx])))
    return InequalityReport("observability", tuple(rows), (),
                            {"delta": delta, "omega": [lo, hi]})
