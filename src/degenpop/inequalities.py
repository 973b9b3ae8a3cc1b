"""Empirical audits of the weighted functional inequalities.

Each audit evaluates both sides of an inequality on a family of exact
discrete solutions and reports the worst ratio as an empirical constant.
Each side of a Carleman-type audit is a quadratic form, summed one time
level at a time: at each level, one weight block (quadrature weights
times the Carleman weight) per s of the sweep for each of v^2, v_x^2 and
f^2, and one matrix product of every sample's squares with those blocks.
The weight is exactly 0 at the Theta poles, so the levels t = 0 and
t = T, poles on every node, add only window terms; it is +inf only where
(x-end)^2/k is, and there a sample must vanish, or the audit raises.  The
manufactured samples of these audits are built as one batch: their
profiles share four (a, x) modes, so v is one matrix product of every
sample's time factors with the modes, and f one product per level, with
D applied once per mode and distinct level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import legvander
from numpy.polynomial.polynomial import polyval

from .coeffs import (CarlemanWeights, DegenerateCoefficient,
                     build_carleman_weights, eval_theta)
from .discretize import (
    Field3,
    Grid,
    _nearest_x_node,
    _check_values,
    _WeightedQuadrature,
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
# Nodes per block of the Hardy Gram pass.  A block holds the basis, 7
# doubles per node for degree-7 test functions, and a weighted copy.
# Medians of 11 timings of one report, 100 functions on 400 001 nodes
# (2-vCPU Xeon, 2 MiB L2 per core, numpy 2.4, 2 BLAS threads), at x = 1
# and at x = 0: 4096 nodes 0.065 / 0.065 s, 8192 0.059 / 0.060, 16 384
# 0.061 / 0.060, 32 768 0.071 / 0.070, 65 536 0.080 / 0.084.  8192 also
# halves the worst round-off against np.longdouble sums: 1.3e-14, against
# 2.7e-14 at 32 768 (six theta, both ends, up to 400 001 nodes).
_HARDY_BLOCK = 8192


def hardy_ratio(k, theta: float, case: str, test_functions, *,
                n_quad: int = 400_001) -> InequalityReport:
    """Ratios of int k/(1-x)^2 w^2 over int k |w'|^2 per test function.

    ``k`` is a ``PowerLaw`` or a ``Tabulated`` (else ValueError).
    ``test_functions`` is a non-empty list of (w, w') pairs of
    ``numpy.polynomial.Polynomial`` in x, such as
    :func:`random_hardy_test_functions` returns; w' is taken as given.
    ``case`` follows the proposition's naming: HP1/HP1p need w(1) = 0 and
    theta in (0,1); HP2/HP2p need w(0) = 0 and theta in (1,2).  For the
    primed cases, where k/(1-x)^theta is monotone on all of (0,1), the
    ratio is checked against the closed bound 4/(1-theta)^2 and an
    arithmetic error is raised on violation (that bound is exact theory,
    so exceeding it means a quadrature or input bug).  A zero right side
    under a nonzero left one gives an infinite ratio.  A pair that is not
    two such polynomials, a test function that does not vanish where the
    case needs it, or one whose left or right side is not finite (a
    non-finite coefficient makes it so) raises ValueError naming its
    index, and so does an empty family.  :func:`hardy_ratio_at_zero` is
    the same audit with the singular end at x = 0; both are calls of one
    kernel.
    """
    return _hardy(k, theta, case, test_functions, n_quad, 1.0, "hardy")


def hardy_ratio_at_zero(k, theta: float, case: str, test_functions, *,
                        n_quad: int = 400_001) -> InequalityReport:
    """Ratios of int k/x^2 w^2 over int k |w'|^2 per test function.

    :func:`hardy_ratio` with the singular end at x = 0, by the same
    kernel: HP1 cases need w(0) = 0, HP2 cases w(1) = 0.  Nothing is
    reflected, so the rows match :func:`hardy_ratio` on the problem
    reflected to x = 1 only to round-off: 1 - (1 - x) rounds the end
    cell's finest points, by up to 2.1e-7 relative in HP2 rows (README).
    """
    return _hardy(k, theta, case, test_functions, n_quad, 0.0,
                  "hardy_at_zero")


def _hardy(k, theta: float, case: str, test_functions, n_quad: int,
           end: float, name: str) -> InequalityReport:
    """The Hardy audit with the left weight k/(end - x)^2, singular at
    ``end`` (1.0 or 0.0), reported as ``name``.

    k is evaluated on the nodes once, and both sides' per-node weights
    (``_WeightedQuadrature``; the right side's are the trapezoid weights
    times k) are built once for the whole family.  One pass over blocks
    of ``_HARDY_BLOCK`` nodes then sums each side's Gram matrix of a
    polynomial basis against its weights, and each row is a quadratic
    form in the function's coefficients in that basis: on the left
    1 and (x - end) P_j(2x - 1), with P_j the Legendre polynomials, so
    that w(end) is the first coefficient (0 for an HP1 function); on the
    right P_j(2x - 1).  No test function is evaluated on the node
    blocks: w is evaluated at the end cell's two nodes, for
    ``_WeightedQuadrature.end_cells``, and where it must vanish, which
    is checked against its L^2(0,1) norm.
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
    nodes = np.linspace(0.0, 1.0, n_quad)
    kv = np.asarray(k.k(nodes), dtype=float)

    def weight_lhs(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return k.k(x) / (end - x) ** 2

    with np.errstate(divide="ignore", invalid="ignore"):
        lhs_quad = _WeightedQuadrature(nodes, kv / (end - nodes) ** 2,
                                       weight_lhs)
    rhs_weights = axis_weights(n_quad, float(nodes[1] - nodes[0]))
    rhs_weights *= kv
    del kv  # node-sized arrays held from here: nodes and the two weights
    w, wp = _hardy_coefficients(test_functions)
    if not len(w):
        raise ValueError("empty test function family")
    lhs_forms, rhs_forms = _hardy_forms(w, wp, end, nodes, lhs_quad.weights,
                                        rhs_weights)
    scales = _l2_norms(w)
    # w at the end cell's two nodes, as lhs_quad.end_nodes orders them
    # (the other end has no end cell unless k is non-finite there, and
    # then no right side is finite), then at the other end
    at = polyval(nodes[[0, 1, -1]] if end == 0.0 else nodes[[-1, -2, 0]],
                 w.T)
    at_vanish = at[:, 0] if vanish_at == end else at[:, 2]

    rows = []
    for idx in range(len(w)):
        scale, edge = float(scales[idx]), abs(float(at_vanish[idx]))
        if scale > 0.0 and edge > 1e-9 * scale:
            raise ValueError(
                f"test function {idx} does not vanish at x = {vanish_at:g}")
        lhs = float(lhs_forms[idx]) + lhs_quad.end_cells(at[idx, :2])
        rhs = float(rhs_forms[idx])
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


def _hardy_coefficients(test_functions) -> tuple[np.ndarray, np.ndarray]:
    """The power-series coefficients in x of every (w, w') pair, one row
    per pair, zero-padded to the family's longest; ValueError names the
    first pair that is not two ``numpy.polynomial.Polynomial`` in x."""
    pairs = []
    for idx, pair in enumerate(test_functions):
        polys = tuple(pair) if isinstance(pair, (tuple, list)) else ()
        if len(polys) != 2 or not all(
                isinstance(p, Polynomial) and np.isrealobj(p.coef)
                and p.mapparms() == (0.0, 1.0) for p in polys):
            raise ValueError(f"test function {idx} is not a (w, w') pair of "
                             f"numpy.polynomial.Polynomial in x")
        pairs.append(polys)

    def stacked(polys):
        out = np.zeros((len(polys), max((p.coef.size for p in polys),
                                        default=1)))
        for row, p in zip(out, polys):
            row[:p.coef.size] = p.coef
        return out

    return stacked([w for w, _ in pairs]), stacked([wp for _, wp in pairs])


def _shifted_legendre_of_monomials(size: int) -> np.ndarray:
    """(size, size) matrix whose row j holds the coefficients of x^j in
    the shifted Legendre polynomials P_i(2x - 1), i < size."""
    out = np.zeros((size, size))
    for j in range(size):
        out[j, :j + 1] = np.polynomial.Legendre.cast(
            Polynomial.basis(j), domain=[0.0, 1.0]).coef
    return out


def _l2_norms(coef: np.ndarray) -> np.ndarray:
    """||w||_{L^2(0,1)} of each row of power-series coefficients: the sum
    of c_j^2 / (2j + 1) over its coefficients c_j in the P_j(2x - 1)."""
    size = coef.shape[1]
    legendre = coef @ _shifted_legendre_of_monomials(size)
    return np.sqrt(legendre ** 2 @ (1.0 / np.arange(1, 2 * size, 2)))


def _hardy_forms(w: np.ndarray, wp: np.ndarray, end: float,
                 nodes: np.ndarray, lhs_weights: np.ndarray,
                 rhs_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each test function's node sums of lhs_weights * w^2 and of
    rhs_weights * w'^2, from rows of power-series coefficients.

    Each side is a quadratic form: coefficients, Gram matrix,
    coefficients.  On the left they are w(end) and the coefficients of
    q = (w - w(end)) / (x - end) in the P_j(2x - 1), as w = w(end) +
    (x - end) q; on the right, those of w' in the P_j(2x - 1).
    """
    n = max(w.shape[1] - 1, wp.shape[1])  # the P_j(2x - 1) span q and w'
    to_legendre = _shifted_legendre_of_monomials(n)
    # q and w(end) by synthetic division at end, the family at once
    q = np.zeros((len(w), n))
    at_end = w[:, -1]
    for j in range(w.shape[1] - 2, -1, -1):
        q[:, j] = at_end
        at_end = w[:, j] + end * at_end
    lhs_coef = np.hstack([at_end[:, None], q @ to_legendre])
    rhs_coef = wp @ to_legendre[:wp.shape[1]]
    gram_lhs, gram_rhs = _hardy_grams(nodes, end, lhs_weights, rhs_weights,
                                      n - 1)
    return (np.einsum("ki,ij,kj->k", lhs_coef, gram_lhs, lhs_coef),
            np.einsum("ki,ij,kj->k", rhs_coef, gram_rhs, rhs_coef))


def _hardy_grams(nodes: np.ndarray, end: float, lhs_weights: np.ndarray,
                 rhs_weights: np.ndarray,
                 deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices of the Hardy bases over the nodes, summed over blocks
    of ``_HARDY_BLOCK`` nodes: on the left 1 and (x - end) P_j(2x - 1)
    against ``lhs_weights``, on the right P_j(2x - 1) against
    ``rhs_weights``, j <= deg."""
    gram_lhs = np.zeros((deg + 2, deg + 2))
    gram_rhs = np.zeros((deg + 1, deg + 1))
    for lo in range(0, nodes.size, _HARDY_BLOCK):
        b = slice(lo, lo + _HARDY_BLOCK)
        x = nodes[b]
        basis = legvander(2.0 * x - 1.0, deg).T  # (deg + 1, block)
        d = x - end
        weighted = lhs_weights[b] * d
        gram_lhs[0, 0] += lhs_weights[b].sum()
        gram_lhs[0, 1:] += basis @ weighted
        weighted *= d
        gram_lhs[1:, 1:] += basis @ (basis * weighted).T
        gram_rhs += basis @ (basis * rhs_weights[b]).T
    gram_lhs[1:, 0] = gram_lhs[0, 1:]
    return gram_lhs, gram_rhs


def random_hardy_test_functions(vanish_at: float, count: int, seed: int):
    """Random degree-7 polynomials that vanish at ``vanish_at`` (0 or 1):
    an edge factor, 1 - x or x, times a degree-6 polynomial with standard
    normal coefficients.  Returns (w, w') pairs of
    ``numpy.polynomial.Polynomial``."""
    if vanish_at not in (0.0, 1.0):
        raise ValueError(f"vanish_at must be 0 or 1, got {vanish_at!r}")
    # one draw of (count, 7) is the stream of count draws of 7
    q = spawn_rng(seed, stream=11).standard_normal((max(count, 0), 7))
    # the coefficients Polynomial's product and deriv give, bit for bit
    w = np.empty((len(q), 8))
    if vanish_at == 1.0:  # (1 - x) q
        w[:, 0] = q[:, 0]
        np.subtract(q[:, 1:], q[:, :-1], out=w[:, 1:7])
        w[:, 7] = -q[:, 6]
    else:  # x q
        w[:, 0] = 0.0
        w[:, 1:] = q
    wp = w[:, 1:] * np.arange(1, 8)
    return [(Polynomial(a), Polynomial(b)) for a, b in zip(w, wp)]


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
    ``random_adjoint_profiles(T, A, count, seed)``, in their order, built
    as one batch.

    Every profile is sum_{m,n<2} c_mn(t) M_mn(a, x) over the same four
    modes M_mn = sin((m+1) pi x) sin((n+1) pi a/A); only the time factors
    c_mn(t) = coeff (1 + 0.3 cos((m+n+1) pi t/T + phase)) differ.  So v is
    one matrix product of every sample's time factors with the modes, and
    by linearity f^{n+1} = (v^{n+1} - D_{n+1} v^n) / dt is one product
    per level, of the time factors at n + 1 and n with the modes and with
    D applied to them: D is applied once per mode and distinct level,
    whatever ``count``.  The pairs match the per-profile ones to
    round-off.  Each is a view into two stacked arrays, (count, Nt+1,
    Na+1, Nx+1), each scanned once for finiteness.
    """
    grid = spec.grid
    coeffs, phases = _adjoint_draws(count, seed)
    count = len(coeffs)
    modes = _adjoint_modes(grid)
    m, n = np.divmod(np.arange(4), 2)  # the profile's term order
    angle = (m + n + 1) * math.pi * grid.t_nodes[:, None] / grid.T
    times = coeffs.reshape(count, 1, 4) * (
        1.0 + 0.3 * np.cos(angle + phases.reshape(count, 1, 4)))
    shape = (count,) + Field3._shape(grid)
    rows, level_size = count * (grid.Nt + 1), modes[0].size
    v = np.empty(shape)
    np.matmul(times.reshape(rows, 4), modes.reshape(4, level_size),
              out=v.reshape(rows, level_size))

    prop = spec._propagator
    f = np.zeros(shape)  # level 0 stays 0
    # level n of every sample: [c(t^n), c(t^{n-1})] @ [M; -D_n applied to
    # M's rows 0..Na-1, placed on rows 1..Na], written in place; the
    # operands are 0 off rows 1..Na and the interior x nodes
    pairs = np.concatenate([times[:, 1:], times[:, :-1]], axis=2)
    operands = np.zeros((8,) + modes.shape[1:])
    operands[:4] = modes
    for level in range(1, grid.Nt + 1):
        if not prop.repeats_level(level):
            for mode, out in zip(modes, operands[4:]):
                np.negative(prop.apply_diffusion(level, mode[:-1, 1:-1]),
                            out=out[1:, 1:-1])
        np.matmul(pairs[:, level - 1], operands.reshape(8, level_size),
                  out=f[:, level].reshape(count, level_size))
    f /= grid.dt
    for values in (v, f):
        _check_values(values, shape, "Field3 values")
    return [(Field3._checked_already(grid, v_s),
             Field3._checked_already(grid, f_s)) for v_s, f_s in zip(v, f)]


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
    is 0 on the others.
    """
    rule = levels.x_rule if x_rule is None else x_rule
    cols = np.flatnonzero(rule)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = 2.0 * s * levels.theta[n] * profile_x[cols]
        w += theta_power * levels.log_theta[n]
        w += np.broadcast_to(log_geom_x, rule.shape)[cols]
        np.exp(w, out=w)
    w[:, levels.poles[n]] = 0.0
    w *= levels.rule_at(n, rule[cols])
    if cols.size == rule.size:
        return w
    block = np.zeros(w.shape[:-1] + rule.shape)
    block[..., cols] = w
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


def _check_samples(samples) -> None:
    if not samples:
        raise ValueError("empty sample list")
    if all(float(np.max(np.abs(v.values))) == 0.0
           and float(np.max(np.abs(f.values))) == 0.0 for v, f in samples):
        raise ValueError("all samples are zero; no informative ratios")


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
    a weight that does not depend on s.  Level by level, every sample's
    squares of v, v_x (the nodal x-gradient of v) and f fill a (samples,
    Na+1, Nx+1) block each, and a side gains one product of such a block
    with its weights' blocks per term.  A level where both dicts are
    empty (a Theta pole level, where every weight is 0, of an audit with
    no window term) is skipped.  A +inf weight counts 0 where the field
    vanishes; where a sample does not, ValueError names the lowest such
    sample.
    """
    if any(v.grid != grid or f.grid != grid for v, f in samples):
        raise ValueError("sample grid does not match the weight grid")
    count, size = len(samples), (grid.Na + 1) * (grid.Nx + 1)
    squares = {key: np.empty((count, grid.Na + 1, grid.Nx + 1))
               for key in ("v", "vx", "f")}
    flat = {key: block.reshape(count, size) for key, block in squares.items()}
    sides = (np.zeros((count, len(sweep))), np.zeros((count, len(sweep))))
    hits = {}  # key -> the samples nonzero where that weight is infinite
    for n in range(grid.Nt + 1):
        level = forms(n)
        if not any(level):
            continue  # no term: every weight is 0 at a Theta pole level
        for idx, (v, f) in enumerate(samples):
            squares["v"][idx] = v.values[n]
            squares["f"][idx] = f.values[n]
        _x_gradient(squares["v"], grid.dx, out=squares["vx"])
        for block in squares.values():
            np.square(block, out=block)
        for side, weights in zip(sides, level):
            for key, w in weights.items():
                w = w.reshape(-1, size)
                inf = np.isinf(w)
                if inf.any():
                    w[inf] = 0.0
                    hit = hits.setdefault(key, np.zeros(count, dtype=bool))
                    hit |= flat[key][:, inf.any(axis=0)].any(axis=1)
                side += flat[key] @ w.T
        del level, weights, w, inf  # before the next level's are built
    offending = [(idx, key) for key, hit in hits.items()
                 for idx in np.flatnonzero(hit)]
    if offending:
        idx, key = min(offending, key=lambda pair: pair[0])
        raise ValueError(f"sample {idx} is nonzero where its {key} weight "
                         f"is infinite")
    lhs, rhs = sides
    return [_make_row(idx, s, lhs[idx, j], rhs[idx, j])
            for idx in range(count) for j, s in enumerate(sweep)]


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
    _check_samples(samples)
    grid, sweep = weights.grid, weights.s_sweep
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
    _check_samples(samples)
    weights.require_nondeg()
    grid, sweep = weights.grid, weights.s_sweep
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
    _check_samples(samples)
    grid = weights.grid
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
                      omega: tuple[float, float], psi,
                      s: float) -> InequalityReport:
    """Interior gradient bound: weighted v_x^2 on omega' by v^2 on omega.

    ``psi`` is a callable giving the strictly negative spatial profile Psi
    at the x nodes.  Every sample must live on the first sample's grid.
    """
    _check_samples(samples)
    lo_p, hi_p = omega_prime
    lo, hi = omega
    if not (0.0 < lo < lo_p < hi_p < hi < 1.0):
        raise ValueError("need omega' strictly inside omega strictly inside (0,1)")
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"s must be finite and positive, got {s!r}")
    grid = samples[0][0].grid
    psi_x = np.asarray(psi(grid.x_nodes), dtype=float)
    if np.any(psi_x >= 0.0):
        raise ValueError("Psi must be strictly negative on [0,1]")
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
