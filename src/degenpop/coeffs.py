"""Degenerate diffusion coefficients, vital rates and weight profiles.

The diffusion coefficient k vanishes at one or both ends of the spatial
interval.  Classification certifies the degeneracy strength M at each end
(weak for M < 1, strong for 1 <= M < 2; M >= 2 is rejected) together with
the monotonicity side exponents theta used by the Hardy-type inequalities.
The module also builds the spatial profiles entering the weighted
(Carleman-type) audit integrals and runs the report-only hypothesis
validation used by the scenario layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .discretize import Grid

__all__ = [
    "PowerLaw",
    "Tabulated",
    "DegenerateCoefficient",
    "DegeneracyReport",
    "EndDegeneracy",
    "classify_degeneracy",
    "VitalRates",
    "CarlemanWeights",
    "build_carleman_weights",
    "eval_theta",
    "HypothesisCheck",
    "HypothesisReport",
    "validate_hypotheses",
    "DEFAULT_S_SWEEP",
]

DEFAULT_S_SWEEP = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


@dataclass(frozen=True)
class PowerLaw:
    """k(x) = x**alpha0 * (1-x)**alpha1 on [0, 1]."""

    alpha0: float
    alpha1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha0", "alpha1"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"power-law exponent {name} must be finite "
                                 f"and nonnegative, got {value!r}")

    def k(self, x):
        x = np.asarray(x, dtype=float)
        return np.power(x, self.alpha0) * np.power(1.0 - x, self.alpha1)

    def kprime(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(self.alpha0 == 0.0, 0.0,
                            self.alpha0 * np.power(x, self.alpha0 - 1.0)
                            * np.power(1.0 - x, self.alpha1))
            right = np.where(self.alpha1 == 0.0, 0.0,
                             self.alpha1 * np.power(x, self.alpha0)
                             * np.power(1.0 - x, self.alpha1 - 1.0))
        return left - right

    def slope_ratio(self, x, end: float):
        """(x - end) k'(x) / k(x) for end 0.0 or 1.0, computed without the
        removable singularity: the exponent at ``end`` less the other
        exponent times |x - end| / |x - other end|."""
        x = np.asarray(x, dtype=float)
        near, far = (self.alpha1, self.alpha0) if end else (self.alpha0,
                                                           self.alpha1)
        return near - far * np.abs(x - end) / np.abs(x - (1.0 - end))

    def face_values(self, x_nodes: np.ndarray) -> np.ndarray:
        """Exact k at the cell midpoints (conservative face diffusivities)."""
        x = np.asarray(x_nodes, dtype=float)
        return self.k(0.5 * (x[:-1] + x[1:]))

    def log_k(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        with np.errstate(divide="ignore"):
            if self.alpha0 != 0.0:
                out = out + self.alpha0 * np.log(x)
            if self.alpha1 != 0.0:
                out = out + self.alpha1 * np.log1p(-x)
        return out


@dataclass(frozen=True)
class Tabulated:
    """Sampled coefficient with sampled derivative, linearly interpolated."""

    x: np.ndarray
    k_values: np.ndarray
    kprime_values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        kv = np.asarray(self.k_values, dtype=float)
        kp = np.asarray(self.kprime_values, dtype=float)
        for name, values in (("x", x), ("k_values", kv), ("kprime_values", kp)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"tabulated {name} must be finite")
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if kv.shape != x.shape or kp.shape != x.shape:
            raise ValueError("k and k' samples must match the abscissae")
        if np.any(kv < 0.0):
            raise ValueError("tabulated k_values must be non-negative, "
                             f"got {kv[kv < 0.0].tolist()}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "k_values", kv)
        object.__setattr__(self, "kprime_values", kp)

    def k(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.k_values)

    def kprime(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.kprime_values)

    def slope_ratio(self, x, end: float):
        """(x - end) k'(x) / k(x) for end 0.0 or 1.0."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (x - end) * self.kprime(x) / self.k(x)

    def face_values(self, x_nodes: np.ndarray) -> np.ndarray:
        """Arithmetic mean of the nodal values (tabulated coefficients)."""
        kv = self.k(np.asarray(x_nodes, dtype=float))
        return 0.5 * (kv[:-1] + kv[1:])

    def log_k(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.k(x))


DegenerateCoefficient = PowerLaw | Tabulated


@dataclass(frozen=True)
class EndDegeneracy:
    """Certified degeneracy of k at one end: the slope bound M, weak for
    M < 1 and strong for 1 <= M < 2, and the monotonicity exponent theta."""

    M: float
    theta: float


@dataclass(frozen=True)
class DegeneracyReport:
    """Each degenerate end of k, 0.0 then 1.0, with its certified record;
    empty when k is degenerate at neither end."""

    ends: dict[float, EndDegeneracy]


def _theta_certificate(coef: DegenerateCoefficient, end: float) -> float:
    """Largest sampled-valid monotonicity exponent near ``end``.

    k/|x - end|**theta nondecreasing in the distance |x - end| near
    ``end`` is equivalent to theta <= (x - end) k'/k on a neighborhood.
    The infimum over a neighborhood shrinking from width 0.05 certifies a
    valid theta.
    """
    nb = 0.05
    for _ in range(40):
        pts = np.linspace(nb * 1e-3, nb, 64)
        val = float(np.min(coef.slope_ratio(np.abs(end - pts), end)))
        if val > 0.0:
            return val
        nb /= 2.0
    raise ValueError(f"could not certify a monotonicity exponent near "
                     f"{'one' if end else 'zero'}")


def classify_degeneracy(coef: DegenerateCoefficient) -> DegeneracyReport:
    """Classify the endpoint degeneracy of ``coef`` and certify M, theta.

    The coefficient classes carry no exponents; these are the only ones.
    A tabulated coefficient is sampled at the interior nodes of a
    2000-cell lattice of [0, 1].  Raises if the certified M at either end
    reaches 2 (excluded range) or if the coefficient is nonpositive
    somewhere in the open interval.
    """
    if isinstance(coef, PowerLaw):
        exponents = {0.0: coef.alpha0, 1.0: coef.alpha1}
        bounds = {end: m for end, m in exponents.items() if m > 0.0}
    else:
        xs = np.linspace(0.0, 1.0, 2001)[1:-1]
        kv = coef.k(xs)
        if np.any(kv <= 0.0):
            bad = xs[int(np.argmin(kv))]
            raise ValueError(f"coefficient nonpositive on the interior (x={bad:.6g})")
        # M is the largest slope ratio on the half of the lattice next to
        # the end
        bounds = {end: float(np.max(coef.slope_ratio(
                  xs[np.abs(xs - end) < 0.5], end)))
              for end in (0.0, 1.0) if coef.k(end) <= 0.0}
    for end, m in bounds.items():
        if m >= 2.0:
            raise ValueError(f"certified M{int(end) + 1} = {m:.6g} is >= 2 "
                             f"(outside the admissible range)")
    return DegeneracyReport({end: EndDegeneracy(m, _theta_certificate(
        coef, end)) for end, m in bounds.items()})


# ---------------------------------------------------------------------------
# vital rates


@dataclass(frozen=True)
class VitalRates:
    """Fertility beta(a, x), mortality mu(t, a, x), fertility onset a_bar.

    Callables must broadcast over numpy arrays.  The age profiles behind
    the net reproduction rate are probed from these same callables (see
    ``scenarios.net_reproduction_rate``), so R0 describes the rates the
    solver marches.
    """

    beta: object
    mu: object
    a_bar: float

    def __post_init__(self) -> None:
        if self.a_bar < 0:
            raise ValueError("a_bar must be nonnegative")

    def beta_grid(self, grid: Grid) -> np.ndarray:
        a = grid.a_nodes[:, None]
        x = grid.x_nodes[None, :]
        return np.broadcast_to(np.asarray(self.beta(a, x), dtype=float),
                               (grid.Na + 1, grid.Nx + 1)).copy()

    def mu_grid(self, t: float, grid: Grid) -> np.ndarray:
        a = grid.a_nodes[:, None]
        x = grid.x_nodes[None, :]
        return np.broadcast_to(np.asarray(self.mu(t, a, x), dtype=float),
                               (grid.Na + 1, grid.Nx + 1)).copy()


# ---------------------------------------------------------------------------
# weight profiles


def _cumulative_integral(fn, nodes: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``fn`` from nodes[0] along ``nodes``.

    Each cell is subdivided 32 times and integrated by trapezoid;
    the first/last sub-cell switches to the midpoint rule when the
    integrand is not finite (singular but integrable) at that endpoint.
    """
    out = np.zeros(nodes.size)
    acc = 0.0
    for i in range(nodes.size - 1):
        sub = np.linspace(nodes[i], nodes[i + 1], 33)
        vals = np.asarray(fn(sub), dtype=float)
        h = sub[1] - sub[0]
        cells = 0.5 * h * (vals[:-1] + vals[1:])
        if i == 0 and not np.isfinite(vals[0]):
            cells[0] = h * float(fn(np.asarray(sub[0] + h / 2.0)))
        if i == nodes.size - 2 and not np.isfinite(vals[-1]):
            cells[-1] = h * float(fn(np.asarray(sub[-1] - h / 2.0)))
        acc += float(np.sum(cells))
        out[i + 1] = acc
    return out


@dataclass
class CarlemanWeights:
    """Cached spatial profiles for the weighted audit integrals.

    end is the singular end of the degenerate audits, worked out by
    classify_degeneracy: x = 1 when only that end degenerates, else x = 0.
    p is the primitive of (y - end)/k(y) from the grid's node nearest end;
    sigma (0 at the grid's other end) and Psi are the non-degenerate
    profiles built from frak_d = sup|k'| over the x nodes and are only
    available when k is strictly positive on the grid span.  s_sweep is
    the s sweep of every audit that takes these weights.  kappa is the
    fixed scale of sigma in the non-degenerate weight exp(kappa * sigma).
    """

    kappa: ClassVar[float] = 1.0
    grid: Grid
    coef: DegenerateCoefficient
    s_sweep: tuple[float, ...] = DEFAULT_S_SWEEP
    end: float = field(init=False)
    p: np.ndarray = field(init=False)
    p_inf: float = field(init=False)
    frak_d: float | None = field(init=False, default=None)
    sigma: np.ndarray | None = field(init=False, default=None)
    sigma_max: float = field(init=False, default=0.0)
    Psi: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not self.s_sweep or not all(math.isfinite(s) and s > 0.0
                                       for s in self.s_sweep):
            raise ValueError(f"s_sweep must hold one or more finite positive "
                             f"values, got {self.s_sweep!r}")
        ends = classify_degeneracy(self.coef).ends
        two_sided = len(ends) == 2
        self.end = 1.0 if list(ends) == [1.0] else 0.0
        xs = self.grid.x_nodes
        ahead = slice(None, None, -1 if self.end else 1)  # nodes from end
        if isinstance(self.coef, PowerLaw) and not two_sided \
                and xs[ahead][0] == self.end:
            alpha = self.coef.alpha1 if self.end else self.coef.alpha0
            self.p = np.power(np.abs(xs - self.end),
                              2.0 - alpha) / (2.0 - alpha)
        else:
            ratio = lambda y: _safe_ratio(y, self.coef, self.end)
            self.p = _cumulative_integral(ratio, xs[ahead])[ahead]
        self.p_inf = float(np.max(np.abs(self.p)))

        kv = self.coef.k(xs)
        if np.all(kv > 0.0):
            d = float(np.max(np.abs(self.coef.kprime(xs))))
            if d > 0.0 and np.isfinite(d):
                self.frak_d = d
                tail = _cumulative_integral(lambda y: d / self.coef.k(y), xs)
                self.sigma = tail if self.end else tail[-1] - tail
                self.sigma_max = float(np.max(self.sigma))
                self.Psi = np.exp(self.kappa * self.sigma) - math.exp(
                    2.0 * self.kappa * self.sigma_max)

    def phi_profile(self) -> np.ndarray:
        """Negative spatial part of phi: phi = Theta * phi_profile."""
        return self.p - 2.0 * self.p_inf

    def require_nondeg(self) -> None:
        if self.Psi is None:
            raise ValueError(
                "non-degenerate weights unavailable: k must be strictly positive "
                "on the grid span with frak_d = sup|k'| > 0")


def _safe_ratio(y: np.ndarray, coef: DegenerateCoefficient,
                end: float) -> np.ndarray:
    """(y - end)/k(y), infinite or NaN where k vanishes."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (y - end) / coef.k(y)


def build_carleman_weights(grid: Grid, coef: DegenerateCoefficient, *,
                           s_sweep: tuple[float, ...] = DEFAULT_S_SWEEP) -> CarlemanWeights:
    return CarlemanWeights(grid=grid, coef=coef, s_sweep=s_sweep)


def eval_theta(t, a, T: float) -> np.ndarray:
    """Singular time-age factor 1/(t^4 (T-t)^4 a^4), an array; inf on poles."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        denom = (t ** 4) * ((T - t) ** 4) * (a ** 4)
        return np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0),
                        np.inf)


# ---------------------------------------------------------------------------
# hypothesis validation


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[HypothesisCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        return [f"[{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                for c in self.checks]


def validate_hypotheses(coef: DegenerateCoefficient, rates: VitalRates,
                        T: float, A: float, omega: tuple[float, float],
                        delta: float) -> HypothesisReport:
    """Check every structural hypothesis and report, without raising.

    Covers the horizon ordering, fertility onset, the age cutoff
    ``delta`` of HUM's target rows, control window geometry, coefficient
    positivity, the certified slope bounds M and theta side conditions,
    rate sign conditions and the vanishing of beta before the onset age,
    sampling k at the interior nodes of an 800-cell lattice of [0, 1].
    Each end's slope bound is checked on the half of that lattice next to
    the end, as ``classify_degeneracy`` certifies M.
    """
    checks: list[HypothesisCheck] = []

    def add(name, passed, detail):
        checks.append(HypothesisCheck(name, bool(passed), detail))

    add("horizon", T < A, f"T = {T:.6g}, A = {A:.6g} (need T < A)")
    add("fertility onset", 0.0 < rates.a_bar <= T,
        f"a_bar = {rates.a_bar!r} (need 0 < a_bar <= T)")
    add("age cutoff", T < delta < A,
        f"delta = {delta:.6g} (need T < delta < A)")
    lo, hi = omega
    add("control window", 0.0 < lo < hi < 1.0,
        f"omega = ({lo:.6g}, {hi:.6g}) (need 0 < lo < hi < 1)")

    xs = np.linspace(0.0, 1.0, 801)[1:-1]
    kv = coef.k(xs)
    bad = kv <= 0.0
    add("interior positivity", not np.any(bad),
        "k > 0 on (0, 1)" if not np.any(bad)
        else f"k <= 0 at x = {xs[bad][0]:.6g}")

    try:
        report = classify_degeneracy(coef)
    except ValueError as exc:
        add("degeneracy class", False, str(exc))
        report = None
    if report is not None:
        for end, deg in report.ends.items():
            i = int(end)
            near = xs[np.abs(xs - end) < 0.5]
            margin = coef.slope_ratio(near, end) <= deg.M + 1e-9
            add(f"slope bound at {i}", bool(np.all(margin)),
                f"{('x', '(x-1)')[i]} k'/k <= M{i + 1} = {deg.M:.6g} on "
                f"the sampled half next to {i}")
            add(f"monotonicity exponent at {i}", deg.theta > 0.0,
                f"theta{i} = {deg.theta:.6g} certified near {i}")
        if not report.ends:
            add("degeneracy class", False,
                "k is bounded away from zero at both ends; no degenerate endpoint")

    a_grid = np.linspace(0.0, A, 257)[:, None]
    x_grid = np.linspace(0.0, 1.0, 65)[None, :]
    beta_vals = np.broadcast_to(np.asarray(rates.beta(a_grid, x_grid), dtype=float),
                                (257, 65))
    add("fertility sign", bool(np.all(beta_vals >= 0.0)), "beta >= 0 on samples")
    pre = a_grid[:, 0] <= rates.a_bar
    quiet = np.all(np.abs(beta_vals[pre, :]) <= 1e-12 * max(1.0, np.max(np.abs(beta_vals))))
    add("fertility support", bool(quiet),
        f"beta vanishes for a <= a_bar = {rates.a_bar!r}")
    mu_ok = not any(
        np.any(np.asarray(rates.mu(t, a_grid, x_grid), dtype=float) < 0.0)
        for t in np.linspace(0.0, T, 5))
    add("mortality sign", mu_ok, "mu >= 0 on samples")

    return HypothesisReport(checks=tuple(checks))
