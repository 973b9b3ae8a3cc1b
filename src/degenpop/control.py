"""Null-control construction: penalized HUM, delay composition, gluing.

The quadratic minimized by conjugate gradient equals the penalized dual
functional exactly at the discrete level, because the solver's adjoint is
the exact transpose of its forward step.  All certificates reported here
are therefore post-hoc identities of the computed numbers, not continuum
estimates.  HUM's target rows are age cohorts that T < delta keeps apart,
so the Gramian is block diagonal, one (Nx-1)^2 block per target row;
CG is preconditioned by those blocks, assembled exactly, and reaches
round-off in one step, which still applies the true operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import classify_degeneracy
from .discretize import (Field2, Field3, Grid, _nearest_x_node, _write_csv,
                         window_mask, write_json)
from .solver import (ProblemSpec, Trajectory, _exp_or_inf, _renewal_growth,
                     _share_levels, _switch_level, control_norm, lattice_inner,
                     lattice_norm, observation, solve_adjoint, solve_forward)

__all__ = [
    "HUMConfig",
    "ControlSolution",
    "ControlError",
    "CutoffFamily",
    "hum_control",
    "compose_delay_control",
    "glue_two_sided",
    "forward_defect",
    "scheme_consistency_error",
]


class ControlError(RuntimeError):
    """Breakdown of the control solve."""


@dataclass(frozen=True, kw_only=True)
class HUMConfig:
    epsilon: float = 1e-6
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive, "
                             f"got {self.epsilon!r}")


@dataclass
class ControlSolution:
    """A computed control with its certificates and solve diagnostics.

    final_residual is the lattice norm of y(T) over the target rows
    delta < a < A; j_star the achieved value of the penalized functional
    (primal form 0.5*||f||^2 + ||y(T)||^2/(2 eps)), so the certificate
    final_residual <= sqrt(2 eps j_star) is an identity of the reported
    numbers.  control_norm and bound_ratio = control_norm / ||y0|| are
    read off f and level 0 of y, cg_iterations off the residual curve.
    """

    f: Field3
    y: Trajectory
    final_residual: float
    epsilon: float | None = None
    j_star: float | None = None
    certificate: float | None = None
    cg_residuals: tuple = ()
    cg_functionals: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def cg_iterations(self) -> int:
        """CG steps: one residual per step after the first; 0 when glued."""
        return max(len(self.cg_residuals) - 1, 0)

    @property
    def control_norm(self) -> float:
        return control_norm(self.f)

    @property
    def bound_ratio(self) -> float:
        y0_norm = lattice_norm(self.y.state.values[0], self.f.grid)
        return self.control_norm / y0_norm if y0_norm > 0.0 else 0.0

    def write_cg_csv(self, path) -> None:
        _write_csv(path, ["iter", "functional", "residual"],
                   ([i, float(q), float(r)] for i, (q, r)
                    in enumerate(zip(self.cg_functionals, self.cg_residuals))))

    def write_summary(self, path) -> None:
        payload = {
            "final_residual": self.final_residual,
            "control_norm": self.control_norm,
            "bound_ratio": self.bound_ratio,
            "epsilon": self.epsilon,
            "j_star": self.j_star,
            "certificate": self.certificate,
            "cg_iterations": self.cg_iterations,
            **self.diagnostics,
        }
        write_json(path, payload)


# ---------------------------------------------------------------------------
# penalized HUM


def _target_rows(grid: Grid, delta: float) -> np.ndarray:
    if not grid.T < delta < grid.A:
        raise ValueError(
            f"delta must lie in (T, A) = ({grid.T:g}, {grid.A:g}), got {delta:g}")
    idx = np.nonzero((grid.a_nodes > delta) & (grid.a_nodes < grid.A))[0]
    if idx.size == 0:
        raise ValueError("no age rows strictly between delta and A; refine the grid")
    return idx


class _Gramian:
    """xi -> restriction of the controlled final state driven by xi.

    xi holds nodal adjoint final data on the target rows (interior x
    columns); the map is adjoint solve -> forward solve from zero ->
    final-state restriction, self-adjoint and positive semidefinite in the
    lattice inner product by the discrete duality identity.  Both solves
    run on ``spec`` as given, from its t = 0.
    """

    def __init__(self, spec: ProblemSpec, rows: np.ndarray):
        self.spec = spec
        self.rows = rows
        self.grid = spec.grid
        self._zero_y0 = Field2.zeros(spec.grid)

    def embed(self, xi: np.ndarray) -> Field2:
        vals = np.zeros((self.grid.Na + 1, self.grid.Nx + 1))
        vals[self.rows, 1:-1] = xi
        return Field2(self.grid, vals)

    def restrict(self, final_values: np.ndarray) -> np.ndarray:
        return final_values[self.rows][:, 1:-1].copy()

    def observation(self, xi: np.ndarray) -> Field3:
        return observation(self.spec, solve_adjoint(self.spec, self.embed(xi)))

    def apply(self, xi: np.ndarray) -> np.ndarray:
        obs = self.observation(xi)
        traj = solve_forward(self.spec, control=obs, y0=self._zero_y0)
        return self.restrict(traj.final_level())

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return lattice_inner(u, v, self.grid)

    def preconditioner(self, epsilon: float):
        """r -> (Lambda_c + epsilon)^{-1} r_c on each cohort c, from the
        Cholesky factor of each assembled block (:func:`_cohort_gramian`).

        Raises ControlError naming epsilon and the cohort's age where a
        block plus epsilon does not factor, or its inverse overflows.
        """
        inverses = []
        blocks = _cohort_gramian(self.spec, self.rows)
        for age, block in zip(self.grid.a_nodes[self.rows], blocks):
            try:
                inv_l = np.linalg.inv(np.linalg.cholesky(
                    block + epsilon * np.eye(len(block))))
            except np.linalg.LinAlgError:
                inv_l = np.full_like(block, math.nan)
            with np.errstate(over="ignore", invalid="ignore"):
                inverse = inv_l.T @ inv_l
            if not np.isfinite(inverse).all():
                raise ControlError(
                    f"Gramian block of the cohort of age {age:g} plus "
                    f"epsilon = {epsilon!r} does not factor; raise epsilon")
            inverses.append(inverse)
        inverses = np.array(inverses)
        return lambda r: (inverses @ r[:, :, None])[:, :, 0]


def _cohort_gramian(spec: ProblemSpec, rows: np.ndarray) -> np.ndarray:
    """The (cohorts, N, N) diagonal blocks of the Gramian, N = Nx - 1.

    Target row j holds, at level m, the cohort on age row j - (Nt - m):
    dt = da moves a cohort one row a step, and T < delta keeps it off the
    renewal row, so the Gramian couples no two target rows.  Walking back
    from level Nt with P <- P E_m, E_m the level-m solve of the cohort's
    row, each level adds dt * (P chi) P^T: the forward march of the
    observation of every unit final datum at once, outside the marches.
    """
    grid = spec.grid
    prop = spec._propagator
    chi = prop.omega_mask[1:-1]
    p = np.broadcast_to(np.eye(grid.Nx - 1), (rows.size, grid.Nx - 1,
                                              grid.Nx - 1))
    blocks = np.zeros(p.shape)
    for m in range(grid.Nt, 0, -1):
        p = prop.solve_cohorts(m, rows - (grid.Nt - m), p)
        blocks += (p * chi) @ p.transpose(0, 2, 1)
    return grid.dt * blocks


# CG stops at ||r|| <= _CG_TOL * ||r_0||.  With the exact block
# preconditioner, the delayed solves of the four presets, plain hum and glue
# on default_degenerate and the test problems of tests/test_control.py took
# 1 step for every epsilon >= 1e-8 and at most 6 down to 1e-18, where the
# presets' blocks stop factoring; a solve that has not converged after
# _CG_MAX_STEPS steps has broken down.
_CG_TOL = 1e-8
_CG_MAX_STEPS = 20


def _conjugate_gradient(op: _Gramian, b: np.ndarray, epsilon: float):
    """Solve (Gramian + epsilon) xi = -b, logging the dual functional.

    CG preconditioned by ``op.preconditioner(epsilon)``, factored once
    after the zero-data return; for the Gramian that is its exact
    block-diagonal inverse, so one step reaches round-off, and every step
    still applies the true operator, which checks the blocks.  The logged
    functional q(xi) = 0.5 <(Lambda+eps) xi, xi> + <b, xi> is exactly the
    penalized functional J_eps of the embedded final data; each step
    decreases it by 0.5 * alpha * <r, z>, hence monotonically.  The stop
    test and the residual curve are on ||r||; missing the test within
    _CG_MAX_STEPS steps, or losing curvature, raises ControlError.
    """
    xi = np.zeros_like(b)
    r = -b.copy()
    res = rs0 = math.sqrt(op.inner(r, r))
    residuals = [rs0]
    functionals = [0.0]
    if rs0 == 0.0:
        return xi, residuals, functionals
    precondition = op.preconditioner(epsilon)
    p = precondition(r).copy()
    rz = op.inner(r, p)
    q = 0.0
    while res > _CG_TOL * rs0:
        if len(residuals) > _CG_MAX_STEPS:
            raise ControlError(
                f"CG did not converge in {_CG_MAX_STEPS} steps at epsilon = "
                f"{epsilon!r}: relative residual {res / rs0:.3e}; "
                "raise epsilon")
        a_p = op.apply(p) + epsilon * p
        p_ap = op.inner(p, a_p)
        if p_ap <= 0.0:
            raise ControlError(
                "Gramian lost positive definiteness (curvature "
                f"{p_ap:.3e}); duality is broken")
        alpha = rz / p_ap
        xi += alpha * p
        q -= 0.5 * alpha * rz
        r -= alpha * a_p
        res = math.sqrt(op.inner(r, r))
        residuals.append(res)
        functionals.append(q)
        z = precondition(r)
        rz_new = op.inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return xi, residuals, functionals


def hum_control(spec: ProblemSpec, config: HUMConfig) -> ControlSolution:
    """Penalized-HUM control steering the target age rows toward zero.

    Starts from ``spec.y0``.  Minimizes J_eps over adjoint final data
    supported on the rows delta < a < A (interior x columns, so
    v_T(A,.) = 0 and the Dirichlet rows hold).  The minimizer solves
    (Gramian + eps) xi = -b by conjugate gradient, preconditioned by the
    Gramian's exact cohort blocks plus eps (see :func:`_cohort_gramian`),
    so one step reaches round-off.  Near the blocks' own round-off a
    block that does not factor, or CG that does not converge, raises
    ControlError.  The control is the masked adjoint observation of the
    minimizer and acts over the whole of ``spec``'s horizon; to control a
    later window only, solve on that window's own problem (see
    :func:`compose_delay_control`).
    """
    grid = spec.grid
    op = _Gramian(spec, _target_rows(grid, config.delta))

    b = op.restrict(solve_forward(spec).final_level())
    xi, residuals, functionals = _conjugate_gradient(op, b, config.epsilon)

    f = op.observation(xi)
    traj = solve_forward(spec, control=f)
    final_residual = lattice_norm(op.restrict(traj.final_level()), grid)
    f_norm = control_norm(f)
    j_star = 0.5 * f_norm ** 2 + final_residual ** 2 / (2.0 * config.epsilon)
    certificate = math.sqrt(2.0 * config.epsilon * j_star)
    if final_residual > certificate * (1.0 + 1e-9):
        raise ControlError(
            "final residual exceeds the epsilon certificate; "
            "internal consistency lost")
    return ControlSolution(
        f=f, y=traj, final_residual=final_residual,
        epsilon=config.epsilon, j_star=j_star, certificate=certificate,
        cg_residuals=tuple(residuals), cg_functionals=tuple(functionals),
        diagnostics={"duality_gap": j_star + functionals[-1]})


# ---------------------------------------------------------------------------
# delay composition


def _time_window(spec: ProblemSpec, start: int, steps: int,
                 y0_values: np.ndarray) -> ProblemSpec:
    """The problem on time levels start..start+steps, as a problem of its own.

    The window keeps the age lattice of ``spec``, hence its step dt = da
    (its grid spans steps * dt from t = 0), starts from ``y0_values`` and
    reads mortality on the clock of ``spec``, so window level n is level
    start + n of the whole horizon.  Its propagator is a view of those
    levels of ``spec``'s (``solver._share_levels``): nothing is built or
    factored again.
    """
    dt = spec.grid.dt
    grid = replace(spec.grid, T=steps * dt, Nt=steps)
    mu = spec.rates.mu
    rates = replace(spec.rates, mu=lambda t, a, x: mu(start * dt + t, a, x))
    window = ProblemSpec(k=spec.k, rates=rates, grid=grid, omega=spec.omega,
                         y0=Field2(grid, y0_values))
    _share_levels(window, spec, start)
    return window


def compose_delay_control(spec: ProblemSpec, config: HUMConfig) -> ControlSolution:
    """Control vanishing before T_tilde = T - a_bar, active afterwards.

    Phase one is the free march of ``spec`` itself, read up to T_tilde;
    phase two runs hum_control on the remaining window, a problem of its
    own (see ``_time_window``) starting from the reached state.
    T_tilde is the lattice level of ``solver._switch_level``, moved back
    to T - dt when a_bar is below half a step.  The reported
    intermediate bound is the discrete renewal-growth estimate
    ||u(T_tilde)||^2 <= exp(C*T)*||y0||^2 with C = A * max(beta)^2,
    None where it overflows.
    """
    grid = spec.grid
    n_ctrl = max(grid.Nt - _switch_level(grid, spec.rates.a_bar), 1)
    n_tilde = grid.Nt - n_ctrl
    t_tilde = n_tilde * grid.dt

    free = solve_forward(spec)  # only levels 0..n_tilde are read
    window = _time_window(spec, n_tilde, n_ctrl, free.state.values[n_tilde])
    switch_norm = lattice_norm(window.y0.values, grid)
    growth = _renewal_growth(spec)
    switch_bound = _exp_or_inf(0.5 * growth * grid.T) * lattice_norm(
        spec.y0.values, grid)
    if not math.isfinite(switch_bound):
        switch_bound = None  # the bound overflows: reported as null

    inner = hum_control(window, config)

    # march outputs raise rather than hold a non-finite value, so neither
    # piece is scanned again; the controlled levels replace the free ones
    f = Field3.zeros(grid)
    f.values[n_tilde + 1:] = inner.f.values[1:]
    free.state.values[n_tilde + 1:] = inner.y.state.values[1:]
    traj = Trajectory(state=free.state, k_faces=inner.y.k_faces, control=f)

    return replace(inner, f=f, y=traj,
                   diagnostics={"t_tilde": t_tilde, "switch_norm": switch_norm,
                                "switch_bound": switch_bound,
                                "growth_constant": growth})


# ---------------------------------------------------------------------------
# discrete residual of a (state, source) pair


def forward_defect(spec: ProblemSpec, state: Field3,
                   source: Field3 | None) -> float:
    """Worst per-step defect of the forward scheme, in equation units.

    For each step the implicit operator is applied to the stored new level
    and compared with the age-shifted old level plus dt times the source;
    the defect norm is divided by dt so it measures the PDE residual.  The
    source enters unmasked (callers restrict support themselves).
    """
    grid = spec.grid
    prop = spec._propagator
    vals = state.values
    worst = 0.0
    for n in range(grid.Nt):
        src = None if source is None else source.values[n + 1]
        defect = (prop.apply_diffusion(n + 1, vals[n + 1][1:, 1:-1])
                  - prop.forward_rhs(vals[n], src))
        worst = max(worst, lattice_norm(defect, grid) / grid.dt)
    return worst


def scheme_consistency_error(spec: ProblemSpec, *,
                             amplitude: float = 1.0) -> float:
    """Defect of a smooth closed-form state with its symbolic source.

    The yardstick for assembly checks: a manufactured solution
    amplitude * e^{-t} a(A-a)/A^2 sin(pi xhat) is evaluated on the grid
    together with its exact source, and the forward defect of that pair is
    the scheme's own consistency error at this resolution.
    """
    grid = spec.grid
    lo, hi = grid.x_span
    span = hi - lo
    coef = spec.k

    def y_star(t, a, x):
        xhat = (x - lo) / span
        return (amplitude * np.exp(-t) * a * (grid.A - a) / grid.A ** 2
                * np.sin(np.pi * xhat))

    def source(t, a, x):
        xhat = (x - lo) / span
        sin_part = np.sin(np.pi * xhat)
        cos_part = np.cos(np.pi * xhat)
        q = a * (grid.A - a) / grid.A ** 2
        q_a = (grid.A - 2.0 * a) / grid.A ** 2
        amp_t = amplitude * np.exp(-t)
        y_t = -amp_t * q * sin_part
        y_a = amp_t * q_a * sin_part
        y_x = amp_t * q * cos_part * np.pi / span
        y_xx = -amp_t * q * sin_part * (np.pi / span) ** 2
        diff = coef.kprime(x) * y_x + coef.k(x) * y_xx
        mu = np.asarray(spec.rates.mu(t, a, x), dtype=float)
        return y_t + y_a - diff + mu * amp_t * q * sin_part

    state = Field3.from_function(grid, y_star)
    # k' can blow up at a degenerate endpoint; the defect only reads the
    # source at interior x nodes, so evaluate it there and leave the
    # boundary columns at zero.
    t = grid.t_nodes[:, None, None]
    a = grid.a_nodes[None, :, None]
    x = grid.x_nodes[None, None, 1:-1]
    src_vals = np.zeros(state.values.shape)
    src_vals[:, :, 1:-1] = np.broadcast_to(
        source(t, a, x), src_vals[:, :, 1:-1].shape)
    src = Field3(grid, src_vals)
    return forward_defect(spec, state, src)


# ---------------------------------------------------------------------------
# two-sided gluing


def _ramp(x, lo, hi):
    """C^2 quintic rise from 0 at lo to 1 at hi, clamped outside."""
    x = np.asarray(x, dtype=float)
    u = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return 6.0 * u ** 5 - 15.0 * u ** 4 + 10.0 * u ** 3


@dataclass(frozen=True)
class CutoffFamily:
    """The three C^2 cut-offs of the two-sided gluing construction.

    xi is 1 left of q1 = (2*alpha+rho)/3 and 0 right of the midpoint m of
    [q1, q2]; eta mirrors it (0 left of m, 1 right of q2 = (alpha+2*rho)/3);
    phi_cut = 1 - xi - eta is the interior bump.  All derivatives are
    supported strictly inside omega = (alpha, rho).
    """

    alpha: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < self.rho < 1.0:
            raise ValueError("cut-off window must satisfy 0 < alpha < rho < 1")

    @property
    def q1(self) -> float:
        return (2.0 * self.alpha + self.rho) / 3.0

    @property
    def q2(self) -> float:
        return (self.alpha + 2.0 * self.rho) / 3.0

    @property
    def mid(self) -> float:
        return 0.5 * (self.q1 + self.q2)

    def xi(self, x):
        return 1.0 - _ramp(x, self.q1, self.mid)

    def eta(self, x):
        return _ramp(x, self.mid, self.q2)

    def phi_cut(self, x):
        return 1.0 - self.xi(x) - self.eta(x)


def _snap_to_node(grid: Grid, value: float, what: str, given: bool) -> int:
    """Nearest interior x node to ``value``; a ``given`` one warns if moved."""
    idx = _nearest_x_node(grid, value)
    snapped = float(grid.x_nodes[idx])
    if given and abs(snapped - value) > 1e-12 * max(1.0, abs(value)):
        warnings.warn(f"{what} = {value!r} snapped to the grid node "
                      f"{snapped:g}")
    return idx


def _face_commutator(k_faces: np.ndarray, cut: np.ndarray,
                     u: np.ndarray, dx: float) -> np.ndarray:
    """Nodal values of -(k c' u)_x - k c' u_x in the solver's face form.

    With face slopes dc_{i+1/2} = (c_{i+1}-c_i)/dx this is
    -(k_{i+1/2} dc_{i+1/2} u_{i+1} - k_{i-1/2} dc_{i-1/2} u_{i-1}) / dx,
    exactly the commutator of the nodal cut-off with the discrete
    diffusion operator, so the assembled residual carries no new error.
    """
    dcut = np.diff(cut) / dx
    flux = k_faces * dcut
    out = np.zeros_like(u)
    out[..., 1:-1] = -(flux[1:] * u[..., 2:] - flux[:-1] * u[..., :-2]) / dx
    return out


def glue_two_sided(spec: ProblemSpec, config: HUMConfig,
                   alpha_bar: float | None = None,
                   beta_bar: float | None = None) -> ControlSolution:
    """Control for k degenerate at both endpoints by cut-off gluing.

    Solves delayed one-sided problems on (0, beta_bar) and (alpha_bar, 1),
    extends them by zero, adds the free solution weighted by
    F(t) = (T-t)/T, and assembles y = xi*u1 + eta*u2 + F*phi*u3 with the
    matching source.  The cut-off commutator terms use the solver's face
    stencil, so the discrete residual of (y, f_delta) stays at the scale
    of round-off rather than of the cut-off derivatives.

    Cut points snap to the nearest interior x node, with a warning when a
    given one moves; omitted, they are lo/2 and (1+hi)/2 for omega =
    [lo, hi], the middle of each gap between omega and an end.
    """
    grid = spec.grid
    if spec.y0 is None:
        raise ValueError("glue_two_sided needs spec.y0")
    report = classify_degeneracy(spec.k)
    if not (report.degenerate_at_zero and report.degenerate_at_one):
        raise ValueError("gluing requires degeneracy at both endpoints")
    lo, hi = spec.omega
    a_cut = lo / 2 if alpha_bar is None else alpha_bar
    b_cut = (1 + hi) / 2 if beta_bar is None else beta_bar
    if not (0.0 < a_cut < lo and hi < b_cut < 1.0):
        raise ValueError("need 0 < alpha_bar < omega and omega < beta_bar < 1")
    i_a = _snap_to_node(grid, a_cut, "alpha_bar", alpha_bar is not None)
    i_b = _snap_to_node(grid, b_cut, "beta_bar", beta_bar is not None)
    if not 0 < i_a < int(np.searchsorted(grid.x_nodes, lo)) \
            or not int(np.searchsorted(grid.x_nodes, hi)) < i_b < grid.Nx:
        raise ValueError("snapped cut points collide with the control window")

    xs = grid.x_nodes
    grid1 = replace(grid, Nx=i_b, x_span=(0.0, float(xs[i_b])))
    grid2 = replace(grid, Nx=grid.Nx - i_a, x_span=(float(xs[i_a]), 1.0))
    spec1 = replace(spec, grid=grid1, y0=Field2(
        grid1, spec.y0.values[:, :i_b + 1].copy()))
    spec2 = replace(spec, grid=grid2, y0=Field2(
        grid2, spec.y0.values[:, i_a:].copy()))

    sol1 = compose_delay_control(spec1, config)
    sol2 = compose_delay_control(spec2, config)
    free = solve_forward(spec)

    right = ((0, 0), (0, 0), (0, grid.Nx - i_b))
    left = ((0, 0), (0, 0), (i_a, 0))
    u1, h1 = np.pad(sol1.y.state.values, right), np.pad(sol1.f.values, right)
    u2, h2 = np.pad(sol2.y.state.values, left), np.pad(sol2.f.values, left)
    u3 = free.state.values

    cuts = CutoffFamily(lo, hi)
    xi = cuts.xi(xs)
    eta = cuts.eta(xs)
    phi = cuts.phi_cut(xs)
    f_lv = ((grid.T - grid.t_nodes) / grid.T)[:, None, None]  # F(t)

    y_vals = xi[None, None, :] * u1 + eta[None, None, :] * u2 \
        + f_lv * phi[None, None, :] * u3
    y_vals[0] = spec.y0.values.copy()

    prop = spec._propagator
    k_faces = prop.k_faces
    f_vals = xi[None, None, :] * h1 + eta[None, None, :] * h2
    # -(1/T) phi u3 evaluated at the foot of the characteristic (previous
    # level, previous age row): the discretization of the F-derivative
    # term that keeps the assembled defect at round-off
    f_vals[1:, 1:, :] -= (1.0 / grid.T) * phi[None, None, :] * u3[:-1, :-1, :]
    f_vals[1:, 0, :] -= (1.0 / grid.T) * phi[None, :] * u3[:-1, 0, :]
    f_vals[1:] += _face_commutator(k_faces, xi, u1[1:], grid.dx)
    f_vals[1:] += _face_commutator(k_faces, eta, u2[1:], grid.dx)
    f_vals[1:] += f_lv[1:] * _face_commutator(k_faces, phi, u3[1:], grid.dx)
    f_vals[0] = 0.0
    f = Field3(grid, f_vals)

    outside = ~window_mask(xs, lo, hi)
    if np.max(np.abs(f_vals[:, :, outside]), initial=0.0) != 0.0:
        raise ControlError("assembled control leaks outside the window")

    y = Field3(grid, y_vals)
    residual = forward_defect(spec, y, f)
    y0_sup = float(np.max(np.abs(spec.y0.values)))
    baseline = scheme_consistency_error(spec, amplitude=max(y0_sup, 1.0))
    if residual > 10.0 * baseline:
        raise ControlError(
            f"assembled residual {residual:.3e} exceeds 10x the scheme "
            f"consistency error {baseline:.3e}; assembly bug")

    renewal_defect = 0.0
    for n in range(1, grid.Nt + 1):
        predicted = prop.renewal_row(y_vals[n])
        renewal_defect = max(renewal_defect,
                             float(np.max(np.abs(y_vals[n][0] - predicted))))

    traj = Trajectory(state=y, k_faces=k_faces, control=f)

    rows = _target_rows(grid, config.delta)
    final_residual = lattice_norm(y_vals[-1][rows][:, 1:-1], grid)
    combined = (sol1.certificate or 0.0) + (sol2.certificate or 0.0)
    return ControlSolution(
        f=f, y=traj, final_residual=final_residual,
        epsilon=config.epsilon, j_star=None, certificate=combined,
        diagnostics={"residual": residual, "baseline": baseline,
                     "renewal_defect": renewal_defect,
                     "alpha_bar": float(xs[i_a]), "beta_bar": float(xs[i_b]),
                     "sub_residuals": [sol1.final_residual,
                                       sol2.final_residual]})
