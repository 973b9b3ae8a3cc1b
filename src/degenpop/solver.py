"""Forward population solver, exact-transpose adjoint, energy audit.

The forward scheme is Lie splitting per time step: exact age advection
(Delta t = Delta a moves every cohort one age cell), an implicit
conservative finite-volume diffusion-reaction solve per age level, then
the trapezoid renewal integral fills the newborn row.  The adjoint march
is the algebraic transpose of that one-step map in the uniform lattice
inner product Delta a * Delta x, which makes the duality identity

    <y(T), v_T> - <y0, v(0)> = dt * sum_n <f^n, obs^n>

exact to round-off; obs^{n+1} is chi_omega * v^n moved one age row down
(:func:`observation`), the quantity HUM feeds back as control.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import DegenerateCoefficient, VitalRates
from .discretize import (Field2, Field3, Grid, _write_csv, axis_weights,
                         window_mask)

__all__ = [
    "ProblemSpec",
    "Trajectory",
    "solve_forward",
    "solve_adjoint",
    "observation",
    "characteristic_consistency",
    "ConsistencyReport",
    "energy_audit",
    "EnergyAudit",
    "lattice_inner",
    "lattice_norm",
    "control_inner",
    "control_norm",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient, vital rates, grid, control window and initial data for
    one model; ``y0`` is the only place the controls read initial data."""

    k: DegenerateCoefficient
    rates: VitalRates
    grid: Grid
    omega: tuple[float, float]
    y0: Field2 | None = None

    def __post_init__(self) -> None:
        lo, hi = self.omega
        if not 0.0 < lo < hi < 1.0:
            raise ValueError("control window must satisfy 0 < lo < hi < 1")
        if not window_mask(self.grid.x_nodes[1:-1], lo, hi).any():
            raise ValueError(f"control window [{lo:g}, {hi:g}] holds no "
                             f"interior x node of the grid")
        if self.y0 is not None and self.y0.grid != self.grid:
            raise ValueError("initial data grid does not match the problem grid")

    @cached_property
    def _propagator(self) -> _Propagator:
        """The one-step map of this problem, built and factored on first
        use and shared by every march and check on it."""
        return _Propagator(self)


def _share_levels(window: ProblemSpec, spec: ProblemSpec, start: int) -> None:
    """Give ``window``, the problem on time levels start..start+Nt of
    ``spec``, a view of ``spec``'s propagator on levels start+1..start+Nt
    as its own: it shares every array and the stored operands of those
    levels, so a problem and its windows build and factor each level
    once, and the window reads ``spec``'s mortality at exactly ``spec``'s
    levels."""
    prop = spec._propagator
    levels = slice(start, start + window.grid.Nt)
    view = object.__new__(_Propagator)
    view.__dict__.update(vars(prop), grid=window.grid,
                         _diag=prop._diag[levels],
                         _operands=prop._operands[levels])
    window.__dict__["_propagator"] = view


def _switch_level(grid: Grid, a_bar: float) -> int:
    """The time level of T - a_bar, the switch from silence to control.

    a_bar is snapped to the nearest multiple of dt, with a warning when it
    is not one; raises unless 0 < a_bar <= T.
    """
    if not 0.0 < a_bar <= grid.T:
        raise ValueError(f"need 0 < a_bar <= T, got a_bar = {a_bar!r} "
                         f"with T = {grid.T:g}")
    steps = a_bar / grid.dt
    n = int(round(steps))
    if abs(steps - n) > 1e-9 * max(1.0, steps):
        warnings.warn(f"a_bar = {a_bar!r} is not a multiple of dt; "
                      f"snapping to {n * grid.dt:g}")
    return grid.Nt - n


def lattice_inner(u: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    """Uniform-lattice inner product over (a, x): da*dx*sum(u*v)."""
    return float(grid.da * grid.dx * np.sum(u * v))


def lattice_norm(u: np.ndarray, grid: Grid) -> float:
    return math.sqrt(lattice_inner(u, u, grid))


def control_inner(f: Field3, g: Field3) -> float:
    """L2 pairing over (0,T)x(0,A)x(0,1): dt * sum over steps n >= 1.

    Slice 0 is excluded: the march consumes f^1..f^Nt, one slice per step.
    """
    grid = f.grid
    if g.grid != grid:
        raise ValueError("control fields live on different grids")
    return float(grid.dt * grid.da * grid.dx
                 * np.sum(f.values[1:] * g.values[1:]))


def control_norm(f: Field3) -> float:
    return math.sqrt(control_inner(f, f))


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or math.inf where that overflows: a growth bound that
    large is vacuous, not an error."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _renewal_growth(spec: ProblemSpec) -> float:
    """Renewal growth rate C = A * max(beta)^2 on the grid; the march each
    caller runs first rejects beta < 0, so max(beta) is max(|beta|)."""
    return spec.grid.A * float(np.max(spec.rates.beta_grid(spec.grid))) ** 2


def _thomas_factor(diag: np.ndarray, off: np.ndarray) -> tuple:
    """Factor the batched symmetric tridiagonal systems diag[r]*x = rhs[r].

    diag has shape (rows, N); off holds the (N-1,) off-diagonal shared by
    every row, the same below and above the diagonal.  Returns the N-1
    off-diagonal entries, the N pivots and the N-1 multipliers as one
    (rows,) array per x node (an array operand is cheaper than a scalar
    one for numpy's small calls), the last two computed in the order an
    unfactored Thomas sweep would.

    A propagator applies dense inverses built from these factors
    (:func:`_dense_inverse`) within ``_DENSE_MAX_UNKNOWNS`` and
    ``_DENSE_MAX_BYTES``, whose comment gives the measurement behind them;
    the matmul sums in another order, so its results differ from the
    sweep's by round-off.  Beyond either limit the level solve is this
    sweep.
    """
    # No pivoting and no pivot check.  With r = dt/dx^2 and finite k, mu >= 0
    # (checked by _Propagator) the diagonal is 1 + dt*mu_i + r*(k_{i-1/2} +
    # k_{i+1/2}) and the off-diagonal -r*k_{i+1/2}.  If the previous pivot
    # is >= 1 + r*k_{i-1/2}, then p_i >= d_i - r*k_{i-1/2} >= 1 + r*k_{i+1/2},
    # so by induction every pivot is at least 1.
    rows, n = diag.shape
    piv = [diag[:, 0].copy()]
    mult = []
    for i in range(1, n):
        mult.append(off[i - 1] / piv[i - 1])
        piv.append(diag[:, i] - off[i - 1] * mult[i - 1])
    return [np.full(rows, o) for o in off], piv, mult


def _thomas_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors of :func:`_thomas_factor`; rhs is (rows, N),
    or (rows, K, N) for K right-hand sides per row.

    The forward sweep still divides by each pivot, so the result is
    bitwise that of the unfactored sweep, for every right-hand side.  It
    runs in place on an x-major copy of rhs, whose rows are contiguous.
    """
    off, piv, mult = factors
    sol = rhs.T.copy()
    nodes = list(sol)
    tmp = np.empty(sol.shape[1:])
    mul, sub, div = np.multiply, np.subtract, np.divide
    prev = nodes[0]
    div(prev, piv[0], prev)
    for cur, o, p in zip(nodes[1:], off, piv[1:]):
        mul(o, prev, tmp)
        sub(cur, tmp, cur)
        div(cur, p, cur)
        prev = cur
    for cur, m in zip(nodes[-2::-1], mult[::-1]):
        mul(m, prev, tmp)
        sub(cur, tmp, cur)
        prev = cur
    return sol.T


# The level solve is one np.matmul with stored dense inverses while a level
# has at most _DENSE_MAX_UNKNOWNS unknowns (age rows x interior x nodes)
# and the propagator's distinct inverses total at most _DENSE_MAX_BYTES;
# otherwise it is the Thomas sweep.  The matmul does rows * N^2
# multiply-adds, the sweep five small numpy calls per x node, so the
# ratio of their costs grows with rows * N alone.  Per level (numpy 2.4,
# OpenBLAS 0.3.31, 2-vCPU Xeon), sweep against matmul: 48x47 228 against
# 39 us, 48x95 395 against 226, 192x47 248 against 235, 96x95 415 against
# 439, 48x191 819 against 861, so the crossover is near 9000 unknowns.
# _DENSE_MAX_BYTES caps memory; it is not a crossover.  Cycling through
# distinct 48x47 levels (mortality depending on t) costs 50-60 us a level
# up to 13 MB of inverses and 117-126 us from 19 MB to 78 MB, still below
# the sweep's 228 us, so the cap sits inside that range.  Building an
# inverse costs about 1.6 ms a 48x47 level, and HUM no longer marches
# hundreds of times to repay it: preconditioned by its cohort blocks, CG
# takes one step.  On default_degenerate, builds included (best
# of 7, two sessions), dense against sweep: the delayed HUM solve of
# `degenpop run` takes 14-18 against 32-45 ms and the whole `run` 58-68
# against 98-131 ms (its control window views the problem's levels, and
# its observability ensemble is one march of 20 right sides); with
# mortality depending on t (24 distinct levels, 19.4 MB) the delayed
# solve takes 46-48 against 45-49 ms and a lone forward march 36-52
# against 13-15 ms.  No benchmark workload crosses either limit.
_DENSE_MAX_UNKNOWNS = 8000
_DENSE_MAX_BYTES = 64 * 2 ** 20


def _dense_inverse(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The (rows, N, N) inverses of the systems of :func:`_thomas_factor`.

    Column j of row r's inverse is the Thomas sweep of the unit vector
    e_j with row r's factors, all N unit vectors in one batched sweep, so
    each column holds the bits of ``_thomas_solve`` on e_j.
    """
    rows, n = diag.shape
    units = np.broadcast_to(np.eye(n), (rows, n, n))
    # cols[r, j] is column j of row r's inverse
    cols = _thomas_solve(_thomas_factor(diag, off), units)
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def _checked(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {what} on the grid")
    if np.any(values < 0.0):
        raise ValueError(f"negative {what} on the grid")
    return values


class _Propagator:
    """The one-step map of the scheme and its transpose, for one problem.

    Every forward march, adjoint march and defect check builds its steps
    from these pieces and nothing else, which keeps the adjoint the exact
    transpose of the forward step.  Levels are time levels 1..Nt; the
    implicit solve acts on age rows 1..Na and interior x nodes.  Build it
    through ``ProblemSpec._propagator``, which keeps one per problem; a
    time window of a problem holds a view of the problem's
    (:func:`_share_levels`).
    """

    def __init__(self, spec: ProblemSpec):
        grid = spec.grid
        self.grid = grid
        self.k_faces = _checked(spec.k.face_values(grid.x_nodes),
                               "face diffusivity")
        self.beta = _checked(spec.rates.beta_grid(grid), "fertility")
        denom = 1.0 - 0.5 * grid.da * self.beta[0]
        if np.any(denom <= 0.0):
            raise ValueError(
                "renewal quadrature factor nonpositive: da * beta(0,x) >= 2")
        self._renewal_c = 1.0 / denom
        w = axis_weights(grid.Na + 1, grid.da)[1:]
        self._age_weights = w  # trapezoid weights for rows 1..Na
        # transpose of the renewal row: w_j * c * beta_j, interior x
        self._coupling = (w[:, None] * self._renewal_c[None, :]
                          * self.beta[1:])[:, 1:-1]
        self.omega_mask = window_mask(grid.x_nodes, *spec.omega).astype(float)
        ratio = grid.dt / grid.dx ** 2
        # off-diagonal between interior nodes i and i+1 is the interior
        # face coupling -dt*k_{i+1/2}/dx^2, identical on both sides
        self.offdiag = -ratio * self.k_faces[1:-1]
        diag_flux = ratio * (self.k_faces[:-1] + self.k_faces[1:])
        # implicit diagonal of time levels 1..Nt (entry n - 1), rows 1..Na;
        # a level equal to the one before shares its array
        self._diag = []
        for n in range(1, grid.Nt + 1):
            mu = _checked(spec.rates.mu_grid(n * grid.dt, grid), "mortality")
            diag = 1.0 + grid.dt * mu[1:, 1:-1] + diag_flux
            if self._diag and np.array_equal(diag, self._diag[-1]):
                diag = self._diag[-1]
            self._diag.append(diag)
        rows, nodes = diag.shape
        distinct = len({id(d) for d in self._diag})
        self.dense = rows * nodes <= _DENSE_MAX_UNKNOWNS and \
            8 * rows * nodes ** 2 * distinct <= _DENSE_MAX_BYTES

    @cached_property
    def _operands(self) -> list:
        """Each level's solve operand, built on the first solve (manufactured
        samples and defect checks only apply D): within the limits of
        ``_DENSE_MAX_UNKNOWNS`` and ``_DENSE_MAX_BYTES`` the dense inverse,
        beyond them the Thomas factors, one per distinct level."""
        build = _dense_inverse if self.dense else _thomas_factor
        operands = {}
        for diag in self._diag:
            if id(diag) not in operands:
                operands[id(diag)] = build(diag, self.offdiag)
        return [operands[id(d)] for d in self._diag]

    def forward_rhs(self, old: np.ndarray,
                    source: np.ndarray | None = None) -> np.ndarray:
        """Old level shifted one age row up, plus dt * source (rows 1..Na)."""
        rhs = old[:-1, 1:-1].copy()
        if source is not None:
            rhs += self.grid.dt * source[1:, 1:-1]
        return rhs

    def adjoint_rhs(self, new: np.ndarray,
                    source: np.ndarray | None) -> np.ndarray:
        """Transposed right sides of K data, new level (Na+1, K, Nx+1) plus
        w_j c beta_j v(a=0), minus dt * source (Na+1, Nx+1) when given:
        (Na, K, Nx-1), rows 1..Na."""
        q = new[1:, :, 1:-1] + self._coupling[:, None] * new[0][None, :, 1:-1]
        if source is not None:
            q -= self.grid.dt * source[1:, None, 1:-1]
        return q

    def solve_diffusion(self, level: int, rhs: np.ndarray, *,
                        transpose: bool = False) -> np.ndarray:
        """Apply D^{-1} at ``level``, or its transpose for the adjoint, to
        interior-x data ``rhs`` for rows 1..Na: (Na, N), or for the
        transpose also (Na, K, N), K row vectors per age row.

        Within ``_DENSE_MAX_UNKNOWNS`` and ``_DENSE_MAX_BYTES`` this is
        one np.matmul with the stored inverses, and the transpose
        multiplies by the same array from the other side, so on unit
        vectors the two applies are bitwise transposes.  The matmul sums
        in another order than the Thomas sweep, so results differ from the
        sweep's by round-off (about 1e-15 relative), and its bits depend
        on the BLAS build and the CPU.  Beyond either limit the Thomas
        sweep serves both: D is symmetric.  Either way each row is solved
        on its own, so its bits do not depend on the other rows.
        """
        operand = self._operands[level - 1]
        if not self.dense:
            return _thomas_solve(operand, rhs)
        if transpose:
            rows = rhs.reshape(len(rhs), -1, rhs.shape[-1])
            return (rows @ operand).reshape(rhs.shape)
        return (operand @ rhs[:, :, None])[:, :, 0]

    def solve_cohorts(self, level: int, rows: np.ndarray,
                      blocks: np.ndarray) -> np.ndarray:
        """blocks[c] @ D^{-1} at ``level`` for age row rows[c] (1..Na), each
        block (K, Nx-1): the adjoint's transposed solve of K row vectors
        per age row, all rows in one batch, from the same operands as
        :meth:`solve_diffusion`."""
        operand = self._operands[level - 1]
        if self.dense:
            return blocks @ operand[rows - 1]
        return _thomas_solve([[f[rows - 1] for f in part] for part in operand],
                             blocks)

    def apply_diffusion(self, level: int, rows: np.ndarray) -> np.ndarray:
        """Apply D at ``level`` to interior-x data for rows 1..Na."""
        out = self._diag[level - 1] * rows
        out[:, 1:] += self.offdiag[None, :] * rows[:, :-1]
        out[:, :-1] += self.offdiag[None, :] * rows[:, 1:]
        return out

    def repeats_level(self, level: int) -> bool:
        """Whether D at ``level`` is D at ``level - 1``: such a level shares
        the one before's diagonal array."""
        return level > 1 and self._diag[level - 1] is self._diag[level - 2]

    def renewal_row(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid renewal integral from rows 1..Na of ``values``."""
        integral = np.einsum("j,ji->i", self._age_weights,
                             self.beta[1:] * values[1:])
        return self._renewal_c * integral


@dataclass
class Trajectory:
    """A stored space-age field per time level; its energy records are
    computed on first read."""

    state: Field3
    k_faces: np.ndarray  # face diffusivities the flux records weigh with
    control: Field3 | None = None

    @property
    def grid(self) -> Grid:
        return self.state.grid

    @cached_property
    def norms(self) -> np.ndarray:
        """Lattice L2 norm of every time level."""
        return np.array([lattice_norm(level, self.grid)
                         for level in self.state.values])

    @cached_property
    def fluxes(self) -> np.ndarray:
        """Discrete int int k y_x^2 over (a, x) of every time level."""
        grid = self.grid
        return np.array([
            float(grid.da / grid.dx * np.sum(
                self.k_faces[None, :] * np.diff(level, axis=1) ** 2))
            for level in self.state.values])

    def final_level(self) -> np.ndarray:
        return self.state.values[-1]

    def write_energy_csv(self, path) -> None:
        dt = self.grid.dt
        _write_csv(path, ["step", "t", "l2norm", "flux"],
                   ([n, n * dt, float(norm), float(flux)]
                    for n, (norm, flux) in enumerate(zip(self.norms,
                                                         self.fluxes))))


def solve_forward(spec: ProblemSpec, control: Field3 | None = None, *,
                  y0: Field2 | None = None) -> Trajectory:
    """March the population model forward with optional control.

    The march starts from ``spec.y0``, or from ``y0`` when given: the HUM
    Gramian marches from zero on the propagator cached on ``spec``.

    The control field is read one slice per step (slice n+1 drives the
    step n -> n+1) and is masked to the control window before use.  Level
    n sits at t = n * dt on the problem's own clock; a later time window is
    a problem of its own whose rates read the outer clock (see
    ``control.compose_delay_control``).
    """
    data = y0 if y0 is not None else spec.y0
    if data is None:
        raise ValueError("no initial data: pass y0 or set it on the problem")
    if data.grid != spec.grid:
        raise ValueError("initial data grid does not match the problem grid")
    if control is not None and control.grid != spec.grid:
        raise ValueError("control grid does not match the problem grid")
    prop = spec._propagator
    grid = spec.grid
    # the march raises at the level that overflows: its output needs no scan
    state = Field3.zeros(grid)
    values = state.values
    values[0] = data.values
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(grid.Nt):
                f = None if control is None \
                    else control.values[n + 1] * prop.omega_mask[None, :]
                level = values[n + 1]
                level[1:, 1:-1] = prop.solve_diffusion(
                    n + 1, prop.forward_rhs(values[n], f))
                level[0] = prop.renewal_row(level)
                if not np.isfinite(level[0]).all():  # einsum sets no flag
                    raise FloatingPointError("overflow in the renewal integral")
    except FloatingPointError as exc:
        raise FloatingPointError(f"forward march: {exc} at time level "
                                 f"{n + 1} (Nt = {grid.Nt})") from None
    return Trajectory(state=state, k_faces=prop.k_faces, control=control)


def solve_adjoint(spec: ProblemSpec, v_T: Field2, *,
                  source: Field3 | None = None) -> Trajectory:
    """March the exact discrete transpose backward from final data v_T.

    One backward step from level n+1 to n is

        q_j   = v^{n+1}_j + w_j c beta_j v^{n+1}(a=0)   (rows j >= 1)
        q_j  -= dt * source^{n+1}_j                      (when given)
        v^n_{j-1} = (D^{-T} q)_j   per age row j >= 1, interior x

    and v^n_{Na} = 0, where w_j are the trapezoid weights and c the
    renewal closing factor.  The state is the only field stored; the
    control sample of the duality identity is :func:`observation`.
    Levels run on the problem's own clock, as in :func:`solve_forward`.
    This is the one-datum case of :func:`_adjoint_levels`.
    """
    if v_T.grid != spec.grid:
        raise ValueError("final data grid does not match the problem grid")
    if source is not None and source.grid != spec.grid:
        raise ValueError("source grid does not match the problem grid")
    state = Field3.zeros(spec.grid)
    values = state.values
    for n, level in _adjoint_levels(spec, v_T.values[:, None], source):
        values[n] = level[:, 0]
    return Trajectory(state=state, k_faces=spec._propagator.k_faces)


def _adjoint_levels(spec: ProblemSpec, final: np.ndarray,
                    source: Field3 | None = None):
    """Yield (n, v^n) for n = Nt down to 0: the adjoint march of
    :func:`solve_adjoint` from K final data at once.

    ``final`` is (Na+1, K, Nx+1), datum k in ``final[:, k]``, and so is
    each level yielded, a fresh array.  Every age row solves its K right
    sides together with the level's one operand: on the Thomas path each
    datum's bits are its own march's; the dense path's matmul may sum in
    another order for K > 1.  ``source``, when given, drives every datum.
    The march holds two levels, never a trajectory; a step that
    overflows raises FloatingPointError naming its level.
    """
    prop = spec._propagator
    grid = spec.grid
    new = final
    yield grid.Nt, new
    for n in range(grid.Nt - 1, -1, -1):
        src = None if source is None else source.values[n + 1]
        level = np.zeros(final.shape)
        try:
            with np.errstate(over="raise", invalid="raise"):
                level[:-1, :, 1:-1] = prop.solve_diffusion(
                    n + 1, prop.adjoint_rhs(new, src), transpose=True)
        except FloatingPointError as exc:
            raise FloatingPointError(f"adjoint march: {exc} at time level "
                                     f"{n} (Nt = {grid.Nt})") from None
        yield n, level
        new = level


def observation(spec: ProblemSpec, adjoint: Trajectory) -> Field3:
    """chi_omega * v^n in rows 1..Na of slice n+1, zero elsewhere: the
    adjoint's sample that pairs with a forward control in the duality
    identity, and the control HUM feeds back."""
    obs = Field3.zeros(spec.grid)
    np.multiply(spec._propagator.omega_mask, adjoint.state.values[:-1, :-1],
                out=obs.values[1:, 1:])
    return obs


@dataclass(frozen=True)
class ConsistencyReport:
    samples: int
    max_abs_defect: float
    max_rel_defect: float
    scale: float


def characteristic_consistency(spec: ProblemSpec,
                               v_T: Field2) -> ConsistencyReport:
    """Check the adjoint against the characteristic-line representation.

    With beta identically zero the adjoint value at (t_n, a_j) equals the
    final data row a_j + (T - t_n) pushed through the per-level diffusion
    solves along the characteristic (zero once the characteristic exits
    through a = A), as the march's renewal coupling term is then exactly
    zero.  Those ending at level n share whole-level solves, each on its
    own row of a zero-padded block.  Both paths use the same stepper,
    which solves each row on its own, so the defect is pure round-off; it
    is reported relative to max|v_T|.
    """
    prop = spec._propagator
    if np.any(prop.beta != 0.0):
        raise ValueError("characteristic consistency requires beta == 0")
    grid = spec.grid
    traj = solve_adjoint(spec, v_T)
    values = traj.state.values
    final = v_T.values[:, 1:-1]
    scale = float(np.max(np.abs(v_T.values)))
    worst = 0.0
    for n in range(grid.Nt + 1):
        steps = grid.Nt - n
        # the characteristic ending at a_j starts on row j + steps
        ref = np.zeros_like(final)
        ref[steps:] = final[steps:]
        for m in range(grid.Nt - 1, n - 1, -1):
            ref[:-1] = prop.solve_diffusion(m + 1, ref[1:], transpose=True)
            ref[-1] = 0.0
        worst = max(worst, float(np.max(np.abs(values[n, :, 1:-1] - ref))))
    rel = worst / scale if scale > 0.0 else 0.0
    return ConsistencyReport(samples=(grid.Nt + 1) * (grid.Na + 1),
                             max_abs_defect=worst, max_rel_defect=rel,
                             scale=scale)


@dataclass(frozen=True)
class EnergyAudit:
    sup_norm: float
    flux_integral: float
    rhs_bound: float
    constant: float
    passed: bool


def energy_audit(traj: Trajectory, spec: ProblemSpec) -> EnergyAudit:
    """Check sup_t ||y(t)||^2 + int int int k y_x^2 <= C(||y0||^2 + ||f||^2).

    C = exp(A ||beta||_inf^2 T) * (1 + T): the Gronwall rate of the
    renewal Jensen estimate composed with the source square completion.
    """
    grid = traj.grid
    constant = _exp_or_inf(_renewal_growth(spec) * grid.T) * (1.0 + grid.T)
    sup_norm = float(np.max(traj.norms) ** 2)
    # right-endpoint rule: the implicit step's energy identity bounds
    # dt * sum_{n>=1} flux(y^n); slice 0 holds the given data, whose
    # gradient energy the estimate does not control
    flux_integral = float(grid.dt * np.sum(traj.fluxes[1:]))
    y0_sq = float(traj.norms[0] ** 2)
    f_sq = control_norm(traj.control) ** 2 if traj.control is not None else 0.0
    data_sq = y0_sq + f_sq
    # zero data bound zero energy, however large (even inf) the constant
    rhs_bound = constant * data_sq if data_sq > 0.0 else 0.0
    lhs = sup_norm + flux_integral
    passed = lhs <= rhs_bound * (1.0 + 1e-12) + 1e-300
    return EnergyAudit(sup_norm=sup_norm, flux_integral=flux_integral,
                       rhs_bound=rhs_bound, constant=constant, passed=passed)
