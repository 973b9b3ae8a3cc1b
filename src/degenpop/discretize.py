"""Grids, nodal fields, quadrature, random data, CSV snapshots and JSON
artifacts.

Everything downstream works on a closed tensor grid over time t in [0, T],
age a in [0, A] and space x in an interval (default (0, 1)).  Fields store
nodal values.  Quadrature is composite trapezoid; in ``weighted_norm`` an
end cell whose weight is singular at the boundary node is split
geometrically toward that node and each sub-cell integrated by Simpson's
rule with the exact weight, so that integrable singularities (Hardy
weights, degenerate diffusion factors) can be integrated without
special-casing callers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field2",
    "Field3",
    "axis_weights",
    "weighted_norm",
    "window_mask",
    "random_final_data",
    "sine_mode_data",
    "spawn_rng",
    "write_field_csv",
    "read_field_csv",
    "write_json",
]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Tensor grid over [0, T] x [0, A] x [x_lo, x_hi] with Nt/Na/Nx cells.

    The time and age spacings must agree, so that the transport part of
    the dynamics advects one age cell per time step: T/Nt must match A/Na
    to 1e-12, and the step ``dt`` is ``da``, so grids that share the age
    lattice share the step however T was rounded.  ``x_span`` defaults to
    (0, 1); subinterval grids are used by the two-sided gluing
    construction and keep the parent spacing.
    """

    T: float
    A: float
    Nt: int
    Na: int
    Nx: int
    x_span: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("T", "A"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"horizon {name} must be finite and "
                                 f"positive, got {value!r}")
        if min(self.Nt, self.Na) < 1 or self.Nx < 2:
            raise ValueError("need Nt, Na >= 1 and Nx >= 2 (one interior "
                             "x node)")
        lo, hi = self.x_span
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"x_span must be a finite increasing pair, "
                             f"got {self.x_span!r}")
        dt, da = self.T / self.Nt, self.A / self.Na
        if abs(dt - da) > _REL_TOL * max(dt, da):
            raise ValueError(
                f"grid needs T/Nt == A/Na, got dt={dt!r}, da={da!r}")

    @classmethod
    def aligned(cls, T: float, A: float, Nt: int, Nx: int) -> "Grid":
        """Build a dt == da grid on x in (0, 1) from (T, Nt), deriving the
        age cell count."""
        na = (A / T) * Nt
        na_int = int(round(na))
        if abs(na - na_int) > 1e-9 or na_int < 1:
            raise ValueError(f"A/T * Nt = {na} is not a positive integer")
        return cls(T=T, A=A, Nt=Nt, Na=na_int, Nx=Nx)

    @property
    def dt(self) -> float:
        return self.da

    @property
    def da(self) -> float:
        return self.A / self.Na

    @property
    def dx(self) -> float:
        lo, hi = self.x_span
        return (hi - lo) / self.Nx

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.Nt + 1)

    @property
    def a_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.A, self.Na + 1)

    @property
    def x_nodes(self) -> np.ndarray:
        lo, hi = self.x_span
        return np.linspace(lo, hi, self.Nx + 1)

    def axis_nodes(self, name: str) -> np.ndarray:
        if name not in ("t", "a", "x"):
            raise ValueError(f"unknown axis {name!r}")
        return getattr(self, f"{name}_nodes")


def _nearest_x_node(grid: Grid, x: float) -> int:
    """Index of the interior x node of ``grid`` nearest to ``x``: the one
    rule by which a cut point, such as lo/2 for omega = [lo, hi], snaps to
    the grid."""
    idx = int(round((x - grid.x_span[0]) / grid.dx))
    return min(max(idx, 1), grid.Nx - 1)


def window_mask(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Membership of nodes in the closed window [lo, hi].

    Node coordinates come from linspace on each (sub)grid, so a node
    nominally on the window edge can sit a few ulp to either side
    depending on how its lattice was built; membership must not depend on
    that, or the same physical node flips between a grid and a subgrid
    sharing its spacing.  The fuzz is far below any cell width in use.
    """
    nodes = np.asarray(nodes, dtype=float)
    fuzz = 1e-12 * max(hi - lo, 1.0)
    return (nodes >= lo - fuzz) & (nodes <= hi + fuzz)


def _check_values(values: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    # the min and the max are NaN if an entry is, and one is +-inf if an
    # entry is; unlike np.isfinite, they allocate nothing
    if not (math.isfinite(arr.min(initial=0.0))
            and math.isfinite(arr.max(initial=0.0))):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass
class _Field:
    """Nodal values on ``grid`` of the shape ``_shape(grid)``: the dataclass
    behind Field3 and Field2.  Every construction but :meth:`zeros` and
    :meth:`_checked_already` checks the values for finiteness."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _check_values(self.values, self._shape(self.grid),
                                    f"{type(self).__name__} values")

    @classmethod
    def zeros(cls, grid: Grid):
        """The zero field.  Zeros are finite, so it skips the scan; the
        marches fill such fields in place."""
        return cls._checked_already(grid, np.zeros(cls._shape(grid)))

    @classmethod
    def _checked_already(cls, grid: Grid, values: np.ndarray):
        """The field on ``values`` as given, with no scan: for values of
        ``_shape(grid)`` that are known finite, such as a view into a
        stack of fields that was scanned once."""
        fld = object.__new__(cls)
        fld.grid, fld.values = grid, values
        return fld


class Field3(_Field):
    """Nodal field over the full (t, a, x) grid, shape (Nt+1, Na+1, Nx+1)."""

    axes = ("t", "a", "x")

    @staticmethod
    def _shape(grid: Grid) -> tuple[int, int, int]:
        return (grid.Nt + 1, grid.Na + 1, grid.Nx + 1)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field3":
        t = grid.t_nodes[:, None, None]
        a = grid.a_nodes[None, :, None]
        x = grid.x_nodes[None, None, :]
        return cls(grid, np.broadcast_to(fn(t, a, x), cls._shape(grid))
                   .astype(float).copy())


class Field2(_Field):
    """Nodal field over the (a, x) grid, shape (Na+1, Nx+1)."""

    axes = ("a", "x")

    @staticmethod
    def _shape(grid: Grid) -> tuple[int, int]:
        return (grid.Na + 1, grid.Nx + 1)


# ---------------------------------------------------------------------------
# quadrature


def axis_weights(n_nodes: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for ``n_nodes`` equispaced nodes."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


def weighted_norm(values: np.ndarray, x: np.ndarray, weight) -> float:
    """Integral of weight(x) * values**2 over the equispaced nodes ``x``.

    ``weight`` is a callable of x (broadcasting numpy-style).  An end
    cell where the nodal weight is non-finite is integrated on a
    geometric subdivision toward the endpoint (Simpson per sub-cell,
    field interpolated linearly), which resolves any integrable power
    singularity of the weight; a non-finite weight at an interior node
    raises ValueError.  Returns the squared weighted L2 norm.
    """
    x = np.asarray(x, dtype=float)
    w = np.broadcast_to(np.asarray(weight(x), dtype=float), x.shape)
    return _WeightedQuadrature(x, w, weight).norm(values)


class _WeightedQuadrature:
    """The half of ``weighted_norm`` that depends on the nodes and the
    weight alone, built once for any number of fields on the same nodes.

    The integral of weight * f**2 is
    ``weights @ f**2 + end_cells(f[end_nodes])``.  ``weights`` holds one
    weight per node: the trapezoid weight times the nodal weight, with
    the cell next to a non-finite end folded out (the end node weighs 0,
    its neighbour keeps the half of its other cell).
    Each such end cell is an ``_EndCell``, the weight sampled on a
    geometric subdivision toward the end, which ``end_cells`` integrates
    from the field at the cell's two nodes.  A caller may sum the first
    term over blocks of nodes.  ``nodal`` is ``weight`` at ``x``, which a
    caller that already evaluated it passes in; ``weight`` itself is
    called only at the subdivision points.
    """

    def __init__(self, x: np.ndarray, nodal: np.ndarray, weight) -> None:
        if x.ndim != 1 or x.size < 2:
            raise ValueError("nodes must be a 1-D array of at least two")
        finite = np.isfinite(nodal)
        if not finite[1:-1].all():
            bad = 1 + int(np.argmin(finite[1:-1]))
            raise ValueError(f"weight is not finite at the interior node "
                             f"x = {float(x[bad])!r}; only an end node may "
                             f"be singular")
        h = float(x[1] - x[0])
        # built in place: this is one of the node-sized arrays a Hardy
        # report holds
        self.weights = np.where(finite, nodal, 0.0)
        self.weights *= h
        self.weights[[0, -1]] *= 0.5
        # (end node, its neighbour, direction into the cell)
        ends = [(index, inward, orient)
                for index, inward, orient in ((0, 1, 1.0), (-1, -2, -1.0))
                if not finite[index]]
        if x.size == 2:
            # one cell, the end at x[-1] integrates it if both are singular
            ends = ends[-1:]
        for _, inward, _ in ends:
            if finite[inward]:  # take off its half of the end cell
                self.weights[inward] -= 0.5 * h * nodal[inward]
        self.ends = tuple(_EndCell(weight, x[index], orient, h)
                          for index, _, orient in ends)
        self.end_nodes = np.array([i for index, inward, _ in ends
                                   for i in (index, inward)], dtype=int)

    def end_cells(self, at_ends: np.ndarray) -> float:
        """The end cells' integral; ``at_ends`` is the field at
        ``end_nodes``, (end node, neighbour) per end."""
        total = 0.0
        for end, (f_end, f_inward) in zip(self.ends,
                                          np.reshape(at_ends, (-1, 2))):
            total += end.integral(f_end, f_inward)
        return float(total)

    def norm(self, values: np.ndarray) -> float:
        """Integral of weight * values**2 for the nodal field ``values``."""
        f = np.asarray(values, dtype=float)
        if f.shape != self.weights.shape:
            raise ValueError("values and nodes must be 1-D arrays of one "
                             "length")
        return (float(self.weights @ (f * f))
                + self.end_cells(f[self.end_nodes]))


class _EndCell:
    """End cell of ``weighted_norm`` with the weight singular at x_s.

    The cell (x_s toward x_s + orient * h) is split geometrically toward
    x_s, halving down to the last distance d above delta = 8 eps
    max(1, |x_s|), and each sub-cell integrated by Simpson with the exact
    weight and the field interpolated linearly between the two cell nodes.
    The sliver (x_s, x_s + orient * d), d in (delta, 2 delta], is left
    out.  For a |x - x_s|^(-gamma) weight its mass is d^(1-gamma) /
    (1-gamma), a share (d/h)^(1-gamma) of the cell's: at 400 001 nodes
    d/h = 2^-30, a share of 1.7e-7 at gamma = 0.25 but 5.5e-3 at
    gamma = 0.75, tending to 1 as gamma -> 1.  The Hardy HP2 weight
    k/x^2 ~ x^(theta-2) at its singular end has gamma = 2 - theta, so as
    theta -> 1 the sliver is most of the cell (README).  The weight is
    sampled once, here, at the sub-cell ends and midpoints; ``integral``
    adds the field.
    """

    def __init__(self, weight, x_s: float, orient: float, h: float) -> None:
        dist = h * 0.5 ** np.arange(61)
        keep = dist > 8.0 * np.finfo(float).eps * max(1.0, abs(x_s))
        dist = dist[keep]
        mid = 0.5 * (dist[:-1] + dist[1:])

        def sample(d: np.ndarray) -> np.ndarray:
            # one 0-d call per point: a ufunc's vectorized loop may round
            # differently from its scalar one
            wv = [float(weight(np.asarray(x_s + orient * p))) for p in d]
            return np.array([v if np.isfinite(v) else 0.0 for v in wv])

        self.ratio, self.mid_ratio = dist / h, mid / h
        self.weight, self.mid_weight = sample(dist), sample(mid)
        self.width = (dist[:-1] - dist[1:]) / 6.0

    def integral(self, f_sing: float, f_reg: float) -> float:
        if self.ratio.size < 2:
            return 0.0
        slope = f_reg - f_sing
        fv = f_sing + self.ratio * slope
        g = self.weight * fv * fv
        fv = f_sing + self.mid_ratio * slope
        g_mid = self.mid_weight * fv * fv
        total = 0.0
        # Simpson per sub-cell, summed in order from the regular node
        for term in self.width * (g[:-1] + 4.0 * g_mid + g[1:]):
            total = total + term
        return total


# ---------------------------------------------------------------------------
# random data


def spawn_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Named, splittable generator: (seed, stream) fully determines output."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def sine_mode_data(grid: Grid, coeffs: np.ndarray) -> Field2:
    """Double sine series in (a, x) scaled by (A - a)/A.

    ``coeffs[m-1, n-1]`` multiplies sin(m pi a / A) sin(n pi xhat) where
    xhat maps x_span to (0, 1).  The age ramp makes the a = A row exactly
    zero, matching the admissible final-data class of the adjoint system.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    a = grid.a_nodes
    lo, hi = grid.x_span
    xhat = (grid.x_nodes - lo) / (hi - lo)
    sx = [np.sin((n + 1) * np.pi * xhat) for n in range(c.shape[1])]
    vals = np.zeros((a.size, xhat.size))
    for m in range(c.shape[0]):
        sa = np.sin((m + 1) * np.pi * a / grid.A)
        for n in range(c.shape[1]):
            if c[m, n] == 0.0:
                continue
            vals += c[m, n] * np.outer(sa, sx[n])
    vals *= ((grid.A - a) / grid.A)[:, None]
    vals[-1, :] = 0.0
    return Field2(grid, vals)


def random_final_data(grid: Grid, seed: int, stream: int = 0) -> Field2:
    """Random 4x4 double sine series with coefficients N(0, 1)/(m n),
    deterministic in (seed, stream)."""
    rng = spawn_rng(seed, stream)
    m = np.arange(1, 5)
    scale = 1.0 / np.outer(m, m)
    coeffs = rng.standard_normal((4, 4)) * scale
    return sine_mode_data(grid, coeffs)


# ---------------------------------------------------------------------------
# snapshots


def _write_csv(path, header, rows) -> None:
    """CSV artifact: the header row, then ``rows``, each a sequence of
    plain numbers or strings, a line at a time.  A cell is ``str(cell)``
    (a float's shortest repr), None an empty cell, and every line ends in
    CRLF: byte for byte what ``csv.writer`` writes for such rows, no cell
    of which holds a comma, a quote or a line break."""
    with open(path, "w", newline="") as handle:
        for row in itertools.chain([header], rows):
            handle.write(",".join(["" if cell is None else str(cell)
                                   for cell in row]))
            handle.write("\r\n")


def write_field_csv(fld: Field2 | Field3, path) -> None:
    """CSV snapshot: header row, one row per node, row-major order.  Each
    axis's nodes are formatted once, and each value once."""
    *outer, inner = [[str(node) for node in fld.grid.axis_nodes(ax).tolist()]
                     for ax in fld.axes]
    lines = fld.values.reshape(-1, len(inner))
    _write_csv(path, list(fld.axes) + ["value"],
               (prefix + (x, v)
                for prefix, line in zip(itertools.product(*outer), lines)
                for x, v in zip(inner, map(str, line.tolist()))))


def write_json(path, payload: dict) -> None:
    """JSON artifact: two-space indent, sorted keys, trailing newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_field_csv(path, grid: Grid):
    """Read a snapshot written by :func:`write_field_csv` back onto ``grid``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        axes = tuple(header[:-1])
        data = np.array([[float(v) for v in row] for row in reader])
    if axes not in (("t", "a", "x"), ("a", "x")):
        raise ValueError(
            f"snapshot axes must be (t, a, x) or (a, x), got {axes}")
    nodes = [grid.axis_nodes(ax) for ax in axes]
    shape = tuple(len(n) for n in nodes)
    if data.shape[0] != int(np.prod(shape)):
        raise ValueError("snapshot row count does not match grid")
    coords = np.meshgrid(*nodes, indexing="ij")
    for ax, column, node in zip(axes, data.T, coords):
        if not np.allclose(column, node.reshape(-1), rtol=1e-12, atol=1e-12):
            raise ValueError(f"snapshot {ax} nodes do not match the grid's")
    values = data[:, -1].reshape(shape)
    if len(axes) == 3:
        return Field3(grid, values)
    return Field2(grid, values)
