"""Grids, nodal fields, quadrature, random data, CSV snapshots and JSON
artifacts.

Everything downstream works on a closed tensor grid over time t in [0, T],
age a in [0, A] and space x in an interval (default (0, 1)).  Fields store
nodal values.  Quadrature is composite trapezoid.
"""

from __future__ import annotations

import csv
import functools
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
    construction and keep the parent spacing.  Each axis's nodes are
    built on first read and shared by every caller, read-only.
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

    @functools.cached_property
    def t_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.T, self.Nt + 1))

    @functools.cached_property
    def a_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.A, self.Na + 1))

    @functools.cached_property
    def x_nodes(self) -> np.ndarray:
        lo, hi = self.x_span
        return _read_only(np.linspace(lo, hi, self.Nx + 1))

    def axis_nodes(self, name: str) -> np.ndarray:
        if name not in ("t", "a", "x"):
            raise ValueError(f"unknown axis {name!r}")
        return getattr(self, f"{name}_nodes")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


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
    """Integral of weight(x) * values**2 over the equispaced nodes ``x``
    by the composite trapezoid rule.

    ``weight`` is a callable of x (broadcasting numpy-style).  A weight
    that is not finite at a node, an end node included, raises
    ValueError.  Returns the squared weighted L2 norm.
    """
    x = np.asarray(x, dtype=float)
    nodal = np.broadcast_to(np.asarray(weight(x), dtype=float), x.shape)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("nodes must be a 1-D array of at least two")
    finite = np.isfinite(nodal)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"weight is not finite at x = {float(x[bad])!r}")
    f = np.asarray(values, dtype=float)
    if f.shape != x.shape:
        raise ValueError("values and nodes must be 1-D arrays of one length")
    weights = axis_weights(x.size, float(x[1] - x[0])) * nodal
    return float(weights @ (f * f))


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
        header = next(reader, None)
        if header is None:
            raise ValueError(f"snapshot {path} is empty")
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
