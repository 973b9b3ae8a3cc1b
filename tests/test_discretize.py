import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sp_integrate

from degenpop.discretize import (Field2, Field3, Grid, _write_csv,
                                 axis_weights, random_final_data,
                                 read_field_csv, sine_mode_data, spawn_rng,
                                 weighted_norm, write_field_csv)


def make_grid(Nt=6, Nx=8):
    return Grid.aligned(T=1.0, A=2.0, Nt=Nt, Nx=Nx)


class TestGrid:
    def test_aligned_derives_age_cells(self):
        g = make_grid()
        assert g.Na == 12
        assert g.dt == g.da

    def test_mismatched_spacings_rejected(self):
        with pytest.raises(ValueError, match="T/Nt == A/Na"):
            Grid(T=1.0, A=2.0, Nt=10, Na=15, Nx=8)

    def test_aligned_rejects_fractional_age_count(self):
        with pytest.raises(ValueError):
            Grid.aligned(T=1.0, A=1.75, Nt=10, Nx=8)

    def test_node_counts_and_spans(self):
        g = Grid(T=1.0, A=2.0, Nt=4, Na=8, Nx=5, x_span=(0.25, 0.75))
        assert g.t_nodes.shape == (5,)
        assert g.a_nodes.shape == (9,)
        assert g.x_nodes[0] == 0.25 and g.x_nodes[-1] == 0.75
        assert g.dx == pytest.approx(0.1)

    def test_step_is_the_age_step(self):
        # fl(3 * 0.2) / 3 is one ulp above 0.2; the step is da regardless
        g = Grid(T=3 * 0.2, A=2.0, Nt=3, Na=10, Nx=4)
        assert g.T / g.Nt != g.da
        assert g.dt == g.da == 0.2

    def test_axis_nodes_are_the_linspaces(self):
        g = Grid(T=1.0, A=2.0, Nt=4, Na=8, Nx=5, x_span=(0.25, 0.75))
        for name, want in (("t", np.linspace(0.0, 1.0, 5)),
                           ("a", np.linspace(0.0, 2.0, 9)),
                           ("x", np.linspace(0.25, 0.75, 6))):
            assert np.array_equal(g.axis_nodes(name), want)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            make_grid().axis_nodes("z")

    def test_needs_an_interior_x_node(self):
        with pytest.raises(ValueError, match="Nx >= 2"):
            Grid(T=1.0, A=2.0, Nt=4, Na=8, Nx=1)
        assert Grid(T=1.0, A=2.0, Nt=4, Na=8, Nx=2).x_nodes.size == 3

    @pytest.mark.parametrize("changes, message", [
        ({"T": np.nan}, "horizon T must be finite"),
        ({"T": np.inf, "A": np.inf}, "horizon T must be finite"),
        ({"A": np.nan}, "horizon A must be finite"),
        ({"x_span": (-np.inf, 1.0)}, "x_span must be a finite"),
        ({"x_span": (0.0, np.nan)}, "x_span must be a finite")])
    def test_non_finite_values_rejected(self, changes, message):
        # each was accepted, with nan time nodes or a nan or inf spacing
        with pytest.raises(ValueError, match=message):
            Grid(**{"T": 1.0, "A": 2.0, "Nt": 4, "Na": 8, "Nx": 4, **changes})


class TestQuadrature:
    def test_matches_scipy_trapezoid(self):
        rng = spawn_rng(3)
        vals = rng.standard_normal((7, 11))
        ours = np.vdot(np.outer(axis_weights(7, 0.25),
                                axis_weights(11, 0.1)), vals)
        ref = sp_integrate.trapezoid(
            sp_integrate.trapezoid(vals, dx=0.1, axis=1), dx=0.25)
        assert ours == pytest.approx(ref, rel=1e-14)

    def test_weighted_norm_polynomial_oracle(self):
        # int_0^1 x^2 dx = 1/3
        nodes = np.linspace(0.0, 1.0, 20_001)
        val = weighted_norm(nodes, nodes, np.ones_like)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_weighted_norm_singular_endpoint(self):
        # int_0^1 x^(-1/2) dx = 2.  The weight blows up at the left edge,
        # so the regular cells next to it converge at O(sqrt(h)) only.
        nodes = np.linspace(0.0, 1.0, 100_001)
        val = weighted_norm(np.ones_like(nodes), nodes,
                            weight=lambda x: np.where(x > 0, x, np.inf) ** -0.5)
        assert val == pytest.approx(2.0, rel=5e-3)

    def test_weighted_norm_rejects_mismatched_axes(self):
        with pytest.raises(ValueError):
            weighted_norm(np.ones((3, 3)), np.linspace(0, 1, 3), np.ones_like)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weighted_norm_rejects_interior_non_finite_weight(self, bad):
        # only an end node takes the singular-cell path; an interior one
        # used to be zeroed, giving 0.9 for the integral of 1 over [0, 1]
        nodes = np.linspace(0.0, 1.0, 11)
        weight = lambda x: np.where(np.isclose(x, 0.5), bad, 1.0)
        with pytest.raises(ValueError, match="x = 0.5"):
            weighted_norm(np.ones_like(nodes), nodes, weight=weight)

    def test_axis_weights_sum(self):
        w = axis_weights(11, 0.1)
        assert w.sum() == pytest.approx(1.0)

    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_trapezoid_exact_on_affine(self, n, a, b):
        nodes = np.linspace(0.0, 1.0, n + 1)
        exact = a + b / 2.0
        got = axis_weights(n + 1, 1.0 / n) @ (a + b * nodes)
        assert got == pytest.approx(exact, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_quadrature_monotone(self, seed, n):
        rng = spawn_rng(seed)
        f = rng.uniform(0.0, 1.0, n)
        g = f + rng.uniform(0.0, 1.0, n)
        h = 1.0 / (n - 1)
        w = axis_weights(n, h)
        assert w @ f <= w @ g + 1e-12


class TestFields:
    def test_field3_rejects_nan(self):
        g = make_grid()
        vals = np.zeros((g.Nt + 1, g.Na + 1, g.Nx + 1))
        vals[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field3(g, vals)

    def test_field2_shape_check(self):
        g = make_grid()
        with pytest.raises(ValueError, match="shape"):
            Field2(g, np.zeros((3, 3)))

    def test_from_function_broadcasts(self):
        g = make_grid()
        f = Field3.from_function(g, lambda t, a, x: t + a + x)
        assert f.values[2, 3, 4] == pytest.approx(
            g.t_nodes[2] + g.a_nodes[3] + g.x_nodes[4])

    def test_sine_modes_vanish_on_edges(self):
        g = make_grid()
        f = sine_mode_data(g, [[1.0, -0.5], [0.25, 0.1]])
        assert np.all(f.values[-1] == 0.0)          # a = A row
        np.testing.assert_allclose(f.values[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(f.values[:, -1], 0.0, atol=1e-15)

    @pytest.mark.parametrize("x_span", [(0.0, 1.0), (0.2, 0.7)])
    def test_sine_modes_are_the_double_series(self, x_span):
        g = Grid(T=1.0, A=2.0, Nt=6, Na=12, Nx=9, x_span=x_span)
        c = spawn_rng(3).standard_normal((4, 3))
        c[1, 2] = c[3, 0] = 0.0
        # the series term by term, each x sine evaluated per (m, n)
        a = g.a_nodes
        lo, hi = x_span
        xhat = (g.x_nodes - lo) / (hi - lo)
        want = np.zeros((a.size, xhat.size))
        for m in range(4):
            sa = np.sin((m + 1) * np.pi * a / g.A)
            for n in range(3):
                if c[m, n] != 0.0:
                    want += c[m, n] * np.outer(
                        sa, np.sin((n + 1) * np.pi * xhat))
        want *= ((g.A - a) / g.A)[:, None]
        want[-1, :] = 0.0
        assert np.array_equal(sine_mode_data(g, c).values, want)


class TestRandomness:
    def test_spawn_rng_reproducible(self):
        a = spawn_rng(11, 2).standard_normal(5)
        b = spawn_rng(11, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = spawn_rng(11, 0).standard_normal(5)
        b = spawn_rng(11, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_random_final_data_deterministic(self, seed):
        g = make_grid(4, 6)
        a = random_final_data(g, seed)
        b = random_final_data(g, seed)
        np.testing.assert_array_equal(a.values, b.values)


class TestSnapshotIO:
    def test_csv_round_trip(self, tmp_path):
        g = make_grid(3, 4)
        fld = Field2(g, spawn_rng(5).standard_normal((g.Na + 1, g.Nx + 1)))
        path = tmp_path / "snap.csv"
        write_field_csv(fld, path)
        back = read_field_csv(path, g)
        np.testing.assert_array_equal(back.values, fld.values)
        assert back.axes == ("a", "x")

    def test_snapshot_of_another_grid_rejected(self, tmp_path):
        # same node counts, other nodes: the row count alone let it through
        written = Grid(T=1.0, A=2.0, Nt=4, Na=8, Nx=6)
        other = Grid(T=2.0, A=4.0, Nt=4, Na=8, Nx=6, x_span=(0.0, 0.5))
        path = tmp_path / "snap.csv"
        for fld, first in ((Field3.zeros(written), "t"),
                           (Field2.zeros(written), "a")):
            write_field_csv(fld, path)
            with pytest.raises(ValueError, match=f"snapshot {first} nodes "
                                                 "do not match the grid's"):
                read_field_csv(path, other)
            with pytest.raises(ValueError, match="snapshot x nodes"):
                read_field_csv(path, dataclasses.replace(
                    written, x_span=(0.0, 0.5)))

    @staticmethod
    def csv_module_bytes(header, rows) -> bytes:
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(rows)
        return text.getvalue().encode()

    def test_cells_as_the_csv_module_writes_them(self, tmp_path):
        header = ["step", "t", "value", "note"]
        rows = [[0, 0.1, 1 / 3, None], [-7, -0.0, 1e-300, 2 ** 70],
                [3, math.inf, -math.inf, math.nan], [None, None, 0.0, 1e300]]
        path = tmp_path / "cells.csv"
        _write_csv(path, header, iter(rows))
        assert path.read_bytes() == self.csv_module_bytes(header, rows)

    def test_snapshots_as_the_csv_module_writes_them(self, tmp_path):
        g = Grid(T=0.6, A=1.2, Nt=3, Na=6, Nx=7, x_span=(0.1, 0.8))
        rng = spawn_rng(9)
        for fld in (Field2(g, rng.standard_normal((g.Na + 1, g.Nx + 1))),
                    Field3(g, rng.standard_normal((g.Nt + 1, g.Na + 1,
                                                   g.Nx + 1)))):
            fld.values[0, 0] = -0.0
            path = tmp_path / f"{type(fld).__name__}.csv"
            write_field_csv(fld, path)
            # the snapshot before one format per number: every node's
            # coordinates beside its value, through the csv module
            nodes = np.meshgrid(*[g.axis_nodes(ax) for ax in fld.axes],
                                indexing="ij")
            rows = np.column_stack([n.reshape(-1) for n in nodes]
                                   + [fld.values.reshape(-1)]).tolist()
            assert path.read_bytes() == self.csv_module_bytes(
                list(fld.axes) + ["value"], rows)
            back = read_field_csv(path, g)
            assert type(back) is type(fld)
            np.testing.assert_array_equal(back.values, fld.values)
