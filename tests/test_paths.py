import io

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from picardcert.paths import (DomainEscapeError, SampledPath, TimeWarp,
                              identity_warp, read_csv, sup_norm, write_csv,
                              zero_path)

from picardcert.paths import _cubic_coefficients
from picardcert.solver import _cell_nodes

from _oracles import psi


def make_path(func, lo, hi, h, **kw):
    grid = np.arange(lo, hi + h / 2, h)
    return SampledPath(grid, func(grid), **kw)


# -- construction invariants -------------------------------------------------

def test_grid_must_increase():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SampledPath(np.array([1.0, 0.0]), np.zeros((2, 1)))


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.array([[0.0], [np.inf]]))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        SampledPath(np.array([]), np.zeros((0, 1)))


def test_node_exactness_cubic_and_linear():
    # 41 nodes are read by the cubic spline, 3 nodes linearly
    for n in (41, 3):
        grid = np.linspace(-3.0, 3.0, n)
        vals = np.sin(grid)
        p = SampledPath(grid, vals)
        out = p.evaluate(grid)
        assert np.array_equal(out[:, 0], vals)


# -- evaluation ---------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 17, 4513])
@pytest.mark.parametrize("d", [1, 3, 64])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
def test_cubic_matches_scipy_not_a_knot_spline(n, d, uniform):
    # scipy's CubicSpline (not-a-knot) is the oracle of the in-house spline
    rng = np.random.default_rng([n, d, uniform])
    grid = (np.linspace(-2.0, 5.0, n) if uniform
            else np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0)
    values = np.cos(grid[:, None] * np.arange(1, d + 1) / d) \
        + 0.1 * rng.standard_normal((n, d))
    p = SampledPath(grid, values)
    inside = grid[:-1] + np.diff(grid) * rng.uniform(0.0, 1.0, (3, n - 1))
    t = np.concatenate([grid[[0, -1]], inside.ravel(), grid[1:-1]])
    want = CubicSpline(grid, values, axis=0)(t)
    scale = np.max(np.abs(want), axis=0)
    assert np.max(np.abs(p.evaluate(t) - want) / scale) <= 1e-14
    assert np.array_equal(p.evaluate(grid), values)


def _banded_slopes(x, y):
    """The node slopes of the not-a-knot spline by scipy's banded solver,
    on the system as it stands, end rows unfolded."""
    n, dx = x.size, np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((3, n))
    b = np.empty_like(y)
    A[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0], A[0, 1] = dx[1], d
    b[0] = ((dxr[0] + 2.0 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1], A[-1, -2] = dx[-2], d
    b[-1] = (dxr[-1] ** 2 * slope[-2]
             + (2.0 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    return solve_banded((1, 1), A, b)


@pytest.mark.parametrize("n", [4, 5, 7, 64, 1001])
@pytest.mark.parametrize("d", [1, 8, 64])
@pytest.mark.parametrize("ratio", [1.0, 1e3])
def test_cyclic_reduction_matches_banded_solve(n, d, ratio):
    # the folded, pivot-free cyclic reduction against LAPACK's banded solve
    # of the unfolded system, on grids whose steps vary by up to ratio
    rng = np.random.default_rng([n, d, int(ratio)])
    x = np.cumsum(np.exp(rng.uniform(0.0, np.log(ratio), n))) - 3.0
    y = rng.standard_normal((n, d))
    want = _banded_slopes(x, y)
    got = _cubic_coefficients(x, y)[:, 2]
    scale = np.max(np.abs(want), axis=0)
    assert np.max(np.abs(got - want[:-1]) / scale) <= 1e-13


def _row_cases():
    grid = np.linspace(-2.0, 5.0, 71)
    h = grid[1] - grid[0]
    nodes = _cell_nodes(grid)[0]
    straddle = nodes + 0.5 * h
    past = np.array([[grid[0] - 0.7 * h] * 3 + [grid[0] - 0.2 * h] * 3,
                     [grid[-1] + 0.2 * h] * 6, [grid[-1] + 0.9 * h] * 6])
    on_node = np.tile(grid[[10]], (1, 6))
    to_node = np.column_stack([nodes[:, :5], grid[1:]])
    rng = np.random.default_rng(7)
    bumpy = np.cumsum(rng.uniform(0.05, 1.0, 40)) - 3.0
    yield "cells", grid, nodes
    yield "straddle", grid, straddle
    yield "to-node", grid, to_node
    yield "mixed", grid, np.vstack([nodes, straddle[::3], past, on_node])
    cells = _cell_nodes(bumpy)[0]
    yield "nonuniform", bumpy, np.vstack(
        [cells, cells + 0.5 * np.diff(bumpy)[:, None]])


@pytest.mark.parametrize("tail", ["constant", "error"])
@pytest.mark.parametrize("case", list(_row_cases()), ids=lambda c: c[0])
def test_row_read_matches_pointwise_read(tail, case):
    # a row inside one cell takes one search and that cell's cubic; the
    # bits must be those of the point-by-point read of the same times
    _, grid, t = case
    values = np.column_stack([np.sin(grid), np.cos(3.0 * grid)])
    p = SampledPath(grid, values, tail_policy=tail)
    rows = p.evaluate(t)
    assert rows.shape == t.shape + (2,)
    assert np.array_equal(rows, p.evaluate(t.ravel()).reshape(rows.shape))


def test_row_read_escapes_as_the_pointwise_read_does():
    grid = np.linspace(0.0, 1.0, 11)
    p = SampledPath(grid, np.sin(grid))
    t = np.vstack([_cell_nodes(grid)[0], np.full((1, 6), 1.5)])
    with pytest.raises(DomainEscapeError, match="time 1.5 escapes"):
        p.evaluate(t)


def test_linear_midpoint():
    p = SampledPath(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert p.evaluate(0.5)[0] == pytest.approx(1.0, abs=1e-15)


def test_constant_path_everywhere():
    p = SampledPath(np.array([0.0, 1.0, 2.0]), np.full(3, 4.5),
                    tail_policy="constant")
    for t in (-3.0, 0.3, 1.7, 9.0):
        assert p.evaluate(t)[0] == pytest.approx(4.5, abs=1e-15)


def test_error_tail_allows_one_step_then_raises():
    p = SampledPath(np.arange(0.0, 5.5, 0.5), np.ones(11), tail_policy="error")
    assert p.evaluate(5.4)[0] == pytest.approx(1.0)  # within one grid step
    with pytest.raises(DomainEscapeError):
        p.evaluate(5.6)


# -- sup norm -----------------------------------------------------------------

def test_sup_norm_zero():
    assert sup_norm(zero_path(np.linspace(0, 1, 11))) == 0.0


def test_sup_norm_attained_maximum():
    grid = np.array([0.0, np.pi / 2, np.pi])
    p = SampledPath(grid, np.sin(grid))
    assert sup_norm(p) == pytest.approx(1.0, abs=1e-15)


def test_sup_norm_recurrent_signal_dense_window():
    # dense-sampling oracle over [-1e4, 1e4]; the signal's argument sweeps
    # far past pi/2 wherever the denominator dips, so the sampled sup is
    # essentially 1, not the value of the signal at denominator 1
    h, W = 0.05, 1.0e4
    grid = np.arange(-W, W + h / 2, h)
    vals = psi(grid)
    oracle = float(np.max(np.abs(vals)))
    p = SampledPath(grid, vals, tail_policy="constant")
    assert sup_norm(p) == pytest.approx(oracle, abs=0.0)
    assert oracle > 0.9999


def test_sup_norm_axioms_on_shared_grids():
    grid = np.linspace(-5, 5, 201)
    funcs = [np.sin, np.cos, lambda t: np.tanh(t), lambda t: t / 6.0, psi]
    paths = [SampledPath(grid, f(grid)) for f in funcs]
    for a in (-2.0, 0.0, 0.5, 3.0):
        for p in paths:
            assert sup_norm(SampledPath(grid, a * p.values)) == pytest.approx(
                abs(a) * sup_norm(p), rel=1e-14, abs=1e-300)


# -- warps ---------------------------------------------------------------------

def test_warp_identity_bitwise():
    p = make_path(np.sin, -3, 3, 0.1)
    assert identity_warp.is_identity
    assert np.array_equal(p.evaluate(identity_warp(p.grid)), p.values)


def test_shift_warp_on_linear_path():
    grid = np.linspace(0.0, 5.0, 51)
    p = SampledPath(grid, grid.copy(), tail_policy="constant")
    q = p.evaluate(TimeWarp("shift", tau=1.0)(grid))
    assert np.allclose(q[:, 0], np.clip(grid + 1.0, 0.0, 5.0), atol=1e-14)


def test_warp_matches_pointwise_evaluation():
    p = make_path(np.cos, -10, 10, 0.05, tail_policy="constant")
    w = TimeWarp("shift", tau=-0.7)
    out_grid = np.linspace(-5, 5, 101)
    assert np.array_equal(p.evaluate(w(out_grid)), p.evaluate(out_grid - 0.7))


def test_warp_escape_raises_under_error_policy():
    p = make_path(np.sin, 0, 1, 0.1)
    with pytest.raises(DomainEscapeError):
        p.evaluate(TimeWarp("shift", tau=5.0)(p.grid))


def test_tabulated_warp():
    tt = np.linspace(0, 10, 101)
    w = TimeWarp("tabulated", table_t=tt, table_a=0.5 * tt)
    assert w(4.0) == pytest.approx(2.0)


@pytest.mark.parametrize("lo, hi, expected", [
    (0.0, 10.0, (-5.0, 10.0)),   # the dip at a knot between samples
    (0.01, 0.04, (-4.0, -1.0)),  # inside one table cell: the ends
    (-1.0, 0.05, (-5.0, 0.0)),   # the dip at an end, clamped before the table
])
def test_tabulated_reach_is_exact(lo, hi, expected):
    # a non-monotone table dips to -5 at t = 0.05, between the samples of
    # an even grid on [0, 10]
    w = TimeWarp("tabulated", table_t=[0.0, 0.05, 10.0],
                 table_a=[0.0, -5.0, 10.0])
    assert w.reach(lo, hi) == pytest.approx(expected, abs=1e-12)


# -- CSV round trip ---------------------------------------------------------------

def test_csv_round_trip_bit_identical():
    grid = np.linspace(-2.0, 3.0, 57)
    vals = np.stack([np.sin(grid) / 3.0, np.exp(grid / 5.0)], axis=1)
    p = SampledPath(grid, vals)
    buf = io.StringIO()
    write_csv(p, buf)
    buf.seek(0)
    q = read_csv(buf)
    assert np.array_equal(p.grid, q.grid)
    assert np.array_equal(p.values, q.values)


def test_csv_header_checked():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("time,x\n0.0,1.0\n"))
