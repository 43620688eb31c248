"""Sampled vector-valued paths on time grids.

A path is a function of time with values in R^d, stored on a finite strictly
increasing grid and read between nodes by the not-a-knot cubic spline
(linearly on grids of fewer than 4 nodes), with a policy for evaluation
beyond the grid.  Paths carry solutions, base points, forcing data
and envelope profiles; everything downstream (quadrature sweeps, certificate
audits, diagnostics) consumes them through ``evaluate``.

All paths are immutable after construction and evaluation is pure, so they
can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

FULL_LINE = "full_line"
HALF_LINE = "half_line"

TAIL_CONSTANT = "constant"
TAIL_ERROR = "error"

_TAIL_POLICIES = (TAIL_CONSTANT, TAIL_ERROR)


class DomainEscapeError(ValueError):
    """Evaluation was requested outside the evaluable domain of a path."""


@lru_cache(maxsize=8)
def _not_a_knot_factor(grid: bytes):
    """Odd-even cyclic reduction of the slope system of the not-a-knot
    spline on a grid (its float64 bytes), with the two end rows folded in.

    The unknowns are the slopes s_1 .. s_{n-2} at the interior nodes; row i
    reads dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}, padded
    with identity rows to 2^k - 1 unknowns.  Each level keeps the
    multipliers that eliminate the even unknowns from the odd rows, and the
    even rows (sub, diag, super) that give the even unknowns back.  The
    result does not depend on the values, so a grid is factored once for
    every path on it.
    """
    x = np.frombuffer(grid)
    dx = np.diff(x)
    m = x.size - 2
    size = (1 << m.bit_length()) - 1
    sub, diag, sup = np.zeros((size, 1)), np.ones((size, 1)), np.zeros((size, 1))
    sub[1:m, 0] = dx[2:]
    diag[:m, 0] = 2.0 * (dx[:-1] + dx[1:])
    sup[:m - 1, 0] = dx[:-2]
    diag[0] -= x[2] - x[0]
    diag[m - 1] -= x[-1] - x[-3]
    levels = []
    while diag.size > 1:
        lower = -sub[1::2] / diag[:-1:2]
        upper = -sup[1::2] / diag[2::2]
        levels.append((lower, upper, sub[2::2], diag[::2], sup[:-1:2]))
        sub, diag, sup = (lower * sub[:-1:2],
                          diag[1::2] + lower * sup[:-1:2] + upper * sub[2::2],
                          upper * sup[2::2])
    return size, levels, diag[0]


def _cyclic_solve(factor, r) -> np.ndarray:
    """The solution of the factored system for the right-hand sides r, (m, d)."""
    size, levels, last = factor
    m = r.shape[0]
    r = np.concatenate([r, np.zeros((size - m, r.shape[1]))])
    kept = []
    for lower, upper, *_ in levels:
        kept.append(r)
        r = r[1::2] + lower * r[:-1:2] + upper * r[2::2]
    s = r / last
    for (_, _, sub, diag, sup), r in zip(reversed(levels), reversed(kept)):
        even = r[::2].copy()
        even[1:] -= sub * s
        even[:-1] -= sup * s
        full = np.empty_like(r)
        full[1::2] = s
        full[::2] = even / diag
        s = full
    return s[:m]


def _cubic_coefficients(x, y) -> np.ndarray:
    """Horner coefficients of the not-a-knot cubic spline through (x, y).

    x is strictly increasing with n >= 4 nodes and y is (n, d).  The slopes
    at the nodes solve one tridiagonal system (C. de Boor, *A Practical
    Guide to Splines*, ch. IV), the one scipy's not-a-knot spline solves.
    Its two end rows, dx_1 s_0 + (x_2 - x_0) s_1 and the mirror image, are
    not diagonally dominant; but the next row's coefficient of the end
    slope is the same dx, so subtracting each end row from its neighbour
    removes the end slope and leaves a system on the interior slopes whose
    every row is strictly diagonally dominant (the folded rows by dx_1 and
    dx_{n-3}, the others by half their diagonal).  That system is solved by
    odd-even cyclic reduction without pivoting, which is stable for such
    systems (D. Heller, "Some aspects of the cyclic reduction algorithm for
    block tridiagonal linear systems", SIAM J. Numer. Anal. 13, 1976);
    `_not_a_knot_factor` reduces each grid once, and the end slopes follow
    from the end rows.  Returns c of shape (n - 1, 4, d): the spline is
    ((c0 u + c1) u + c2) u + c3 at u = t - x[i] in cell i.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    r = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x[1] and x[n-2]
    d0 = x[2] - x[0]
    r0 = ((dxr[0] + 2.0 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
    d1 = x[-1] - x[-3]
    r1 = (dxr[-1] ** 2 * slope[-2]
          + (2.0 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    r[0] -= r0
    r[-1] -= r1
    s = np.empty_like(y)
    s[1:-1] = _cyclic_solve(_not_a_knot_factor(x.tobytes()), r)
    s[0] = (r0 - d0 * s[1]) / dx[1]
    s[-1] = (r1 - d1 * s[-2]) / dx[-2]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dxr
    return np.stack([t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]],
                    axis=1)


@dataclass(frozen=True)
class SampledPath:
    """A function R -> R^d (or R+ -> R^d) sampled on a strictly increasing grid.

    values has shape (n, d).  Evaluation at a grid node reproduces the stored
    value bit-exactly; between nodes the not-a-knot cubic spline is read
    (linear interpolation on grids of fewer than 4 nodes); beyond the grid
    the tail policy decides:

    * ``constant``  clamp to the nearest edge value,
    * ``error``     allow up to one grid step beyond each edge (clamped),
                    raise DomainEscapeError farther out.
    """

    grid: np.ndarray
    values: np.ndarray
    domain_kind: str = FULL_LINE
    tail_policy: str = TAIL_ERROR

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if grid.size == 0:
            raise ValueError("path grid is empty")
        if values.shape[0] != grid.size:
            raise ValueError(
                f"grid has {grid.size} nodes but values has {values.shape[0]} rows")
        if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
            raise ValueError("path grid must be strictly increasing")
        if not np.all(np.isfinite(grid)):
            raise ValueError("path grid contains non-finite times")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values contain non-finite entries")
        if self.domain_kind not in (FULL_LINE, HALF_LINE):
            raise ValueError(f"unknown domain_kind {self.domain_kind!r}")
        if self.tail_policy not in _TAIL_POLICIES:
            raise ValueError(f"unknown tail_policy {self.tail_policy!r}")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.grid.size

    @property
    def t_min(self) -> float:
        return float(self.grid[0])

    @property
    def t_max(self) -> float:
        return float(self.grid[-1])

    @cached_property
    def _spline(self):
        """Per-cell cubic coefficients, or None for linear interpolation
        on fewer than 4 nodes."""
        if self.n_nodes >= 4:
            return _cubic_coefficients(self.grid, self.values)
        return None

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t) -> np.ndarray:
        """Value of the path at time(s) t; shape (d,) for scalar t, t.shape +
        (d,) else.

        A 2-D t whose rows each lie strictly inside one grid cell, as the
        Gauss nodes of the solver's cells do, is read by one search per row
        and that cell's cubic; any other row is read point by point.  Both
        give the same bits.
        """
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 2 and t_arr.size and self._spline is not None:
            return self._read_rows(t_arr)
        out = self._read(np.atleast_1d(t_arr).ravel())
        if t_arr.ndim == 0:
            return out[0]
        return out.reshape(t_arr.shape + (self.dim,)) if t_arr.ndim > 1 else out

    def _read(self, tt) -> np.ndarray:
        """Values (m, d) at the flat array of times tt, point by point."""
        lo, hi = self.grid[0], self.grid[-1]

        if self.tail_policy == TAIL_ERROR:
            step_lo = self.grid[1] - self.grid[0] if self.n_nodes > 1 else 0.0
            step_hi = self.grid[-1] - self.grid[-2] if self.n_nodes > 1 else 0.0
            if np.any(tt < lo - step_lo) or np.any(tt > hi + step_hi):
                worst = tt[np.argmax(np.maximum(lo - tt, tt - hi))]
                raise DomainEscapeError(
                    f"time {worst:g} escapes path domain [{lo:g}, {hi:g}] "
                    f"by more than one grid step")

        tc = np.clip(tt, lo, hi)
        # one search serves the cell index and the exact-node test
        pos = np.minimum(np.searchsorted(self.grid, tc), self.n_nodes - 1)
        if self.n_nodes == 1:
            out = np.broadcast_to(self.values[0], (tt.size, self.dim)).copy()
        elif self._spline is not None:
            # Horner's rule in place, one gathered coefficient at a time
            cell = np.maximum(pos - 1, 0)
            u = (tc - self.grid[cell])[:, None]
            out = self._spline[cell, 0]
            for k in (1, 2, 3):
                out *= u
                out += self._spline[cell, k]
        else:
            out = np.empty((tt.size, self.dim))
            for j in range(self.dim):
                out[:, j] = np.interp(tc, self.grid, self.values[:, j])

        # bit-exact reproduction of stored values at grid nodes
        exact = self.grid[pos] == tc
        if exact.any():
            out[exact] = self.values[pos[exact]]
        return out

    def _read_rows(self, t) -> np.ndarray:
        """Spline values (R, K, d) at the times t, (R, K).  A row strictly
        inside grid cell j gets j from one search of its least time and the
        same Horner steps as _read; the other rows are read by _read."""
        grid = self.grid
        cell = np.searchsorted(grid, t.min(axis=1)) - 1
        inside = (cell >= 0) & (
            t.max(axis=1) < grid[np.minimum(cell + 1, grid.size - 1)])
        if not inside.any():
            return self._read(t.ravel()).reshape(t.shape + (self.dim,))
        np.clip(cell, 0, grid.size - 2, out=cell)
        u = t - grid[cell][:, None]
        rest = np.flatnonzero(~inside)
        # the rows read by _read take u = 0 here, so their cubic stays finite
        u[rest] = 0.0
        u = u[..., None]
        c = self._spline[cell][:, None]
        out = c[..., 0, :] * u
        for k in (1, 2):
            out += c[..., k, :]
            out *= u
        out += c[..., 3, :]
        if rest.size:
            out[rest] = self._read(t[rest].ravel()).reshape(
                (rest.size,) + out.shape[1:])
        return out

    __call__ = evaluate

    def restrict(self, t_lo: float, t_hi: float) -> "SampledPath":
        """Sub-path on the grid nodes inside [t_lo, t_hi]."""
        mask = (self.grid >= t_lo) & (self.grid <= t_hi)
        if not mask.any():
            raise ValueError("restriction window contains no grid nodes")
        return replace(self, grid=self.grid[mask], values=self.values[mask])


def zero_path(grid, dim: int = 1, **kwargs) -> SampledPath:
    grid = np.asarray(grid, dtype=float)
    return SampledPath(grid, np.zeros((grid.size, dim)), **kwargs)


# ---------------------------------------------------------------------------
# norms


def sup_norm(p: SampledPath) -> float:
    """Largest Euclidean norm of the sampled values (uniform norm on the grid)."""
    return float(np.max(np.linalg.norm(p.values, axis=1)))


def sup_distance(p: SampledPath, q: SampledPath) -> float:
    if not np.array_equal(p.grid, q.grid):
        raise ValueError("paths must share a grid")
    return float(np.max(np.linalg.norm(p.values - q.values, axis=1)))


# ---------------------------------------------------------------------------
# time warps


@dataclass(frozen=True)
class TimeWarp:
    """Reparametrisation of time t -> a(t).

    Kinds: ``identity``; ``shift`` with a(t) = t + tau (a pure delay is a
    negative tau); ``tabulated`` with a(t) interpolated linearly from a table.
    Composing with an identity or shift warp keeps a path in the recurrent
    function classes the certificates require; a tabulated a(t) is not known
    to, so the recurrence-transfer check refuses it.
    """

    kind: str = "identity"
    tau: float = 0.0
    table_t: Optional[np.ndarray] = None
    table_a: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("identity", "shift", "tabulated"):
            raise ValueError(f"unknown warp kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.table_t is None or self.table_a is None:
                raise ValueError("tabulated warp needs table_t and table_a")
            tt = np.asarray(self.table_t, dtype=float)
            aa = np.asarray(self.table_a, dtype=float)
            if tt.size != aa.size or tt.size < 2 or not np.all(np.diff(tt) > 0):
                raise ValueError("warp table must be strictly increasing and matched")
            object.__setattr__(self, "table_t", tt)
            object.__setattr__(self, "table_a", aa)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            return t.copy() if t.ndim else float(t)
        if self.kind == "shift":
            return t + self.tau
        out = np.interp(t, self.table_t, self.table_a)
        return out if t.ndim else float(out)

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity" or (self.kind == "shift" and self.tau == 0.0)

    def reach(self, t_lo: float, t_hi: float) -> tuple:
        """Image interval of [t_lo, t_hi].  A tabulated a(t) is piecewise
        linear, so its extremes lie at t_lo, t_hi or a table knot between."""
        if self.kind == "identity":
            return (t_lo, t_hi)
        if self.kind == "shift":
            return (t_lo + self.tau, t_hi + self.tau)
        knots = self.table_t[(self.table_t > t_lo) & (self.table_t < t_hi)]
        vals = self(np.concatenate([[t_lo, t_hi], knots]))
        return (float(np.min(vals)), float(np.max(vals)))


identity_warp = TimeWarp("identity")


# ---------------------------------------------------------------------------
# CSV serialization: header t,v1,...,vd, one row per node, round-trip decimals


def write_csv(p: SampledPath, f) -> None:
    own = isinstance(f, (str,)) or hasattr(f, "__fspath__")
    fh = open(f, "w", encoding="utf-8") if own else f
    try:
        header = "t," + ",".join(f"v{j + 1}" for j in range(p.dim))
        fh.write(header + "\n")
        for t, row in zip(p.grid, p.values):
            fh.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    finally:
        if own:
            fh.close()


def read_csv(f, **path_kwargs) -> SampledPath:
    own = isinstance(f, (str,)) or hasattr(f, "__fspath__")
    fh = open(f, "r", encoding="utf-8") if own else f
    try:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "t" or any(c != f"v{j + 1}" for j, c in enumerate(cols[1:])):
            raise ValueError(f"unexpected path CSV header: {header!r}")
        grid, rows = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ValueError(f"malformed path CSV row: {line!r}")
            grid.append(float(parts[0]))
            rows.append([float(x) for x in parts[1:]])
    finally:
        if own:
            fh.close()
    return SampledPath(np.array(grid), np.array(rows), **path_kwargs)
