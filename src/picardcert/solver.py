"""Integral-operator application and certified Picard iteration.

Full-line problems are solved on a finite working window chosen so that the
kernel-envelope tails beyond it contribute less than the quadrature
tolerance; the window is recorded in the report.  Warped state arguments that
reach outside the window are served by the constant-tail policy of the
current iterate, and the induced error is bounded by the envelope tail.

Every integral against the iterate (the delayed and advanced kernel terms,
both split kernels of a half-line problem, the causal history) is one call of
`_term`, which reads nothing but the kernel record.  Each kernel integral is
truncated at `kernel_span`, where the tail of the kernel's own envelope, which
dominates the whole kernel, falls below half the quadrature tolerance; the
history integral runs over all of [0, t].  A kernel that declares a
convolution form theta(t - s) * fhat(s, y(s), y(a(s))), as every built-in
family does, is one `_lattice` product: the `_CELL_ORDER` Gauss nodes of
every grid cell, the same nodes the evolution recurrence uses, carry fhat
once, and the integral at every node is a sum over node offsets of Toeplitz
products in the cell index, taken with one batched real FFT (the discrete
convolution of Hairer, Lubich and Schlichte, "Fast numerical solution of
nonlinear Volterra convolution equations", 1985).  The lattice is padded by
whole cells on the integral's side, so it never truncates short of the
span, and needs a uniform grid.  On the sinusoid-oracle config at step 0.02
it reads 30k points per application where per-node panels read 1.4M.

A kernel without a declared form is integrated by `_sweep`: Gauss-Legendre
panels over [lo_i, hi_i] at every node t_i, read in blocks of at most
`_SWEEP_BLOCK` points so that memory stays flat.  No built-in family takes
this path.

The forced evolution variants advance z' = A(t) z + g(t) one grid cell at a
time, z_{j+1} = U(t_{j+1}, t_j) z_j + (Gauss quadrature of U(t_{j+1}, s) g(s)
over the cell), as in Lubich's convolution quadrature; the propagators are
integrated once per evolution family and grid and reused by every sweep.
The resolvent variant is the same recurrence for the augmented system of its
exponential-sum memory, z = (v, w_1, ..., w_K) with z' = A_hat z + (g, 0):
its propagators are matrix exponentials of the constant generator A_hat,
the same for every cell, and v is the image.

The stopping rule converts the contraction certificate into a computable
error guarantee: iteration stops when the increment falls below
tol*(1-L)/L, which bounds the distance to the fixed point by tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from . import problem as pb
from .certify import ContractionCertificate
from .paths import (HALF_LINE, SampledPath, TAIL_CONSTANT, sup_distance,
                    sup_norm, zero_path)
from .quadrature import adaptive_integral, gauss_legendre

_PANEL_ORDER = 15
_PANEL_WIDTH = 0.5
_SWEEP_BLOCK = 1 << 13  # most points one integrand call of _sweep receives
_CELL_ORDER = 6        # Gauss-Legendre nodes per cell: recurrence and lattice
_CHUNK_CELLS = 50      # cells between restarts of the fundamental matrix at I
_CHUNK_FLOOR = 1e-3    # least singular value a chunk's fundamental matrix may reach


class CertificationRequired(RuntimeError):
    """picard_solve was asked to run without a passing certificate."""


class NonContractionError(RuntimeError):
    """Measured rates exceeded one repeatedly; iteration aborted."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the certified stopping rule fired."""


@dataclass
class SolverReport:
    solution: SampledPath
    solution_work: SampledPath
    iterations: int
    increment_norms: list
    measured_rates: list
    apriori_bound_at_stop: float
    residual: float
    certificate_id: str
    L_gamma: float
    work_window: tuple
    tol: float
    notes: list = field(default_factory=list)
    iterates: Optional[list] = None

    def to_text(self) -> str:
        lines = [
            f"certificate: {self.certificate_id}",
            f"iterations: {self.iterations}",
            f"contraction_constant: {self.L_gamma:.12g}",
            f"tolerance: {self.tol:g}",
            f"work_window: [{self.work_window[0]:g}, {self.work_window[1]:g}]",
            f"apriori_bound_at_stop: {self.apriori_bound_at_stop:.6g}",
            f"residual: {self.residual:.6g}",
            "increments: " + " ".join(f"{v:.6g}" for v in self.increment_norms),
            "rates: " + " ".join(f"{v:.6g}" for v in self.measured_rates),
        ]
        lines += ["note: " + n for n in self.notes]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# working grids


def _warp_margin(spec) -> float:
    extra = 0.0
    lo, hi = spec.report_window
    for key in ("a0", "a1", "a2"):
        w = spec.warp(key)
        r = w.reach(lo, hi)
        extra = max(extra, lo - r[0], r[1] - hi, 0.0)
    return extra


def _delay_margin(spec) -> float:
    """Left margin for delayed mild-solution problems.

    Constant-tail reads of the iterate left of the grid inject an O(1) error
    whose decay into the window is governed not by the stability rate delta
    but by the root of the delay majorant  L_f M e^(omega tau) = delta - omega;
    the margin is sized so that the injected error falls below the quadrature
    tolerance at the report edge.
    """
    tau = abs(float(spec.delay or 0.0))
    stab = getattr(spec.evolution, "stability", None)
    if stab is None:
        raise pb.ProblemError("delay problems need a certified evolution family")
    L = spec.effective_lipschitz()
    feedback = L * stab.M
    if feedback <= 0.0:
        return tau + 1.0
    if feedback >= stab.delta:
        raise pb.ProblemError(
            "delayed feedback at least as strong as the stability rate: the "
            "window-truncation error has no decaying majorant")
    lo_w, hi_w = 0.0, stab.delta
    for _ in range(200):
        mid = 0.5 * (lo_w + hi_w)
        if feedback * np.exp(mid * tau) < stab.delta - mid:
            lo_w = mid
        else:
            hi_w = mid
    omega = max(lo_w, 1e-6)
    scale = 10.0 * max(1.0, stab.M / stab.delta)
    return tau + np.log(scale / spec.quad_tol) / omega


def kernel_terms(spec: pb.ProblemSpec) -> tuple:
    """The (delayed, advanced) kernels of an integral variant, the split ones
    for half-line problems; each is None where absent or zero."""
    if spec.variant == pb.HALF_LINE:
        pair = (spec.split_delayed, spec.split_advanced)
    else:
        pair = (spec.kernel_delayed, spec.kernel_advanced)
    return tuple(None if k is None or k.is_zero else k for k in pair)


def kernel_span(spec: pb.ProblemSpec, kernel) -> float:
    """Separation beyond which the kernel's envelope tail is below half the
    quadrature tolerance, where its integral is truncated; 0 for no kernel."""
    if kernel is None:
        return 0.0
    return kernel.envelope.truncation_span(spec.quad_tol / 2.0)


def work_window(spec: pb.ProblemSpec) -> tuple:
    lo, hi = spec.report_window
    if spec.variant in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY, pb.HALF_LINE):
        delayed, advanced = kernel_terms(spec)
        extra = _warp_margin(spec)
        if spec.variant != pb.HALF_LINE:
            lo = lo - kernel_span(spec, delayed) - extra
        return (lo, hi + kernel_span(spec, advanced) + extra)
    if spec.variant == pb.DELAY_PARABOLIC:
        return (lo - _delay_margin(spec), hi)
    return (lo, hi)


def work_grid(spec: pb.ProblemSpec) -> np.ndarray:
    lo, hi = work_window(spec)
    h = spec.grid_step
    r_lo, r_hi = spec.report_window
    n_lo = int(np.ceil((r_lo - lo) / h - 1e-12))
    n_hi = int(np.ceil((hi - r_hi) / h - 1e-12))
    n_mid = int(round((r_hi - r_lo) / h))
    return r_lo + h * np.arange(-n_lo, n_mid + n_hi + 1)


def zero_start(spec: pb.ProblemSpec, grid=None) -> SampledPath:
    g = work_grid(spec) if grid is None else np.asarray(grid, dtype=float)
    kind = HALF_LINE if spec.variant not in pb.FULL_LINE_VARIANTS else "full_line"
    return zero_path(g, spec.dim, domain_kind=kind, tail_policy=TAIL_CONSTANT)


def _iterate_like(y: SampledPath, values: np.ndarray) -> SampledPath:
    return SampledPath(y.grid, values, domain_kind=y.domain_kind,
                       interpolation=y.interpolation, tail_policy=TAIL_CONSTANT)


# ---------------------------------------------------------------------------
# the quadrature: convolution lattice, and the sweep for kernels without a form


def _sweep(t, lo, hi, integrand) -> np.ndarray:
    """int_{lo_i}^{hi_i} integrand(t_i, s) ds at every node t_i.

    Each interval gets the rule of quadrature.panel_nodes(lo_i, hi_i,
    _PANEL_WIDTH, _PANEL_ORDER); an empty one integrates to zero.
    integrand(T, S) takes flat arrays of node times and points, whole panels
    and at most _SWEEP_BLOCK points per call, and returns one row per point.
    """
    t, lo, hi = np.broadcast_arrays(np.asarray(t, dtype=float), lo, hi)
    width = hi - lo
    count = np.ceil(np.maximum(width, 0.0) / _PANEL_WIDTH).astype(int)
    first = np.cumsum(count) - count
    owner = np.repeat(np.arange(t.size), count)
    k = np.arange(owner.size) - first[owner]
    step = width[owner] / count[owner]
    # the panel edges of np.linspace(lo, hi, count + 1)
    left = k * step + lo[owner]
    right = np.where(k + 1 == count[owner], hi[owner], (k + 1) * step + lo[owner])
    mid, half = 0.5 * (right + left), 0.5 * (right - left)
    x, w = gauss_legendre(_PANEL_ORDER)
    per_block = _SWEEP_BLOCK // _PANEL_ORDER
    panels = []
    for b in range(0, max(owner.size, 1), per_block):
        p = slice(b, b + per_block)
        S = (mid[p, None] + half[p, None] * x).ravel()
        vals = np.asarray(integrand(np.repeat(t[owner[p]], _PANEL_ORDER), S))
        vals = vals.reshape((-1, _PANEL_ORDER) + vals.shape[1:])
        panels.append(np.einsum("pk,pk...->p...", half[p, None] * w, vals))
    panels = np.concatenate(panels)
    out = np.zeros((t.size,) + panels.shape[1:])
    busy = count > 0
    out[busy] = np.add.reduceat(panels, first[busy], axis=0)
    return out


def _uniform_step(t) -> float:
    """The step of the uniform increasing grid t; any other grid is refused."""
    h = float(t[1] - t[0]) if t.size > 1 else 0.0
    if not h > 0.0 or not np.allclose(np.diff(t), h, rtol=0.0, atol=1e-9 * h):
        raise ValueError("the convolution lattice needs a uniform increasing "
                         "grid of at least two nodes")
    return h


def _lattice(t, span, delayed, theta, phi, start=-np.inf) -> np.ndarray:
    """int theta(t_i - s) phi(s) ds at every node t_i of the uniform grid t.

    The integral runs over the M = ceil(span / h) whole cells left of t_i
    (delayed; none of them before start, which must then be t's first node)
    or right of it (advanced), so it never stops short of span.  Every cell
    carries the Gauss nodes of _cell_nodes; phi takes them as an array
    (cells, K) and returns (cells, K, ...).  The cells reach M beyond the
    grid on the integral's side, where phi reads the iterate's constant tail.
    For each node offset o_k the sum over cells is a Toeplitz product in the
    cell index with the taps w_k theta(lag - o_k), and all K products are one
    batched real FFT.
    """
    n, h = t.size, _uniform_step(t)
    M = int(np.ceil(span / h))
    if not delayed:
        extra, first, lag0, out0 = M, t[0], (1 - M) * h, M
    elif start == -np.inf:
        extra, first, lag0, out0 = M, t[0] - M * h, h, M
    elif start == t[0]:
        extra, first, lag0, out0 = 0, t[0], h, 0
    else:
        raise ValueError(f"a lattice from {start:g} must start at the grid's "
                         f"first node, not {t[0]:g}")
    cells = n - 1 + extra
    nodes, weights = _cell_nodes(first + h * np.arange(cells + 1))
    taps = weights[0] * theta(lag0 + h * np.arange(M)[:, None]
                              - (nodes[0] - first))
    size = next_fast_len(cells + M - 1, real=True)
    full = irfft(np.einsum("fk,fk...->f...", rfft(taps, size, axis=0),
                           rfft(phi(nodes), size, axis=0)), size, axis=0)
    # node i reads entry i + out0 - 1; a lattice from t_0 leaves t_0 empty
    full = np.concatenate([np.zeros((1,) + full.shape[1:]), full])
    return full[out0:out0 + n]


def _term(t, kernel, span, delayed, start, states) -> np.ndarray:
    """int kernel(t_i, s, *states(s)) ds at every node t_i of t, over span on
    the delayed (no earlier than start) or advanced side of t_i.

    A kernel that declares a convolution form is integrated by the lattice
    rule, any other by _sweep.
    """
    if kernel.convolution is not None:
        theta, fhat = kernel.convolution
        return _lattice(t, span, delayed, theta,
                        lambda S: fhat(S, *states(S)), start)
    lo, hi = (np.maximum(start, t - span), t) if delayed else (t, t + span)
    return _sweep(t, lo, hi, lambda T, S: kernel.evaluator(T, S, *states(S)))


def _history(spec, y) -> np.ndarray:
    """History integral int_0^t B(t, s) y(s) ds on y's grid, untruncated."""
    t = y.grid
    return _term(t, spec.memory_kernel, t[-1] - t[0], True, 0.0,
                 lambda S: (y.evaluate(S), None))


# ---------------------------------------------------------------------------
# operator application: full-line and half-line integral equations


def _integral_image(spec, y, start) -> SampledPath:
    """Pointwise term of y plus its delayed and advanced kernel terms.

    Each kernel integral is truncated at kernel_span, and the delayed one
    starts no earlier than start.
    """
    t = y.grid
    out = np.zeros((t.size, spec.dim))
    if spec.f is not None and not spec.f.is_zero:
        a0 = spec.warp("a0")
        ya0 = y.values if a0.is_identity else y.evaluate(a0(t))
        out += np.asarray(spec.f(t, y.values, ya0))
    for kernel, key, delayed in zip(kernel_terms(spec), ("a1", "a2"),
                                    (True, False)):
        if kernel is None:
            continue
        warp = spec.warp(key)

        def states(S):
            ys = y.evaluate(S)
            return ys, (ys if warp.is_identity else y.evaluate(warp(S)))

        out += _term(t, kernel, kernel_span(spec, kernel), delayed, start,
                     states)
    return _iterate_like(y, out)


def apply_gamma(spec: pb.ProblemSpec, y: SampledPath) -> SampledPath:
    """Image of y under the advanced/delayed integral operator on y's grid."""
    return _integral_image(spec, y, -np.inf)


def apply_pi(spec: pb.ProblemSpec, y: SampledPath) -> SampledPath:
    """Image of y under the half-line operator: pointwise term, history
    integral from zero, and forward integral to +infinity."""
    return _integral_image(spec, y, 0.0)


# ---------------------------------------------------------------------------
# operator application: evolution variants


@dataclass
class _CellTable:
    """Propagators of one evolution family, or of a resolvent's augmented
    generator, over the cells of one lattice.

    For cell j = [t_j, t_{j+1}] with Gauss-Legendre nodes s_jk and weights
    w_jk: Phi[j] = U(t_{j+1}, t_j) and VW[j, k] = w_jk U(t_{j+1}, s_jk), so that
    z' = A(t) z + g(t) advances one cell by
    z_{j+1} = Phi[j] z_j + sum_k VW[j, k] g(s_jk).
    """

    nodes: np.ndarray    # (n, K)
    Phi: np.ndarray      # (n, d, d)
    VW: np.ndarray       # (n, K, d, d)

    def __len__(self):
        return self.nodes.shape[0]

    def tail(self, n: int) -> "_CellTable":
        """The last n cells."""
        return _CellTable(self.nodes[-n:], self.Phi[-n:], self.VW[-n:])


def _cell_nodes(edges):
    """Gauss-Legendre nodes and weights of every cell, each (n, K)."""
    x, w = np.polynomial.legendre.leggauss(_CELL_ORDER)
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[:-1] + edges[1:]) + half * x[:, None]).T
    return nodes, half[:, None] * w


def _build_cells(fam, edges) -> _CellTable:
    """Cell propagators between consecutive edges.

    The fundamental matrix X(t) = U(t, t_c) restarts at I at the first edge of
    every chunk of cells, and U(t, s) = X(t) X(s)^{-1} inside a chunk.  A
    single pass loses all relative accuracy once X decays below the
    integrator's atol, so a chunk over which X nears that level is halved.
    """
    nodes, weights = _cell_nodes(edges)
    n, K, d = nodes.shape[0], _CELL_ORDER, fam.dim
    Phi, VW = np.empty((n, d, d)), np.empty((n, K, d, d))

    def rhs(r, z):
        return (fam.generator(r) @ z.reshape(d, d)).ravel()

    start, size = 0, _CHUNK_CELLS
    while start < n:
        stop = min(start + size, n)
        # X at t_j, s_j1, ..., s_jK of every cell, then at the last right edge
        times = np.append(np.column_stack([edges[start:stop],
                                           nodes[start:stop]]).ravel(),
                          edges[stop])
        sol = solve_ivp(rhs, (times[0], times[-1]), np.eye(d).ravel(),
                        method="DOP853", t_eval=times, rtol=fam.rtol,
                        atol=fam.atol)
        if not sol.success:
            raise ConvergenceError(f"propagation failed: {sol.message}")
        X = sol.y.T.reshape(-1, d, d)
        m = stop - start
        if m > 1 and np.linalg.svd(X, compute_uv=False).min() < _CHUNK_FLOOR:
            size = m // 2
            continue
        left = X[:-1].reshape(m, K + 1, d, d)
        right = np.broadcast_to(X[K + 1::K + 1, None], left.shape)
        # U(t_{j+1}, r) = X(t_{j+1}) X(r)^{-1}, solved as X(r)^T U^T = X(t_{j+1})^T
        U = np.linalg.solve(left.swapaxes(-1, -2),
                            right.swapaxes(-1, -2)).swapaxes(-1, -2)
        Phi[start:stop] = U[:, 0]
        VW[start:stop] = U[:, 1:] * weights[start:stop, :, None, None]
        start = stop
    return _CellTable(nodes, Phi, VW)


def _cell_table(fam, grid, run_in: int = 0) -> _CellTable:
    """Propagators over grid's cells and run_in cells of its step left of it.

    Built once per (family, lattice) and kept on the family; a request for a
    longer run-in extends the stored table to the left.
    """
    key = (grid.tobytes(), fam.rtol, fam.atol)
    table = fam.cell_tables.get(key)
    n = grid.size - 1 + run_in
    h = grid[1] - grid[0]
    if table is None:
        table = _build_cells(fam, np.concatenate(
            [grid[0] - h * np.arange(run_in, 0, -1), grid]))
    elif len(table) < n:
        have = len(table) - (grid.size - 1)
        new = _build_cells(fam, grid[0] - h * np.arange(run_in, have - 1, -1))
        table = _CellTable(np.concatenate([new.nodes, table.nodes]),
                           np.concatenate([new.Phi, table.Phi]),
                           np.concatenate([new.VW, table.VW]))
    fam.cell_tables[key] = table
    return table.tail(n)


def _resolvent_cells(R, grid) -> _CellTable:
    """Propagators of the resolvent's augmented generator over the cells of
    a uniform grid: the same expm(h A_hat) and w_k expm((h - o_k) A_hat) at
    the Gauss offsets o_k of every cell."""
    gen = R.generator
    nodes, weights = _cell_nodes(grid)
    Phi = expm((grid[1] - grid[0]) * gen)
    VW = np.array([w * expm((grid[1] - s) * gen)
                   for s, w in zip(nodes[0], weights[0])])
    n = nodes.shape[0]
    return _CellTable(nodes, np.broadcast_to(Phi, (n,) + Phi.shape),
                      np.broadcast_to(VW, (n,) + VW.shape))


def _cell_recurrence(table: _CellTable, z0, g) -> np.ndarray:
    """z at every cell edge of z' = A z + g from z0 at the first edge, with g
    given at the table's Gauss nodes, shape (n, K, d)."""
    b = np.einsum("jkab,jkb->ja", table.VW, g)
    z = np.empty((len(table) + 1, z0.size))
    z[0] = z0
    for j, (phi, bj) in enumerate(zip(table.Phi, b)):
        z[j + 1] = phi @ z[j] + bj
    return z


def apply_mild_evolution(spec: pb.ProblemSpec, y: SampledPath) -> SampledPath:
    """Image of y under the mild-solution operator of the evolution variants."""
    t = y.grid
    if spec.variant in (pb.EVOLUTION_NONLOCAL, pb.RESOLVENT_NONLOCAL):
        z0 = spec.u0 + (spec.nonlocal_map(y) if spec.nonlocal_map is not None
                        else 0.0)
        forcing = np.asarray(spec.f(t, y.values, np.zeros_like(y.values)))

        if spec.variant == pb.EVOLUTION_NONLOCAL:
            if spec.memory_kernel is not None:
                forcing = _history(spec, y) + forcing
            table = _cell_table(spec.evolution, t)
        else:
            table = _resolvent_cells(spec.resolvent, t)
        g = CubicSpline(t, forcing, axis=0)(table.nodes)
        # [I; 0]: the resolvent's auxiliary states start at zero, unforced
        lift = np.eye(table.Phi.shape[-1], spec.dim)
        z = _cell_recurrence(table, lift @ z0, g @ lift.T)
        return _iterate_like(y, z[:, :spec.dim])

    if spec.variant == pb.DELAY_PARABOLIC:
        tau = float(spec.delay)
        stab = getattr(spec.evolution, "stability", None)
        if stab is None:
            raise pb.ProblemError("delay problems need a certified evolution "
                                  "family (stability constants fix the run-in)")
        # run-in long enough that the neglected history integral beyond it is
        # below the quadrature tolerance at every grid node, including the
        # first one; the current iterate serves reads beyond its grid by its
        # constant tail
        sup_f = np.max(np.linalg.norm(spec.f.at_zero(t), axis=1))
        sup_f = max(sup_f + spec.effective_lipschitz() * sup_norm(y), 1.0)
        span = np.log(max(stab.M * sup_f / (stab.delta * spec.quad_tol), 2.0)) \
            / stab.delta
        # snapped up to the lattice: starting earlier only shrinks the history
        run_in = int(np.ceil(span / (t[1] - t[0])))
        table = _cell_table(spec.evolution, t, run_in)
        s = table.nodes.ravel()
        x_del = y.evaluate(s - tau)
        g = np.asarray(spec.f(s, x_del, np.zeros_like(x_del)))
        vals = _cell_recurrence(table, np.zeros(spec.dim),
                                g.reshape(table.nodes.shape + (spec.dim,)))
        return _iterate_like(y, vals[run_in:])

    raise pb.ProblemError(f"variant {spec.variant!r} has no mild-evolution operator")


def apply_operator(spec: pb.ProblemSpec, y: SampledPath) -> SampledPath:
    if spec.variant in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY):
        return apply_gamma(spec, y)
    if spec.variant == pb.HALF_LINE:
        return apply_pi(spec, y)
    return apply_mild_evolution(spec, y)


def residual(spec: pb.ProblemSpec, y: SampledPath) -> float:
    """Uniform norm of y - (operator image of y) over y's grid."""
    return sup_distance(y, apply_operator(spec, y))


# ---------------------------------------------------------------------------
# Picard iteration


def _restrict_to_report(spec, y: SampledPath) -> SampledPath:
    lo, hi = spec.report_window
    sub = y.restrict(lo - 1e-12, hi + 1e-12)
    return SampledPath(sub.grid, sub.values, domain_kind=y.domain_kind,
                       interpolation=y.interpolation, tail_policy="error")


def picard_solve(spec: pb.ProblemSpec, cert: ContractionCertificate,
                 tol: float = 1e-8, start: SampledPath = None,
                 max_iter: int = 200, store_iterates: bool = False,
                 allow_uncertified: bool = False) -> SolverReport:
    """Iterate the operator from the certificate's base point to the fixed point.

    Under a passing certificate the stopping rule guarantees the returned
    solution is within tol of the true fixed point in the uniform norm.
    Alternative starting paths are accepted only for uniqueness experiments;
    the theorems centre the ball at the base point.
    """
    notes = []
    if not cert.passed:
        if not allow_uncertified:
            raise CertificationRequired(
                f"certificate {cert.certificate_id} did not pass "
                f"(violated: {cert.violated}); use allow_uncertified to override")
        notes.append("uncertified run: override recorded")
    L = max(cert.L_gamma, 0.0)
    if 0.0 < L < 1.0:
        threshold = tol * (1.0 - L) / L
    elif L == 0.0:
        threshold = np.inf
        notes.append("contraction constant 0: first increment is final")
    else:
        threshold = tol
        notes.append("contraction constant >= 1: plain increment stopping")

    if start is not None:
        y = _iterate_like(start, start.values)
        notes.append("alternative start accepted (uniqueness experiment)")
    elif cert.base_point is not None:
        y = _iterate_like(cert.base_point, cert.base_point.values)
    else:
        from .certify import compute_base_point
        y = compute_base_point(spec)

    increments, rates = [], []
    iterates = [y] if store_iterates else None
    first_inc = None
    bad_rate_streak = 0
    for n in range(1, max_iter + 1):
        y_next = apply_operator(spec, y)
        inc = sup_distance(y_next, y)
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 0.0:
            rate = inc / increments[-2]
            rates.append(rate)
            bad_rate_streak = bad_rate_streak + 1 if rate > 1.0 else 0
            if bad_rate_streak >= 3:
                raise NonContractionError(
                    f"measured rate exceeded 1 for 3 consecutive sweeps "
                    f"(last {rate:.4g}); operator is not contracting on this data")
        if first_inc is None:
            first_inc = inc
        y = y_next
        if store_iterates:
            iterates.append(y)
        if inc <= threshold:
            break
    else:
        raise ConvergenceError(
            f"stopping rule not reached within {max_iter} sweeps "
            f"(last increment {increments[-1]:.4g}, threshold {threshold:.4g})")

    n_done = len(increments)
    if 0.0 < L < 1.0:
        apriori = (L ** n_done) / (1.0 - L) * (first_inc or 0.0)
    else:
        apriori = increments[-1]
    res = sup_distance(y, apply_operator(spec, y))
    report = SolverReport(
        solution=_restrict_to_report(spec, y),
        solution_work=y,
        iterations=n_done,
        increment_norms=increments,
        measured_rates=rates,
        apriori_bound_at_stop=apriori,
        residual=res,
        certificate_id=cert.certificate_id,
        L_gamma=cert.L_gamma,
        work_window=(float(y.grid[0]), float(y.grid[-1])),
        tol=tol,
        notes=notes,
        iterates=iterates,
    )
    return report


# ---------------------------------------------------------------------------
# integral-inequality checker


@dataclass
class IntegralInequalityReport:
    rho: float
    hypothesis_violations: list
    worst_witness: Optional[dict]
    sup_v: float
    sup_a: float
    bound: float
    conclusion_holds: bool
    lines: list = field(default_factory=list)

    @property
    def hypothesis_holds(self) -> bool:
        return not self.hypothesis_violations

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"


def check_integral_inequality(a, w1, w2, v, grid, tol: float = 1e-8
                              ) -> IntegralInequalityReport:
    """Audit of the comparison inequality behind the boundedness transfer.

    a and v are vectorized scalar callables on the real line; w1 and w2 are
    decaying two-time weights (delayed and advanced side), and
    rho = sup_t (int w1 + int w2) is the sum of their masses, in closed form.
    When rho < 1, any v satisfying
    v(t) <= a(t) + int w1 v + int w2 v pointwise obeys sup v <= sup a/(1-rho).
    Both the pointwise hypothesis and the conclusion are checked on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    terms = [(w, orient) for w, orient in ((w1, "delayed"), (w2, "advanced"))
             if w is not None and w.amplitude > 0.0]
    rho = float(sum(w.total_mass() for w, _ in terms))
    if rho >= 1.0:
        raise ValueError(f"weight integrals reach {rho:.6g} >= 1; "
                         "the comparison bound does not apply")

    violations = []
    worst = None
    worst_gap = -np.inf
    for t in grid:
        lhs = float(np.asarray(v(np.array([t])))[0])
        rhs = float(np.asarray(a(np.array([t])))[0])
        for w, orient in terms:
            span = w.truncation_span(tol / 2.0)
            lo, hi = (t - span, t) if orient == "delayed" else (t, t + span)
            val, _ = adaptive_integral(
                lambda s: np.asarray(w(float(t), s)) * np.asarray(v(s)), lo, hi,
                tol / 2.0)
            rhs += float(val)
        gap = lhs - rhs
        if gap > tol:
            violations.append({"t": float(t), "lhs": lhs, "rhs": rhs})
        if gap > worst_gap:
            worst_gap = gap
            worst = {"t": float(t), "lhs": lhs, "rhs": rhs}

    sup_v = float(np.max(np.asarray(v(grid))))
    sup_a = float(np.max(np.asarray(a(grid))))
    bound = sup_a / (1.0 - rho)
    concl = sup_v <= bound + tol
    lines = [
        f"rho = {rho:.12g} (closed form)",
        f"hypothesis violations on grid: {len(violations)}",
        f"sup v = {sup_v:.12g}, bound sup a/(1-rho) = {bound:.12g}",
        f"conclusion holds: {'yes' if concl else 'NO'}",
    ]
    if violations:
        w0 = violations[0]
        lines.append(f"first witness: t = {w0['t']:g}, v = {w0['lhs']:.6g} > "
                     f"rhs = {w0['rhs']:.6g}")
    return IntegralInequalityReport(rho, violations, worst, sup_v, sup_a,
                                    bound, concl, lines)
