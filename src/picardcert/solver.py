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
products in the cell index, taken with one batched real FFT of numpy's at a
5-smooth length (the discrete convolution of Hairer, Lubich and Schlichte,
"Fast numerical solution of nonlinear Volterra convolution equations",
1985).  The lattice is padded by whole cells on the integral's side, so it
never truncates short of the span, and needs a uniform grid.  On the sinusoid-oracle config at step 0.02
it reads 30k points per application where per-node panels read 1.4M.

A kernel without a declared form is integrated by `_sweep`: Gauss-Legendre
panels over [lo_i, hi_i] at every node t_i, read in blocks of at most
`_SWEEP_BLOCK` points so that memory stays flat.  No built-in kernel takes
this path.

The forced evolution variants advance z' = A(t) z + g(t) one grid cell at a
time, z_{j+1} = U(t_{j+1}, t_j) z_j + (Gauss quadrature of U(t_{j+1}, s) g(s)
over the cell), as in Lubich's convolution quadrature.  For every
evolution variant the forcing g(s) = f(s, y(s - tau), 0), with tau = 0
without a delay, is read at the cell's Gauss nodes directly (collocation,
as in Brunner, "Collocation Methods for Volterra Integral and Related
Functional Differential Equations", 2004); a causal memory adds its history
integral, computed at the grid nodes and read at the Gauss nodes through
its spline, the one spline read of the forcing left.  The resolvent
variant is the same recurrence for the augmented system of its
exponential-sum memory, z = (v, w_1, ..., w_K) with z' = A_hat z + (g, 0),
and v is the image.  The tables come from `source.cell_table(grid)` of the
evolution family or the resolvent operator, which builds them once per
grid and keeps them for every sweep.  Either recurrence is solved by
`_scan`, a blocked associative scan: blocks of about sqrt(n) of the n cells
advance side by side, so a sweep takes about 2 sqrt(n) Python steps
instead of n.  The resolvent table of `evolution.build_resolvent` is
the same scan, unforced, from [I; 0].

The stopping rule converts the contraction certificate into a computable
error guarantee: iteration stops when the increment falls below
tol*(1-L)/L, which bounds the distance to the fixed point by tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.fft import irfft, rfft

from . import certify  # certify imports this module too; read at call time
from . import problem as pb
from .paths import (HALF_LINE, SampledPath, TAIL_CONSTANT, sup_distance,
                    zero_path)
from .quadrature import adaptive_integral, gauss_legendre

_PANEL_ORDER = 15
_PANEL_WIDTH = 0.5
_SWEEP_BLOCK = 1 << 11  # most points one integrand call of _sweep receives
_CELL_ORDER = 6        # Gauss-Legendre nodes per cell: recurrence and lattice


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call, so that
    importing the package loads no scipy module at all; only the
    propagators of evolution families with d >= 2 need it (a scalar
    family's are in closed form), and their first call pays the import of
    scipy's base and of scipy.integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


class CertificationRequired(RuntimeError):
    """picard_solve was asked to run without a passing certificate."""


class NonContractionError(RuntimeError):
    """Measured rates exceeded one repeatedly; iteration aborted."""


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
    lo, hi = spec.report_window
    reach = [spec.warp(key).reach(lo, hi) for key in ("a0", "a1", "a2")]
    return max([0.0] + [max(lo - r[0], r[1] - hi) for r in reach])


def _delay_margin(spec) -> float:
    """Left margin for delayed mild-solution problems: the one truncation of
    the history integral.

    The recurrence starts at the grid's first node from z = 0, where the
    fixed point may be as large as its a-priori bound B = M sup|f(., 0)| /
    (delta - M L_f), and constant-tail reads of the iterate left of the grid
    inject an error of the same size.  Its decay into the window is governed
    not by the stability rate delta but by the root of the delay majorant
    L_f M e^(omega tau) = delta - omega (omega = delta without feedback); the
    margin is sized so that an error of max(1, B) falls below the quadrature
    tolerance at the report edge.  sup|f(., 0)| is sampled, as
    ProblemSpec.sup_forcing_at_zero reads it.
    """
    tau = float(spec.delay)
    stab = getattr(spec.evolution, "stability", None)
    if stab is None:
        raise pb.ProblemError("delay problems need a certified evolution family")
    feedback = spec.effective_lipschitz() * stab.M
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
    bound = stab.M * spec.sup_forcing_at_zero() / (stab.delta - feedback)
    scale = 10.0 * max(1.0, stab.M / stab.delta) * max(1.0, bound)
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


def zero_start(spec: pb.ProblemSpec) -> SampledPath:
    kind = HALF_LINE if spec.variant not in pb.FULL_LINE_VARIANTS else "full_line"
    return zero_path(work_grid(spec), spec.dim, domain_kind=kind,
                     tail_policy=TAIL_CONSTANT)


def _iterate_like(y: SampledPath, values: np.ndarray) -> SampledPath:
    return SampledPath(y.grid, values, domain_kind=y.domain_kind,
                       tail_policy=TAIL_CONSTANT)


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
        raise ValueError("need a uniform increasing grid of at least two "
                         "nodes")
    return h


def next_fast_len(n: int) -> int:
    """The least 5-smooth integer at least n: a length at which pocketfft's
    real transforms are fast (scipy.fft.next_fast_len(n, real=True))."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _rfft(a, size):
    """The real FFT of a along axis 0, zero-padded to size; numpy pads
    through its n argument about 40 % slower than from a zeroed buffer."""
    padded = np.zeros((size,) + a.shape[1:])
    padded[:a.shape[0]] = a
    return rfft(padded, axis=0)


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
    size = next_fast_len(cells + M - 1)
    full = irfft(np.einsum("fk,fk...->f...", _rfft(taps, size),
                           _rfft(phi(nodes), size)), size, axis=0)
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


# ---------------------------------------------------------------------------
# operator application: evolution variants


@dataclass
class _CellTable:
    """Propagators of one evolution family, or of a resolvent's augmented
    system, over the cells of one lattice.

    For cell j = [t_j, t_{j+1}] with Gauss-Legendre nodes s_jk and weights
    w_jk: Phi[j] = U(t_{j+1}, t_j) and VW[j, k] = w_jk U(t_{j+1}, s_jk), so that
    z' = A(t) z + g(t) advances one cell by
    z_{j+1} = Phi[j] z_j + sum_k VW[j, k] g(s_jk).
    """

    nodes: np.ndarray    # (n, K)
    Phi: np.ndarray      # (n, d, d), or (d, d) shared by every cell
    VW: np.ndarray       # (n, K, d, d), or (K, d, d) shared by every cell

    def __len__(self):
        return self.nodes.shape[0]


def _cell_nodes(edges):
    """Gauss-Legendre nodes and weights of every cell, each (n, K)."""
    x, w = gauss_legendre(_CELL_ORDER)
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[:-1] + edges[1:]) + half * x[:, None]).T
    return nodes, half[:, None] * w


def _scan(Phi, b, z0, n: int = None) -> np.ndarray:
    """Every z_j of z_{j+1} = Phi_j z_j + b_j from z_0 = z0, j < n = len(b).

    Phi is one (D, D) matrix for every cell or one per cell, (n, D, D); the
    state z0 is (D,) or (D, c), and b is (n,) + z0.shape, or None for the
    unforced recurrence of n cells.  The recurrence is an associative scan
    (Kogge and Stone 1973; Blelloch 1990), taken in blocks of m = ceil(sqrt n)
    cells in about 2m Python steps: m steps advance every block's solution
    from zero and its transfer product at once, one step per block carries
    the state across the block edges, and one batched product writes z at
    every edge.  Unforced, the blocks' solutions from zero vanish and are
    not formed.
    """
    n = n if b is None else b.shape[0]
    D = z0.shape[0]
    c, shared = z0.size // D, Phi.ndim == 2
    m = max(1, int(np.ceil(np.sqrt(n))))
    blocks = -(-n // m)
    pad = blocks * m - n
    # padded cells carry b = 0 (and, one per cell, Phi = I); what they write
    # lies past z_n and is dropped
    if b is not None:
        b = np.concatenate([b.reshape(n, D, c), np.zeros((pad, D, c))]
                           ).reshape(blocks, m, D, c)
    Y = last = None
    if shared:
        # the transfer products are the powers of Phi, shared by every
        # block, and the blocks' solutions are the columns of one matrix
        P = np.empty((m + 1, D, D))
        P[0] = np.eye(D)
        for i in range(m):
            P[i + 1] = Phi @ P[i]
        if b is not None:
            Y = np.zeros((m + 1, D, blocks, c))
            for i in range(m):
                Y[i + 1] = (Phi @ Y[i].reshape(D, -1)).reshape(D, blocks, c)
                Y[i + 1] += b[:, i].swapaxes(0, 1)
            last = Y[m].swapaxes(0, 1)
        ends = np.broadcast_to(P[m], (blocks, D, D))
    else:
        Phi = np.concatenate([Phi, np.broadcast_to(np.eye(D), (pad, D, D))]
                             ).reshape(blocks, m, D, D)
        P = np.empty((blocks, m + 1, D, D))
        P[:, 0] = np.eye(D)
        for i in range(m):
            P[:, i + 1] = Phi[:, i] @ P[:, i]
        if b is not None:
            Y = np.zeros((blocks, m + 1, D, c))
            for i in range(m):
                Y[:, i + 1] = Phi[:, i] @ Y[:, i] + b[:, i]
            last = Y[:, m]
        ends = P[:, m]
    del b
    S = np.empty((blocks + 1, D, c))
    S[0] = z0.reshape(D, c)
    for k in range(blocks):
        S[k + 1] = ends[k] @ S[k]
        if last is not None:
            S[k + 1] += last[k]
    z = np.empty((blocks * m + 1, D, c))
    z[-1] = S[-1]
    if shared:
        edges = np.tensordot(P[:m], S[:-1], axes=(2, 1))
        if Y is not None:
            edges += Y[:m]
        z[:-1].reshape(blocks, m, D, c)[...] = edges.transpose(2, 0, 1, 3)
    else:
        edges = P[:, :m] @ S[:-1, None]
        if Y is not None:
            edges += Y[:, :m]
        z[:-1] = edges.reshape(-1, D, c)
    return z[:n + 1].reshape((n + 1,) + z0.shape)


def _cell_recurrence(table: _CellTable, z0, g) -> np.ndarray:
    """z at every cell edge of z' = A z + g from z0 at the first edge, with g
    given at the table's Gauss nodes, shape (n, K, d)."""
    if table.Phi.ndim == 2:
        K, d = table.VW.shape[:2]
        b = g.reshape(len(table), K * d) @ table.VW.swapaxes(1, 2).reshape(
            K * d, d)
    else:
        b = np.einsum("jkab,jkb->ja", table.VW, g)
    return _scan(table.Phi, b, z0)


def apply_mild_evolution(spec: pb.ProblemSpec, y: SampledPath) -> SampledPath:
    """Image of y under the mild-solution operator of the evolution variants,
    z(t) = U(t, t_0) z_0 + int U(t, s) g(s) ds with g(s) = f(s, y(s - tau), 0)
    (tau = 0 without a delay) plus the memory history, read at the cell
    table's Gauss nodes.  z_0 is u0 plus the nonlocal map of y; without u0,
    0 at the grid's first node, where _delay_margin sizes the grid so that
    the history cut off there is below the quadrature tolerance in the
    report window."""
    source = (spec.resolvent if spec.variant == pb.RESOLVENT_NONLOCAL
              else spec.evolution)
    if source is None:
        raise pb.ProblemError(
            f"variant {spec.variant!r} has no mild-evolution operator")
    table = source.cell_table(y.grid)
    s = table.nodes.ravel()
    x = y.evaluate(table.nodes - (spec.delay or 0.0)).reshape(s.size, spec.dim)
    g = np.asarray(spec.f(s, x, np.zeros_like(x))).reshape(
        table.nodes.shape + (spec.dim,))
    if spec.memory_kernel is not None:
        g = g + SampledPath(y.grid, _history(spec, y)).evaluate(table.nodes)
    z0 = np.zeros(spec.dim) if spec.u0 is None else spec.u0 + (
        spec.nonlocal_map(y) if spec.nonlocal_map is not None else 0.0)
    # [I; 0]: the resolvent's auxiliary states start at zero, unforced
    lift = np.eye(table.Phi.shape[-1], spec.dim)
    z = _cell_recurrence(table, lift @ z0, g @ lift.T)
    return _iterate_like(y, z[:, :spec.dim])


def apply_operator(spec: pb.ProblemSpec, y: SampledPath) -> SampledPath:
    """Image of y under the problem's fixed-point operator on y's grid: the
    advanced/delayed operator, the half-line operator (history integral from
    zero, forward integral to +infinity), or a mild-evolution operator."""
    if spec.variant in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY):
        return _integral_image(spec, y, -np.inf)
    if spec.variant == pb.HALF_LINE:
        return _integral_image(spec, y, 0.0)
    return apply_mild_evolution(spec, y)


# ---------------------------------------------------------------------------
# Picard iteration


def _restrict_to_report(spec, y: SampledPath) -> SampledPath:
    lo, hi = spec.report_window
    sub = y.restrict(lo - 1e-12, hi + 1e-12)
    return SampledPath(sub.grid, sub.values, domain_kind=y.domain_kind,
                       tail_policy="error")


def picard_solve(spec: pb.ProblemSpec, cert: certify.ContractionCertificate,
                 tol: float = 1e-8, start: SampledPath = None,
                 max_iter: int = 200, store_iterates: bool = False,
                 allow_uncertified: bool = False) -> SolverReport:
    """Iterate the operator from the spec's base point to the fixed point.

    Under a passing certificate the stopping rule guarantees the returned
    solution is within tol of the true fixed point in the uniform norm.
    Alternative starting paths are accepted only for uniqueness experiments;
    the theorems centre the ball at the base point.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    L = cert.L_gamma
    if not 0.0 <= L < np.inf:  # a negative one would stop after one sweep
        raise ValueError(f"certificate {cert.certificate_id} has contraction "
                         f"constant {L:.12g}, not finite and nonnegative")
    notes = []
    if not cert.passed:
        if not allow_uncertified:
            raise CertificationRequired(
                f"certificate {cert.certificate_id} did not pass "
                f"(violated: {cert.violated}); use allow_uncertified to override")
        notes.append("uncertified run: override recorded")
    if 0.0 < L < 1.0:
        threshold = tol * (1.0 - L) / L
    elif L == 0.0:
        threshold = np.inf
        notes.append("contraction constant 0: first increment is final")
    else:
        threshold = tol
        notes.append("contraction constant >= 1: plain increment stopping")

    if start is not None:
        notes.append("alternative start accepted (uniqueness experiment)")
    else:
        start = certify.compute_base_point(spec)
    # a copy, so that the spline the first sweep builds on it is freed with
    # the iterate, not kept by the spec's base point for the spec's lifetime
    y = _iterate_like(start, start.values)

    increments, rates = [], []
    iterates = [y] if store_iterates else None
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
        apriori = (L ** n_done) / (1.0 - L) * increments[0]
    else:
        apriori = increments[-1]
    res = sup_distance(y, apply_operator(spec, y))
    return SolverReport(
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
