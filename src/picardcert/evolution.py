"""Evolution families, resolvent operators and the two application demos.

An evolution family propagates x' = A(t) x between two times, and builds the
cell propagators of the solver's recurrence, by one routine per dimension: a
scalar family in closed form, U(t, s) = exp(int_s^t a), from Gauss sums of
a(t) over the cells, read by one generator call on the array of all their
nodes and edges; a family with d >= 2 by an adaptive ODE integrator, one
time per call.  A resolvent operator propagates a linear equation with
memory, R'(t) = A R(t) + int_0^t B(t-s) R(s) ds.  Its memory kernel is an
exponential sum B(t) = sum_k exp(-r_k t) G_k, so R is a block of the matrix
exponential of a constant augmented generator; R is tabulated on a uniform
grid by powers of one step of that exponential, which also gives its cell
propagators, and its defining-equation residual is checked on test
vectors.  Either propagator carries one decay record, a
StabilityCertificate: a declared bound M exp(-delta t), M >= 1 and delta >
0, checked on sampled pairs (t, s) of a family or rows of a resolvent's norm
table.  The exponential, `expm`, is numpy's alone: a Taylor polynomial
scaled and squared in np.longdouble, whose 64-bit mantissa on x86-64 makes
nearly every entry of a step the correctly rounded double.  Where longdouble
is plain double it is only as accurate as a double-precision Pade.

The demos assemble the heat-conduction-with-memory problem (second-order
equation reduced to a first-order block system with a fixed
exponential-relaxation memory factor) and the delayed parabolic problem,
wired into the certify and solve pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import legendre

from .kernels import KernelSpec, form_evaluator
from .paths import TAIL_CONSTANT, SampledPath
from .quadrature import DecayEnvelope
from .solver import (_CELL_ORDER, _CellTable, _cell_nodes, _scan, _sweep,
                     _uniform_step, solve_ivp)

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
_CHUNK_CELLS = 50      # cells between restarts of the fundamental matrix at I
_CHUNK_FLOOR = 1e-3    # least singular value a chunk's fundamental matrix may reach
_SCALAR_PIECE = 0.025  # widest piece of [s, t] in a scalar propagate_matrix
# a scalar cell passes when its quadrature estimate is at most this much times
# 1 + |a| |t| over the cell (the rounding of t alone moves the exponent by
# about eps |a| |t|); one over it is cut at its Gauss nodes, and a piece over
# it in turn, at most _SPLIT_DEPTH times deep and _SPLIT_CUTS times per cell
_SCALAR_TOL = 1e-14
_SPLIT_DEPTH = 40
_SPLIT_CUTS = 200
_EXP_MAX = float(np.log(np.finfo(float).max))
# least tolerance of the resolvent residual check: an exact table still shows
# the check's own stencil and spline error (9e-12 to 5e-11 at step 0.01)
_RESOLVENT_TOL_FLOOR = 1e-9
_CHECK_VECTORS = 10    # test vectors of the resolvent residual check
_CHECK_TIMES = 41      # interior grid times of the resolvent residual check
# a sampled stability slack this far below zero still passes: equality cases
# sit at zero up to the propagation accuracy
_STABILITY_MARGIN = 1e-12
_TAYLOR_DEGREE = 18    # expm's Taylor degree, on matrices of 1-norm <= 1/2


class PropagationError(RuntimeError):
    pass


def expm(A) -> np.ndarray:
    """The matrix exponential of a (n, n) matrix or of each of a (k, n, n)
    stack, by scaling and squaring of a Taylor polynomial (Moler and Van
    Loan, SIAM Review 45, 2003) carried in np.longdouble.

    Each matrix is scaled by 2^-s to 1-norm at most 1/2, where the
    degree-18 Taylor remainder is about 2e-23; the polynomial is summed by
    Horner's rule and squared s times, and the result is rounded to float64
    once.  With the 64-bit mantissa of x86-64's longdouble, an entry of a
    matrix that needs few squarings, such as a step of the resolvent table,
    is off by a few longdouble ulps before that rounding: it is the
    correctly rounded double unless its exact value lies within about 1/256
    ulp of a midpoint between two doubles (scipy's double-precision Pade is
    typically one ulp off).  Where longdouble is plain double, this is only
    as accurate as a double-precision Pade.  A nan or inf entry, an
    infinite 1-norm and an overflowing result raise PropagationError.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(A).sum(axis=-2).max(axis=-1)
        if not np.isfinite(norm).all():
            raise PropagationError("matrix exponential of a matrix with a nan "
                                   "or inf entry or an infinite 1-norm")
        s = np.ceil(np.log2(np.maximum(2.0 * norm, 1.0))).astype(int)
        X = np.ldexp(A.astype(np.longdouble), -s[..., None, None])
        eye = np.eye(A.shape[-1], dtype=np.longdouble)
        E = eye + X / _TAYLOR_DEGREE
        for k in range(_TAYLOR_DEGREE - 1, 0, -1):
            E = eye + X @ E / k
        for j in range(int(s.max(initial=0))):
            square = s > j
            E[square] = E[square] @ E[square]
        E = E.astype(float)
    if not np.isfinite(E).all():
        raise PropagationError("matrix exponential overflows")
    return E


@dataclass
class StabilityCertificate:
    """The decay record of an evolution family or a resolvent P: a declared
    bound |P| <= M exp(-delta sep), sep = t - s for U(t, s) and t for R(t),
    and its worst slack over n_samples sampled (sep, |P|) pairs.  Samples
    can refute the bound (passed False), never prove it between them."""

    M: float
    delta: float
    worst_slack: float
    n_samples: int
    lines: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -_STABILITY_MARGIN


def _scalar_rules():
    """On [-1, 1] with the _CELL_ORDER Gauss nodes x_k, three maps of the
    values at the nodes: to their interpolant's highest Legendre
    coefficient, to the interpolant at -1 and 1, and by P[k, i] =
    int_{x_k}^1 l_i of the Lagrange basis l_i to int_{x_k}^1 of the
    interpolant."""
    x, w = legendre.leggauss(_CELL_ORDER)
    # Legendre coefficients of the interpolant, C[n, i] for node value i
    C = (legendre.legvander(x, _CELL_ORDER - 1) * w[:, None]).T \
        * (np.arange(_CELL_ORDER) + 0.5)[:, None]
    F = legendre.legint(C)
    return (C[-1], legendre.legvander(np.array([-1.0, 1.0]), _CELL_ORDER - 1) @ C,
            legendre.legval(1.0, F) - legendre.legvander(x, _CELL_ORDER) @ F)


_TOP_COEF, _ENDS, _PARTIAL = _scalar_rules()


def _settled(nodes, weights, values, ends):
    """Per cell, whether the quadrature estimate of the values at its Gauss
    nodes and edges passes: the width times the larger of the interpolant's
    highest Legendre coefficient and its misfit at the edges.  A jump
    between an edge and the nearest node shows only in the misfit.  nan
    fails."""
    width = weights.sum(axis=1)
    reach = np.abs(nodes).max(axis=1) + width
    misfit = np.abs(np.column_stack([values @ _TOP_COEF, ends - values @ _ENDS.T]))
    return misfit.max(axis=1) * width \
        <= _SCALAR_TOL * (1.0 + reach * np.abs(values).max(axis=1))


def _exp(x, times):
    """exp(x), or PropagationError at the first time whose exponent
    overflows."""
    over = x > _EXP_MAX
    if over.any():
        raise PropagationError(
            "propagation failed: exp(int a) overflows at t = "
            f"{np.broadcast_to(times, x.shape)[over][0]:.17g}")
    return np.exp(x)


@dataclass
class EvolutionFamily:
    """Two-parameter propagator for x' = A(t) x, A(t) a d x d matrix.

    One routine, `_cells`, builds the propagators for propagate_matrix and
    for cell_table alike.  A scalar family (d = 1) is exact up to quadrature,
    U(t, s) = exp(int_s^t a), read from a at the Gauss nodes of every cell;
    a family with d >= 2 is integrated by an adaptive high-order stepper.
    The generator takes an ndarray of times t of any shape, 0-d included,
    and returns values that broadcast to t.shape + (d, d); the stepper of a
    family with d >= 2 passes it one float time.  The
    sectorial-regularity hypothesis on A(t) is not represented: its
    checkable content is the existence and stability of the propagator,
    which is verified directly.
    """

    generator: Callable
    dim: int = 1
    stability: Optional[StabilityCertificate] = None
    label: str = ""
    # cell propagators of the solver's recurrence, keyed by grid
    cell_tables: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def propagate_matrix(self, t: float, s: float) -> np.ndarray:
        """The full matrix U(t, s); a scalar family sums its exponent over
        pieces of [s, t] no wider than _SCALAR_PIECE."""
        if t < s:
            raise PropagationError(f"propagate needs t >= s (got t={t}, s={s})")
        if t == s:
            return np.eye(self.dim)
        if self.dim == 1:
            edges = np.linspace(s, t, int(np.ceil((t - s) / _SCALAR_PIECE)) + 1)
            _, _, total, _ = self._exponents(edges)
            return _exp(total.sum(), t).reshape(1, 1)
        return self._cells(np.array([s, t])).Phi[0]

    def _read(self, times) -> np.ndarray:
        """a(t) of a scalar family at every time, by one generator call on
        the whole array."""
        shape = times.shape + (1, 1)
        out = np.asarray(self.generator(times), dtype=float)
        try:
            values = np.array(np.broadcast_to(out, shape)[..., 0, 0])
        except ValueError:
            raise PropagationError(
                f"the generator returned shape {out.shape} for times of "
                f"shape {times.shape}; it must broadcast to {shape}") from None
        bad = ~np.isfinite(values)
        if bad.any():
            raise PropagationError("propagation failed: the generator is not "
                                   f"finite at t = {times[bad][0]:.17g}")
        return values

    def _split(self, lo, hi, ends, nodes, values) -> np.ndarray:
        """int a over each of the pieces of [lo, hi] between its edges and
        its Gauss nodes, whose values are read; a piece whose estimate fails
        is cut at its own nodes in turn."""
        out = np.zeros(_CELL_ORDER + 1)
        stack, cuts = [(None, lo, hi, ends, nodes, values, 0)], 0
        while stack:
            top, a, b, ends, nodes, values, depth = stack.pop()
            if depth == _SPLIT_DEPTH or cuts == _SPLIT_CUTS:
                raise PropagationError(
                    "propagation failed: the integral of the generator does "
                    f"not settle near t = {0.5 * (a + b):.17g}")
            cuts += 1
            edges = np.concatenate([[a], nodes, [b]])
            known = np.concatenate([ends[:1], values, ends[1:]])
            known = np.column_stack([known[:-1], known[1:]])
            sub_nodes, sub_weights = _cell_nodes(edges)
            sub_values = self._read(sub_nodes)
            settled = _settled(sub_nodes, sub_weights, sub_values, known)
            for k in range(_CELL_ORDER + 1):
                piece = k if top is None else top
                if settled[k]:
                    out[piece] += sub_weights[k] @ sub_values[k]
                else:
                    stack.append((piece, edges[k], edges[k + 1], known[k],
                                  sub_nodes[k], sub_values[k], depth + 1))
        return out

    def _exponents(self, edges):
        """For a scalar family, the Gauss nodes and weights of every cell
        between consecutive edges, int_{t_j}^{t_{j+1}} a and, per node s_jk,
        int_{s_jk}^{t_{j+1}} a.  A cell whose estimate fails is split."""
        nodes, weights = _cell_nodes(edges)
        values, at_edges = self._read(nodes), self._read(edges)
        ends = np.column_stack([at_edges[:-1], at_edges[1:]])
        total = (weights * values).sum(axis=1)
        partial = 0.5 * np.diff(edges)[:, None] * (values @ _PARTIAL.T)
        for j in np.flatnonzero(~_settled(nodes, weights, values, ends)):
            pieces = self._split(edges[j], edges[j + 1], ends[j], nodes[j],
                                 values[j])
            partial[j] = np.cumsum(pieces[:0:-1])[::-1]
            total[j] = pieces.sum()
        return nodes, weights, total, partial

    def _cells(self, edges) -> _CellTable:
        """Cell propagators between consecutive edges.

        A scalar family takes them from its exponents: Phi[j] =
        exp(int_{t_j}^{t_{j+1}} a) and VW[j, k] = w_jk exp(int_{s_jk}^{t_{j+1}}
        a).  Otherwise the fundamental matrix X(t) = U(t, t_c) restarts at I
        at the first edge of every chunk of cells, and U(t, s) = X(t)
        X(s)^{-1} inside a chunk.  A single pass loses all relative accuracy
        once X decays below the integrator's atol, so a chunk over which X
        nears that level is halved.
        """
        if self.dim == 1:
            nodes, weights, total, partial = self._exponents(edges)
            VW = weights * _exp(partial, edges[1:, None])
            return _CellTable(nodes, _exp(total, edges[1:])[:, None, None],
                              VW[..., None, None])
        nodes, weights = _cell_nodes(edges)
        (n, K), d = nodes.shape, self.dim
        Phi, VW = np.empty((n, d, d)), np.empty((n, K, d, d))

        def rhs(r, z):
            A = self.generator(r)
            if not np.isfinite(A).all():  # nan would loop the stepper
                raise PropagationError("propagation failed: the generator is "
                                       f"not finite at t = {r:.17g}")
            return (A @ z.reshape(d, d)).ravel()

        start, size = 0, _CHUNK_CELLS
        while start < n:
            stop = min(start + size, n)
            # X at t_j, s_j1, ..., s_jK of every cell, then at the last right edge
            times = np.append(np.column_stack([edges[start:stop],
                                               nodes[start:stop]]).ravel(),
                              edges[stop])
            sol = solve_ivp(rhs, (times[0], times[-1]), np.eye(d).ravel(),
                            method="DOP853", t_eval=times, rtol=_ODE_RTOL,
                            atol=_ODE_ATOL)
            if not sol.success:
                raise PropagationError(f"propagation failed: {sol.message}")
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

    def cell_table(self, grid) -> _CellTable:
        """Propagators over the cells of grid, kept per grid."""
        key = grid.tobytes()
        table = self.cell_tables.get(key)
        if table is None:
            table = self.cell_tables[key] = self._cells(grid)
        return table


def constant_family(A, label: str = "constant") -> EvolutionFamily:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return EvolutionFamily(lambda t: A, dim=A.shape[0], label=label)


def scalar_family(a_of_t: Callable, label: str = "scalar") -> EvolutionFamily:
    """The family of x' = a(t) x.  a_of_t takes an ndarray of times and
    returns a(t) at each, or one value that broadcasts to them all."""
    return EvolutionFamily(
        lambda t: np.asarray(a_of_t(t), dtype=float)[..., None, None],
        dim=1, label=label)


def stability_sample_pairs(window, n: int = 60, max_sep: float = 6.0):
    """Deterministic (t, s) pairs with t >= s inside the window."""
    lo, hi = window
    ts = np.linspace(lo, hi, n)
    seps = 0.25 + (max_sep - 0.25) * np.mod(np.arange(n) * 0.6180339887498949, 1.0)
    return [(float(min(t + sep, hi + max_sep)), float(t))
            for t, sep in zip(ts, seps)]


def _stability_record(seps, norms, M, delta) -> StabilityCertificate:
    """The decay record of a declared bound |P| <= M exp(-delta sep) on
    sampled separations and propagator norms.  M must be finite and at least
    1 (U(t, t) = R(0) = I), delta finite and positive; else ValueError."""
    M, delta = float(M), float(delta)
    if not (1.0 <= M < np.inf and 0.0 < delta < np.inf):
        raise ValueError("a decay bound M exp(-delta t) needs a finite M >= 1 "
                         f"and a finite delta > 0, got M = {M:.12g}, "
                         f"delta = {delta:.12g}")
    worst = float(np.min(M * np.exp(-delta * np.asarray(seps)) - norms))
    lines = []
    verdict = "pass" if worst >= -_STABILITY_MARGIN else "FAIL: growth detected"
    if -_STABILITY_MARGIN <= worst < 0.0:
        lines.append("worst slack within propagation accuracy of zero "
                     "(tight bound)")
    lines.append(f"stability bound M = {M:.12g}, delta = {delta:.12g}; "
                 f"worst slack {worst:.6g} over {len(norms)} samples ({verdict})")
    return StabilityCertificate(M=M, delta=delta, worst_slack=worst,
                                n_samples=len(norms), lines=lines)


def certify_stability(fam: EvolutionFamily, pairs, M: float, delta: float
                      ) -> StabilityCertificate:
    """Check a declared bound |U(t,s)| <= M exp(-delta (t-s)) on sampled
    (t, s) pairs and attach the decay record to the family as fam.stability."""
    norms = np.array([np.linalg.norm(fam.propagate_matrix(t, s), ord=2)
                      for t, s in pairs])
    fam.stability = _stability_record([t - s for t, s in pairs], norms, M,
                                      delta)
    return fam.stability


# ---------------------------------------------------------------------------
# resolvent operators


@dataclass(frozen=True)
class MemoryKernel:
    """Convolution memory kernel B(t) (matrix valued) with optional
    exponential-sum structure B(t) = sum_k exp(-rate_k t) G_k."""

    matrix: Callable                     # u -> (d, d), vectorized over u
    dim: int
    exp_terms: Optional[tuple] = None    # ((G_k, rate_k), ...)
    label: str = ""


def exponential_memory(terms, dim: int, label: str = "exponential_sum") -> MemoryKernel:
    """terms: iterable of (G, rate) with G a (d, d) array."""
    terms = tuple((np.atleast_2d(np.asarray(G, dtype=float)), float(rate))
                  for G, rate in terms)

    def matrix(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape + (dim, dim))
        for G, rate in terms:
            out += np.exp(-rate * u)[..., None, None] * G
        return out

    return MemoryKernel(matrix, dim, exp_terms=terms, label=label)


def exponential_causal(G, rate: float, dim: int,
                       label: str = "exponential_causal") -> KernelSpec:
    """History kernel B(t, s) x = exp(-rate (t - s)) G x of the integral
    int_0^t B(t, s) u(s) ds, as a KernelSpec whose y argument is unused.

    Its envelope |G| exp(-rate |t - s|) dominates it on the unit state ball
    and is also its Lipschitz modulus.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    env = DecayEnvelope("exponential", float(np.linalg.norm(G, ord=2)), rate)

    def theta(u):
        return np.exp(-rate * np.abs(u))

    def fhat(s, x, y):
        return np.asarray(x) @ G.T

    return KernelSpec(form_evaluator(theta, fhat), env, env, dim=dim,
                      convolution=(theta, fhat), label=label)


@dataclass
class ResolventOperator:
    """Tabulated resolvent R(t) on a grid with interpolation.

    R(0) is the identity exactly.  stability is the decay record
    |R(t)| <= M exp(-delta t) of certify_decay; the paper's M exp(-gamma t/q)
    is delta = gamma/q.
    """

    A: np.ndarray
    memory: MemoryKernel
    grid: np.ndarray
    values: np.ndarray               # (n, d, d)
    stability: Optional[StabilityCertificate] = None
    residual_report: Optional[dict] = None
    label: str = ""
    # cell propagators of the solver's recurrence, keyed by grid
    cell_tables: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        d = self.A.shape[0]
        self.values[0] = np.eye(d)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """A_hat of the constant-coefficient system on (v, w_1, ..., w_K),
        v' = A v + sum_k w_k and w_k' = G_k v - r_k w_k, for the memory
        B(t) = sum_k exp(-r_k t) G_k.  With v(0) = I and w(0) = 0, v = R:
        R(t) is the top-left d x d block of expm(t A_hat)."""
        if self.memory.exp_terms is None:
            raise ValueError("the resolvent needs a memory kernel with "
                             "exponential-sum terms")
        d = self.dim
        gen = np.zeros(((len(self.memory.exp_terms) + 1) * d,) * 2)
        gen[:d, :d] = self.A
        for k, (G, rate) in enumerate(self.memory.exp_terms, start=1):
            block = slice(k * d, (k + 1) * d)
            gen[:d, block] = np.eye(d)
            gen[block, :d] = G
            gen[block, block] = -rate * np.eye(d)
        return gen

    def cell_table(self, grid) -> _CellTable:
        """Propagators of the augmented generator over the cells of a
        uniform grid, kept per grid: expm(h A_hat) and w_k expm((h - o_k)
        A_hat) at the Gauss offsets o_k, shared by every cell."""
        key = grid.tobytes()
        table = self.cell_tables.get(key)
        if table is None:
            nodes, weights = _cell_nodes(grid)
            steps = np.append(grid[1] - grid[0], grid[1] - nodes[0])
            E = expm(steps[:, None, None] * self.generator)
            table = self.cell_tables[key] = _CellTable(
                nodes, E[0], weights[0][:, None, None] * E[1:])
        return table

    @cached_property
    def _path(self) -> SampledPath:
        """The table as a path of flattened d x d matrices, read by its
        cubic spline; reads up to 1e-12 past either end are clamped."""
        return SampledPath(self.grid, self.values.reshape(self.grid.size, -1),
                           tail_policy=TAIL_CONSTANT)

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tt = np.atleast_1d(t)
        if np.any(tt < self.grid[0] - 1e-12) or np.any(tt > self.grid[-1] + 1e-12):
            raise PropagationError("resolvent evaluated outside its grid")
        return self._path.evaluate(t).reshape(t.shape + (self.dim, self.dim))

    __call__ = eval

    @cached_property
    def _norm_rows(self):
        """(t, |R(t)|) at every max(1, n // 200)-th grid time: the samples
        of the decay record, 201 on a grid of 1001 or 2001 times."""
        every = slice(None, None, max(1, self.grid.size // 200))
        return self.grid[every], np.linalg.norm(self.values[every], ord=2,
                                                axis=(1, 2))

    def norm_table(self) -> np.ndarray:
        """Rows (t, |R(t)|, M exp(-delta t)) at the decay record's samples;
        the bound is nan without a record."""
        t, norms = self._norm_rows
        rec = self.stability
        bound = np.nan if rec is None else rec.M * np.exp(-rec.delta * t)
        return np.column_stack([t, norms, np.broadcast_to(bound, t.shape)])


def certify_decay(R: ResolventOperator, M: float, delta: float
                  ) -> StabilityCertificate:
    """Check a declared bound |R(t)| <= M exp(-delta t) on the rows of R's
    norm_table and attach the decay record to R as R.stability."""
    t, norms = R._norm_rows
    R.stability = _stability_record(t, norms, M, delta)
    return R.stability


def build_resolvent(A, memory: MemoryKernel, grid, tol: float = 1e-10
                    ) -> ResolventOperator:
    """Tabulate R of R' = A R + int_0^t B(t-s) R(s) ds on a uniform grid
    from t = 0.

    R(t_j) is the top-left block of Phi^j [I; 0], with Phi = expm(h A_hat)
    for the operator's augmented generator A_hat and the grid step h: the
    solver's blocked scan of Z_{j+1} = Phi Z_j from Z_0 = [I; 0].  The
    defining-equation residual is checked on deterministic test vectors and
    stored on the returned operator.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ValueError("resolvent grid must start at t = 0")
    _uniform_step(grid)  # refuses a grid that is not uniform
    op = ResolventOperator(A, memory, grid, np.empty((grid.size,) + A.shape),
                           label=memory.label)
    # expm(h A_hat) of the grid's own cell table, which the solver reuses
    Phi = op.cell_table(grid).Phi
    lift = np.eye(Phi.shape[0], op.dim)
    op.values[1:] = _scan(Phi, None, lift, n=grid.size - 1)[1:, :op.dim]

    op.residual_report = resolvent_residual(op)
    tol = max(tol, _RESOLVENT_TOL_FLOOR)
    if op.residual_report["max_residual"] > tol:
        raise PropagationError(
            f"resolvent residual {op.residual_report['max_residual']:.3g} "
            f"exceeds tolerance {tol:g}")
    return op


# order-6 central first-derivative stencil on a uniform grid
_D6 = np.array([-1.0 / 60, 3.0 / 20, -3.0 / 4, 0.0, 3.0 / 4, -3.0 / 20, 1.0 / 60])


def resolvent_residual(op: ResolventOperator) -> dict:
    """Max defining-equation residual |R'y - A R y - int B(t-s) R(s) y ds|
    over deterministic test vectors and interior check times.

    The derivative uses an order-6 central stencil and the history integral
    the solver's panel sweep on the interpolated table, so the check's own
    discretisation floor sits well below the stepping accuracy it audits.
    """
    d = op.dim
    vecs = [np.eye(d)[k] for k in range(min(d, _CHECK_VECTORS))]
    k = 0
    while len(vecs) < _CHECK_VECTORS:
        v = np.cos(np.arange(d) + 0.7 * k + 0.3)
        vecs.append(v / np.linalg.norm(v))
        k += 1
    n = op.grid.size
    h = float(op.grid[1] - op.grid[0])
    # the truncated linspace is nondecreasing: dropping repeats is np.unique,
    # which under numpy 2 imports numpy.ma
    idx = np.linspace(3, n - 4, _CHECK_TIMES).astype(int)
    idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    t = op.grid[idx]
    conv_int = _sweep(t, 0.0, t,
                      lambda T, S: op.memory.matrix(T - S) @ op.eval(S))
    deriv = np.tensordot(op.values[idx[:, None] + np.arange(-3, 4)], _D6,
                         axes=(1, 0)) / h
    res = (deriv - op.A @ op.values[idx] - conv_int) @ np.array(vecs).T
    return {"max_residual": float(np.max(np.linalg.norm(res, axis=1))),
            "n_vectors": len(vecs), "n_check_times": len(idx)}


# ---------------------------------------------------------------------------
# heat conduction with memory (demo assembly)


@dataclass
class HeatDemoReport:
    M: float
    gamma: float
    p: float
    q: float
    r1_lines: list
    r2_lines: list
    r2_passed: bool
    decay_table: np.ndarray
    decay_passed: bool
    ball_lines: list
    ball_passed: bool
    notes: list

    def to_text(self) -> str:
        lines = [f"semigroup constants: M = {self.M:.9g}, gamma = {self.gamma:.9g}, "
                 f"p = {self.p:g}, q = {self.q:g}"]
        lines += self.r1_lines + self.r2_lines
        lines.append(f"resolvent decay bound holds at all sampled t: "
                     f"{'yes' if self.decay_passed else 'NO'}")
        lines += self.ball_lines
        lines += ["note: " + n for n in self.notes]
        return "\n".join(lines) + "\n"


def dirichlet_laplacian(n: int) -> np.ndarray:
    """Standard 3-point stencil on (0, 1) with n interior points."""
    h = 1.0 / (n + 1)
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    return (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / h ** 2


# the demo's thermal relaxation functions alpha(t) = alpha_eq + alpha_amp
# exp(-alpha_rate t) and beta(t) likewise, its decay exponents p and q, and the
# tolerance of its resolvent residual check
_HEAT_ALPHA_EQ, _HEAT_ALPHA_AMP, _HEAT_ALPHA_RATE = 1.0, 2e-4, 2.0
_HEAT_BETA_EQ, _HEAT_BETA_AMP, _HEAT_BETA_RATE = 2.0, 5e-4, 2.0
_HEAT_P, _HEAT_Q = 2.0, 2.0
_HEAT_RESOLVENT_TOL = 1e-7


def heat_demo_assemble(n: int = 4, a_path: SampledPath = None,
                       b_func: Callable = None, b_lipschitz: float = 0.0,
                       horizon: float = 10.0, grid_step: float = 0.005):
    """Assemble the heat-conduction-with-memory problem on the unit interval.

    The thermal relaxation functions are fixed: alpha(t) = 1 + 2e-4 exp(-2t)
    and beta(t) = 2 + 5e-4 exp(-2t), with decay exponents p = q = 2.  The
    second-order equation in (temperature, velocity) becomes a first-order
    2n x 2n block system with memory factor B(t) = F(t) A.  The forcing
    a(t) b(theta) acts on the velocity block when both a_path and b_func are
    given; the initial temperature is sin(pi x) and the nonlocal map is zero.
    Returns the wired problem spec, the ball radius rho, and a report auditing
    the decay/regularity conditions and the ball inequality for rho.
    """
    from . import problem as pb
    from .certify import compute_base_point

    alpha_amp, alpha_rate = _HEAT_ALPHA_AMP, _HEAT_ALPHA_RATE
    beta_amp, beta_rate = _HEAT_BETA_AMP, _HEAT_BETA_RATE
    p, q = _HEAT_P, _HEAT_Q
    alpha0 = _HEAT_ALPHA_EQ + alpha_amp
    beta0 = _HEAT_BETA_EQ + beta_amp
    lap = dirichlet_laplacian(n)
    d = 2 * n
    A = np.zeros((d, d))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = alpha0 * lap
    A[n:, n:] = -beta0 * np.eye(n)

    # memory factor entries (scalar multiples of the identity on each block):
    #   F21(t) = -beta'(t) + beta(0) alpha'(t)/alpha(0),  F22(t) = alpha'(t)/alpha(0)
    c_a = alpha_rate * alpha_amp / alpha0          # -alpha'(t)/alpha(0) amplitude
    c_b = beta_rate * beta_amp                     # -beta'(t) amplitude
    E21 = np.zeros((d, d))
    E21[n:, :n] = np.eye(n)
    E22 = np.zeros((d, d))
    E22[n:, n:] = np.eye(n)
    memory = exponential_memory(
        [(c_b * E21 @ A, beta_rate),
         ((-beta0 * c_a * E21 - c_a * E22) @ A, alpha_rate)], d,
        label="heat_memory")

    # semigroup decay of the memoryless block system, certified by sampling
    eigs = np.linalg.eigvals(A)
    sigma = float(np.max(eigs.real))
    if sigma >= 0.0:
        raise ValueError("block operator is not exponentially stable")
    gamma = 0.9 * (-sigma)
    t_samp = np.linspace(0.0, max(horizon, 6.0 / gamma), 241)
    # e^{t_k A} on the even t-grid: the powers of one step's exponential
    powers = _scan(expm((t_samp[1] - t_samp[0]) * A), None, np.eye(d),
                   n=t_samp.size - 1)
    norms = np.linalg.norm(powers, ord=2, axis=(1, 2))
    M = float(np.max(norms * np.exp(gamma * t_samp))) * 1.02

    # regularity/decay audit of the relaxation family
    t_chk = np.linspace(0.0, horizon, 201)
    a_p = -alpha_rate * alpha_amp * np.exp(-alpha_rate * t_chk)   # alpha'
    a_pp = alpha_rate ** 2 * alpha_amp * np.exp(-alpha_rate * t_chk)
    b_p = -beta_rate * beta_amp * np.exp(-beta_rate * t_chk)
    b_pp = beta_rate ** 2 * beta_amp * np.exp(-beta_rate * t_chk)
    r1_vals = [np.max(np.abs(v) * np.exp(gamma * t_chk))
               for v in (a_p, a_pp, b_p, b_pp)]
    r1_ok = (alpha_rate >= gamma and beta_rate >= gamma
             and all(np.isfinite(r1_vals)))
    r1_lines = [
        "relaxation derivatives times exp(gamma t) bounded on samples: "
        + ", ".join(f"{v:.4g}" for v in r1_vals)
        + f" ({'pass' if r1_ok else 'FAIL'}; rates {alpha_rate:g}, {beta_rate:g} "
          f"vs gamma {gamma:.4g})",
    ]
    F21 = -b_p + beta0 * (a_p / alpha0)
    F22 = a_p / alpha0
    F21p = -b_pp + beta0 * (a_pp / alpha0)
    F22p = a_pp / alpha0
    bound1 = gamma * np.exp(-gamma * t_chk) / (p * M)
    bound2 = gamma ** 2 * np.exp(-gamma * t_chk) / (p * M) ** 2
    viol1 = float(np.max(np.maximum(np.abs(F21), np.abs(F22)) - bound1))
    viol2 = float(np.max(np.maximum(np.abs(F21p), np.abs(F22p)) - bound2))
    r2_ok = viol1 <= 0.0 and viol2 <= 0.0
    r2_lines = [
        f"memory-factor bound max(|F21|,|F22|) <= gamma e^(-gamma t)/(pM): "
        f"worst margin {-viol1:.4g} ({'pass' if viol1 <= 0 else 'FAIL'})",
        f"memory-factor derivative bound: worst margin {-viol2:.4g} "
        f"({'pass' if viol2 <= 0 else 'FAIL'})",
    ]

    grid = np.arange(0.0, horizon + grid_step / 2.0, grid_step)
    R = build_resolvent(A, memory, grid, tol=_HEAT_RESOLVENT_TOL)
    decay_ok = certify_decay(R, M, gamma / q).passed
    table = R.norm_table()

    # forcing f(t, u) = (0, a(t) b(theta)) on the velocity block
    x_nodes = np.arange(1, n + 1) / (n + 1)
    u0 = np.concatenate([np.sin(np.pi * x_nodes), np.zeros(n)])
    nonlocal_map = pb.zero_nonlocal(d)
    if b_func is None or a_path is None:
        f = pb.zero_nonlinearity(d)
        b_at_zero = 0.0
        a_norm_val = 0.0
    else:
        a_norm_val = float(np.max(np.abs(a_path.values)))

        def f_eval(t, x, y):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            theta = np.asarray(x)[..., :n]
            av = a_path.evaluate(t)[..., 0]
            out = np.zeros(t.shape + (d,))
            out[..., n:] = av[..., None] * b_func(theta)
            return out

        f = pb.Nonlinearity(f_eval, lipschitz=a_norm_val * b_lipschitz, dim=d,
                            label="heat_forcing")
        b_at_zero = float(np.linalg.norm(np.atleast_1d(b_func(np.zeros((1, n)))[0])))

    data_size = (np.linalg.norm(u0) + np.linalg.norm(nonlocal_map.at_zero)
                 + (q / gamma) * a_norm_val * b_at_zero)
    rho = float(max(1.2 * M * data_size, 1.0))

    spec = pb.ProblemSpec(
        variant=pb.RESOLVENT_NONLOCAL, dim=d, f=f, resolvent=R,
        nonlocal_map=nonlocal_map, u0=u0, report_window=(0.0, horizon),
        grid_step=grid_step, label="heat_memory_demo")

    y0 = compute_base_point(spec)
    base_sup = float(np.max(np.linalg.norm(y0.values, axis=1)))
    ball_rhs = M * data_size
    ball_ok = rho >= ball_rhs
    ball_lines = [
        f"ball size audit: rho = {rho:.9g} >= "
        f"M(|u0| + |h(0)| + (q/gamma)|a||b(0)|) = {ball_rhs:.9g}: "
        f"{'yes' if ball_ok else 'NO'}",
    ]
    notes = [
        "|a| is read as the split norm (recurrent plus vanishing part) of the "
        "forcing amplitude",
        "the admissible Lipschitz constants for the nonlocal and forcing maps "
        "depend on |y0|, which itself depends on their zero values; y0 is "
        "computed first and the constants audited afterwards",
    ]
    if b_lipschitz > 0.0 and a_norm_val > 0.0:
        h_budget = rho / (p * M * (rho + base_sup))
        b_budget = gamma * rho / (q * M * a_norm_val * (rho + base_sup))
        ball_lines.append(
            f"admissible constants: nonlocal <= {h_budget:.6g} "
            f"(declared {nonlocal_map.lipschitz:.6g}), forcing factor <= "
            f"{b_budget:.6g} (declared {b_lipschitz:.6g})")

    return spec, rho, HeatDemoReport(
        M=M, gamma=gamma, p=p, q=q, r1_lines=r1_lines, r2_lines=r2_lines,
        r2_passed=bool(r1_ok and r2_ok), decay_table=table, notes=notes,
        decay_passed=decay_ok, ball_lines=ball_lines, ball_passed=bool(ball_ok))


# ---------------------------------------------------------------------------
# delayed parabolic demo


def delay_demo_solve(fam: EvolutionFamily, f, tau: float, rho: float,
                     tol: float = 1e-8, report_window=(-10.0, 10.0),
                     grid_step: float = 0.02):
    """Certify and solve the delayed mild-solution problem
    x(t) = int U(t, s) f(s, x(s - tau)) ds over the delayed half-axis.

    The family must carry a stability certificate.  Returns (solver report,
    contraction certificate); raises if the certificate fails.
    """
    from . import problem as pb
    from .certify import certify_evolution
    from .solver import CertificationRequired, picard_solve

    if fam.stability is None:
        raise PropagationError("delay demo needs a certified evolution family")
    spec = pb.ProblemSpec(
        variant=pb.DELAY_PARABOLIC, dim=fam.dim, f=f, evolution=fam,
        delay=tau, report_window=report_window, grid_step=grid_step,
        quad_tol=min(tol, 1e-8), label="delay_demo")
    cert = certify_evolution(spec, rho, theorem="delay-final")
    if not cert.passed:
        raise CertificationRequired(
            f"delay demo certificate failed: {cert.violated}")
    return picard_solve(spec, cert, tol=tol), cert
