"""Evolution families, resolvent operators and the two application demos.

An evolution family propagates x' = A(t) x between two times with one
integrator, which also builds the cell propagators of the solver's
recurrence; its exponential-stability constants (M, delta) are declared,
checked on sampled pairs, and feed the evolution certificates.  A resolvent
operator propagates a linear equation with memory, R'(t) = A R(t) +
int_0^t B(t-s) R(s) ds.  Its memory kernel is an exponential sum B(t) =
sum_k exp(-r_k t) G_k, so R is a block of the matrix exponential of a
constant augmented generator; R is tabulated on a uniform grid by powers of
one step of that exponential, which also gives its cell propagators, and its
defining-equation residual is checked on test vectors.

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
from scipy.linalg import expm

from .kernels import KernelSpec, form_evaluator
from .paths import TAIL_CONSTANT, SampledPath
from .quadrature import DecayEnvelope
from .solver import (_CellTable, _cell_nodes, _scan, _sweep, _uniform_step,
                     solve_ivp)

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
_CHUNK_CELLS = 50      # cells between restarts of the fundamental matrix at I
_CHUNK_FLOOR = 1e-3    # least singular value a chunk's fundamental matrix may reach
# least tolerance of the resolvent residual check: an exact table still shows
# the check's own stencil and spline error (9e-12 to 5e-11 at step 0.01)
_RESOLVENT_TOL_FLOOR = 1e-9
_CHECK_VECTORS = 10    # test vectors of the resolvent residual check
_CHECK_TIMES = 41      # interior grid times of the resolvent residual check
# a sampled stability slack this far below zero still passes: equality cases
# sit at zero up to the propagation accuracy
_STABILITY_MARGIN = 1e-10


class PropagationError(RuntimeError):
    pass


@dataclass
class StabilityCertificate:
    M: float
    delta: float
    worst_slack: float
    n_samples: int
    lines: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -_STABILITY_MARGIN

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class EvolutionFamily:
    """Two-parameter propagator for x' = A(t) x, A(t) a d x d matrix.

    One routine, `_cells`, integrates the matrix equation with an adaptive
    high-order stepper, for propagate_matrix and for cell_table alike.  The
    sectorial-regularity hypothesis on A(t) is not represented: its
    checkable content is the existence and stability of the propagator,
    which is verified directly.
    """

    generator: Callable
    dim: int = 1
    stability: Optional[StabilityCertificate] = None
    label: str = ""
    # cell propagators of the solver's recurrence, keyed by lattice
    cell_tables: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def propagate_matrix(self, t: float, s: float) -> np.ndarray:
        """The full matrix U(t, s)."""
        if t < s:
            raise PropagationError(f"propagate needs t >= s (got t={t}, s={s})")
        if t == s:
            return np.eye(self.dim)
        return self._cells(np.array([s, t])).Phi[0]

    def _cells(self, edges) -> _CellTable:
        """Cell propagators between consecutive edges.

        The fundamental matrix X(t) = U(t, t_c) restarts at I at the first
        edge of every chunk of cells, and U(t, s) = X(t) X(s)^{-1} inside a
        chunk.  A single pass loses all relative accuracy once X decays
        below the integrator's atol, so a chunk over which X nears that
        level is halved.
        """
        nodes, weights = _cell_nodes(edges)
        (n, K), d = nodes.shape, self.dim
        Phi, VW = np.empty((n, d, d)), np.empty((n, K, d, d))

        def rhs(r, z):
            return (self.generator(r) @ z.reshape(d, d)).ravel()

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

    def cell_table(self, grid, run_in: int = 0) -> _CellTable:
        """Propagators over grid's cells and run_in cells of its step left
        of it, kept per lattice; a longer run-in extends the stored table to
        the left."""
        key = grid.tobytes()
        table = self.cell_tables.get(key)
        n = grid.size - 1 + run_in
        h = grid[1] - grid[0]
        if table is None:
            table = self._cells(np.concatenate(
                [grid[0] - h * np.arange(run_in, 0, -1), grid]))
        elif len(table) < n:
            have = len(table) - (grid.size - 1)
            new = self._cells(grid[0] - h * np.arange(run_in, have - 1, -1))
            table = _CellTable(np.concatenate([new.nodes, table.nodes]),
                               np.concatenate([new.Phi, table.Phi]),
                               np.concatenate([new.VW, table.VW]))
        self.cell_tables[key] = table
        return table.tail(n)


def constant_family(A, label: str = "constant") -> EvolutionFamily:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return EvolutionFamily(lambda t: A, dim=A.shape[0], label=label)


def scalar_family(a_of_t: Callable, label: str = "scalar") -> EvolutionFamily:
    return EvolutionFamily(lambda t: np.array([[a_of_t(t)]]), dim=1, label=label)


def cocycle_residual(fam: EvolutionFamily, triples) -> float:
    """max over (t, s, r) triples of |U(t,s)U(s,r) - U(t,r)| (2-norm)."""
    worst = 0.0
    for t, s, r in triples:
        uts = fam.propagate_matrix(t, s)
        usr = fam.propagate_matrix(s, r)
        utr = fam.propagate_matrix(t, r)
        worst = max(worst, float(np.linalg.norm(uts @ usr - utr, ord=2)))
    return worst


def stability_sample_pairs(window, n: int = 60, max_sep: float = 6.0):
    """Deterministic (t, s) pairs with t >= s inside the window."""
    lo, hi = window
    ts = np.linspace(lo, hi, n)
    seps = 0.25 + (max_sep - 0.25) * np.mod(np.arange(n) * 0.6180339887498949, 1.0)
    pairs = [(float(min(t + sep, hi + max_sep)), float(t))
             for t, sep in zip(ts, seps)]
    return pairs


def certify_stability(fam: EvolutionFamily, pairs, M: float, delta: float
                      ) -> StabilityCertificate:
    """Check a declared bound |U(t,s)| <= M exp(-delta (t-s)) on sampled
    pairs.  The certificate holds on the samples only; it is attached to the
    family for downstream use.
    """
    norms = np.array([np.linalg.norm(fam.propagate_matrix(t, s), ord=2)
                      for t, s in pairs])
    seps = np.array([t - s for t, s in pairs])
    worst = float(np.min(M * np.exp(-delta * seps) - norms))
    lines = []
    verdict = "pass" if worst >= -_STABILITY_MARGIN else "FAIL: growth detected"
    if -_STABILITY_MARGIN <= worst < 0.0:
        lines.append("worst slack within propagation accuracy of zero "
                     "(tight bound)")
    lines.append(f"stability bound M = {M:.12g}, delta = {delta:.12g}; "
                 f"worst slack {worst:.6g} over {len(pairs)} samples ({verdict})")
    cert = StabilityCertificate(M=float(M), delta=float(delta),
                                worst_slack=worst, n_samples=len(pairs),
                                lines=lines)
    fam.stability = cert
    return cert


# ---------------------------------------------------------------------------
# resolvent operators


@dataclass(frozen=True)
class MemoryKernel:
    """Convolution memory kernel B(t) (matrix valued) with optional
    exponential-sum structure B(t) = sum_k exp(-rate_k t) G_k."""

    matrix: Callable                     # u -> (d, d), vectorized over u
    dim: int
    exp_terms: Optional[tuple] = None    # ((G_k, rate_k), ...)
    envelope: Optional[DecayEnvelope] = None
    label: str = ""

    def __call__(self, u):
        return self.matrix(u)


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

    amp = sum(float(np.linalg.norm(G, ord=2)) for G, _ in terms)
    rate = min(r for _, r in terms)
    env = DecayEnvelope("exponential", amp, rate) if amp > 0 else None
    return MemoryKernel(matrix, dim, exp_terms=terms, envelope=env, label=label)


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

    R(0) is the identity exactly; decay stores certified (M, gamma, q) with
    the bound |R(t)| <= M exp(-gamma t / q) when available.
    """

    A: np.ndarray
    memory: MemoryKernel
    grid: np.ndarray
    values: np.ndarray               # (n, d, d)
    decay: Optional[tuple] = None    # (M, gamma, q)
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

    def norm_table(self) -> np.ndarray:
        """Rows (t, |R(t)|, decay bound) at about 200 grid times, for the
        decay audit."""
        every = slice(None, None, max(1, self.grid.size // 200))
        t = self.grid[every]
        norms = np.linalg.norm(self.values[every], ord=2, axis=(1, 2))
        if self.decay is None:
            return np.column_stack([t, norms, np.full(t.size, np.nan)])
        M, gamma, q = self.decay
        return np.column_stack([t, norms, M * np.exp(-gamma * t / q)])


def decay_violations(table: np.ndarray) -> np.ndarray:
    """The rows of a norm_table at which |R(t)| exceeds the decay bound by
    more than 1e-12.  A sampled audit: no row found does not prove the bound
    between the sampled times."""
    return table[table[:, 1] > table[:, 2] + 1e-12]


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
    h = _uniform_step(grid)
    op = ResolventOperator(A, memory, grid, np.empty((grid.size,) + A.shape),
                           label=memory.label)
    Phi = expm(h * op.generator)
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
    idx = np.unique(np.linspace(3, n - 4, _CHECK_TIMES).astype(int))
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
    base_sup: float
    notes: list = field(default_factory=list)

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
    norms = np.linalg.norm(expm(t_samp[:, None, None] * A), ord=2, axis=(1, 2))
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
    R.decay = (M, gamma, q)
    table = R.norm_table()
    decay_ok = not decay_violations(table).size

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

    report = HeatDemoReport(
        M=M, gamma=gamma, p=p, q=q, r1_lines=r1_lines, r2_lines=r2_lines,
        r2_passed=bool(r1_ok and r2_ok), decay_table=table,
        decay_passed=decay_ok, ball_lines=ball_lines, ball_passed=bool(ball_ok),
        base_sup=base_sup, notes=notes)
    return spec, rho, report


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
    report = picard_solve(spec, cert, tol=tol)
    return report, cert
