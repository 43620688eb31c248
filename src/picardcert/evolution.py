"""Evolution families, resolvent operators and the two application demos.

An evolution family propagates x' = A(t) x between two times; its
exponential-stability constants (M, delta) are certified by sampling and
feed the evolution certificates.  A resolvent operator propagates a linear
equation with memory, R'(t) = A R(t) + int_0^t B(t-s) R(s) ds.  Its memory
kernel is an exponential sum B(t) = sum_k exp(-r_k t) G_k, so R is a block
of the matrix exponential of a constant augmented generator; R is tabulated
on a uniform grid by powers of one step of that exponential, and its
defining-equation residual is checked on test vectors.

The demos assemble the heat-conduction-with-memory problem (second-order
equation reduced to a first-order block system with an exponential-relaxation
memory factor) and the delayed parabolic problem, wired into the certify and
solve pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from .kernels import KernelSpec, form_evaluator
from .paths import SampledPath
from .quadrature import DecayEnvelope, panel_nodes

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14


class PropagationError(RuntimeError):
    pass


@dataclass
class StabilityCertificate:
    M: float
    delta: float
    worst_slack: float
    n_samples: int
    empirical: bool = False
    numerical_margin: float = 1e-10
    lines: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # raw slack is reported; equality cases sit at zero up to the
        # propagation accuracy, which the margin absorbs
        return self.worst_slack >= -self.numerical_margin

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class EvolutionFamily:
    """Two-parameter propagator for x' = A(t) x, A(t) a d x d matrix.

    propagate_matrix integrates the matrix equation from s to t with an
    adaptive high-order stepper.  The sectorial-regularity hypothesis on
    A(t) is not represented: its checkable content is the existence and
    stability of the propagator, which is verified directly.
    """

    generator: Callable
    dim: int = 1
    rtol: float = _ODE_RTOL
    atol: float = _ODE_ATOL
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
        z0 = np.eye(self.dim).ravel()

        def rhs(r, z):
            return (self.generator(r) @ z.reshape(self.dim, self.dim)).ravel()

        sol = solve_ivp(rhs, (s, t), z0, method="DOP853",
                        rtol=self.rtol, atol=self.atol)
        if not sol.success:
            raise PropagationError(f"propagation failed: {sol.message}")
        return sol.y[:, -1].reshape(self.dim, self.dim)


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


def certify_stability(fam: EvolutionFamily, pairs, M: float = None,
                      delta: float = None, search: bool = False
                      ) -> StabilityCertificate:
    """Check |U(t,s)| <= M exp(-delta (t-s)) on sampled pairs.

    With a declared candidate (M, delta) the certificate is exact-on-samples;
    with search=True the smallest exponent supported by the samples is fitted
    and the certificate is labelled empirical.  The certificate is attached
    to the family for downstream use.
    """
    norms, seps = [], []
    for t, s in pairs:
        U = fam.propagate_matrix(t, s)
        norms.append(float(np.linalg.norm(U, ord=2)))
        seps.append(t - s)
    norms = np.array(norms)
    seps = np.array(seps)
    lines = []
    empirical = False
    if search or M is None or delta is None:
        empirical = True
        mask = seps > 0.5
        if mask.sum() >= 2:
            slope, _ = np.polyfit(seps[mask], np.log(np.maximum(norms[mask], 1e-300)), 1)
            delta = max(-float(slope) * 0.95, 1e-6)
        else:
            delta = 1e-6
        M = float(np.max(norms * np.exp(delta * seps))) * 1.000001
        lines.append(f"fitted empirically from {len(pairs)} samples")
    slack = M * np.exp(-delta * seps) - norms
    worst = float(np.min(slack))
    margin = 1e-10
    verdict = "pass" if worst >= -margin else "FAIL: growth detected"
    if -margin <= worst < 0.0:
        lines.append("worst slack within propagation accuracy of zero "
                     "(tight bound)")
    lines.append(f"stability bound M = {M:.12g}, delta = {delta:.12g}; "
                 f"worst slack {worst:.6g} over {len(pairs)} samples ({verdict})")
    cert = StabilityCertificate(M=float(M), delta=float(delta),
                                worst_slack=worst, n_samples=len(pairs),
                                empirical=empirical, numerical_margin=margin,
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

    @cached_property
    def _spline(self):
        n = self.grid.size
        return CubicSpline(self.grid, self.values.reshape(n, -1), axis=0)

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if np.any(tt < self.grid[0] - 1e-12) or np.any(tt > self.grid[-1] + 1e-12):
            raise PropagationError("resolvent evaluated outside its grid")
        tc = np.clip(tt, self.grid[0], self.grid[-1])
        out = self._spline(tc).reshape(tt.size, self.dim, self.dim)
        pos = np.clip(np.searchsorted(self.grid, tc), 0, self.grid.size - 1)
        exact = self.grid[pos] == tc
        if exact.any():
            out[exact] = self.values[pos[exact]]
        return out[0] if scalar else out

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


def build_resolvent(A, memory: MemoryKernel, grid, tol: float = 1e-10,
                    check_vectors: int = 10) -> ResolventOperator:
    """Tabulate R of R' = A R + int_0^t B(t-s) R(s) ds on a uniform grid
    from t = 0.

    R(t_j) is the top-left block of Phi^j [I; 0], with Phi = expm(h A_hat)
    for the operator's augmented generator A_hat and the grid step h.  The
    defining-equation residual is checked on deterministic test vectors and
    stored on the returned operator.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ValueError("resolvent grid must start at t = 0")
    h = float(grid[1] - grid[0])
    if not h > 0.0 or not np.allclose(np.diff(grid), h, rtol=0.0, atol=1e-12):
        raise ValueError("resolvent grid must be uniform and increasing")
    op = ResolventOperator(A, memory, grid, np.empty((grid.size,) + A.shape),
                           label=memory.label)
    Phi = expm(h * op.generator)
    Z = np.eye(Phi.shape[0], op.dim)
    for j in range(1, grid.size):
        Z = Phi @ Z
        op.values[j] = Z[:op.dim]

    op.residual_report = resolvent_residual(op, n_vectors=check_vectors)
    if op.residual_report["max_residual"] > max(tol, 1e3 * _ODE_RTOL):
        raise PropagationError(
            f"resolvent residual {op.residual_report['max_residual']:.3g} "
            f"exceeds tolerance {tol:g}")
    return op


# order-6 central first-derivative stencil on a uniform grid
_D6 = np.array([-1.0 / 60, 3.0 / 20, -3.0 / 4, 0.0, 3.0 / 4, -3.0 / 20, 1.0 / 60])


def resolvent_residual(op: ResolventOperator, n_vectors: int = 10,
                       n_check: int = 41) -> dict:
    """Max defining-equation residual |R'y - A R y - int B(t-s) R(s) y ds|
    over deterministic test vectors and interior check times.

    The derivative uses an order-6 central stencil and the history integral
    Gauss panels on the interpolated table, so the check's own discretisation
    floor sits well below the stepping accuracy it audits.
    """
    d = op.dim
    vecs = [np.eye(d)[k] for k in range(min(d, n_vectors))]
    k = 0
    while len(vecs) < n_vectors:
        v = np.cos(np.arange(d) + 0.7 * k + 0.3)
        vecs.append(v / np.linalg.norm(v))
        k += 1
    n = op.grid.size
    h = float(op.grid[1] - op.grid[0])
    idx = np.unique(np.linspace(3, n - 4, n_check).astype(int))
    worst = 0.0
    for i in idx:
        t = float(op.grid[i])
        window = op.values[i - 3:i + 4]
        deriv = np.tensordot(_D6, window, axes=(0, 0)) / h
        s, w = panel_nodes(0.0, t, max_width=0.25, order=12)
        Bm = np.asarray(op.memory.matrix(t - s))
        Rm = op.eval(s)
        conv_int = np.einsum("k,kij,kjl->il", w, Bm, Rm)
        for v in vecs:
            res = deriv @ v - op.A @ (op.values[i] @ v) - conv_int @ v
            worst = max(worst, float(np.linalg.norm(res)))
    return {"max_residual": worst, "n_vectors": len(vecs),
            "n_check_times": len(idx)}


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


def heat_demo_assemble(n: int = 4, alpha_eq: float = 1.0, alpha_amp: float = 2e-4,
                       alpha_rate: float = 2.0, beta_eq: float = 2.0,
                       beta_amp: float = 5e-4, beta_rate: float = 2.0,
                       a_path: SampledPath = None, a_norm: float = None,
                       b_func: Callable = None, b_lipschitz: float = 0.0,
                       nonlocal_map=None, rho: float = None,
                       p: float = 2.0, q: float = 2.0,
                       horizon: float = 10.0, grid_step: float = 0.005,
                       u0: np.ndarray = None, tol: float = 1e-7):
    """Assemble the heat-conduction-with-memory problem on the unit interval.

    Thermal relaxation functions are the exponential family
    alpha(t) = alpha_eq + alpha_amp exp(-alpha_rate t) (likewise beta); the
    second-order equation in (temperature, velocity) becomes a first-order
    2n x 2n block system with memory factor B(t) = F(t) A.  Returns the wired
    problem spec and a report auditing the decay/regularity conditions and
    the ball inequality for rho.
    """
    from . import problem as pb
    from .certify import compute_base_point

    alpha0 = alpha_eq + alpha_amp
    beta0 = beta_eq + beta_amp
    if alpha0 <= 0.0 or beta0 <= 0.0:
        raise ValueError("alpha(0) and beta(0) must be positive")
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
    terms = []
    if c_b != 0.0:
        terms.append((c_b * E21 @ A, beta_rate))
    if c_a != 0.0:
        terms.append(((-beta0 * c_a * E21 - c_a * E22) @ A, alpha_rate))
    memory = exponential_memory(terms, d, label="heat_memory") if terms \
        else exponential_memory(((np.zeros((d, d)), 1.0),), d, label="heat_memory")

    # semigroup decay of the memoryless block system, certified by sampling
    eigs = np.linalg.eigvals(A)
    sigma = float(np.max(eigs.real))
    if sigma >= 0.0:
        raise ValueError("block operator is not exponentially stable")
    gamma = 0.9 * (-sigma)
    t_samp = np.linspace(0.0, max(horizon, 6.0 / gamma), 241)
    norms = np.array([np.linalg.norm(expm(t * A), ord=2) for t in t_samp])
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
    R = build_resolvent(A, memory, grid, tol=max(tol, 1e-9))
    R.decay = (M, gamma, q)
    table = R.norm_table()
    decay_ok = not decay_violations(table).size

    # forcing f(t, u) = (0, a(t) b(theta)) on the velocity block
    if u0 is None:
        x_nodes = np.arange(1, n + 1) / (n + 1)
        u0 = np.concatenate([np.sin(np.pi * x_nodes), np.zeros(n)])
    u0 = np.asarray(u0, dtype=float)
    if nonlocal_map is None:
        nonlocal_map = pb.zero_nonlocal(d)
    if b_func is None or a_path is None:
        f = pb.zero_nonlinearity(d)
        b_at_zero = 0.0
        a_norm_val = 0.0 if a_norm is None else a_norm
    else:
        a_norm_val = a_norm if a_norm is not None else float(
            np.max(np.abs(a_path.values)))

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

    if rho is None:
        rho = 1.2 * M * (np.linalg.norm(u0)
                         + np.linalg.norm(nonlocal_map.at_zero)
                         + (q / gamma) * a_norm_val * b_at_zero)
        rho = float(max(rho, 1.0))

    spec = pb.ProblemSpec(
        variant=pb.RESOLVENT_NONLOCAL, dim=d, f=f, resolvent=R,
        nonlocal_map=nonlocal_map, u0=u0, report_window=(0.0, horizon),
        grid_step=grid_step, label="heat_memory_demo")

    y0 = compute_base_point(spec)
    base_sup = float(np.max(np.linalg.norm(y0.values, axis=1)))
    ball_rhs = M * (np.linalg.norm(u0) + np.linalg.norm(nonlocal_map.at_zero)
                    + (q / gamma) * a_norm_val * b_at_zero)
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
