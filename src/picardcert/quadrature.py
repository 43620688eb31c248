"""Decay envelopes, Gauss-Legendre panels and envelope constants.

Every integrability hypothesis consumed by the certificates is an envelope
statement (an integrand dominated by a decaying profile in |t - s|), so
envelopes are first-class here: their tail mass says where a semi-infinite
integral may be truncated with the neglected tail provably below a tolerance.

The envelope constants of the certificates, sups over all t of an
envelope's integral over s on either side of t, need no quadrature: each is
the envelope's total mass in closed form, whichever the side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

DEFAULT_CONST_TOL = 1e-10   # sampled certificate constants (gamma1/gamma2)
_ADAPTIVE_ORDER = 15        # Gauss-Legendre points per adaptive panel
_ADAPTIVE_MAX_DEPTH = 40    # bisections before a panel's tol is unreachable


class QuadratureError(RuntimeError):
    """Tolerance unreachable or tail not integrable."""


@dataclass(frozen=True)
class DecayEnvelope:
    """Nonnegative two-time profile  env(t, s) = amplitude * profile(|t-s|).

    profile is exp(-rate*u) for kind 'exponential' and exp(-rate*u^2) for
    kind 'gaussian'.  The analytic tail mass beyond a separation U is what
    licenses truncating semi-infinite integrals dominated by this envelope.
    """

    kind: str
    amplitude: float
    rate: float

    def __post_init__(self):
        if self.kind not in ("exponential", "gaussian"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.amplitude < 0.0:
            raise ValueError("envelope amplitude must be nonnegative")
        if self.rate <= 0.0 and self.amplitude > 0.0:
            raise QuadratureError(
                "envelope does not decay (rate <= 0): tail not integrable")

    def profile(self, u):
        u = np.asarray(u, dtype=float)
        if self.amplitude == 0.0:
            return np.zeros_like(u)
        if self.kind == "exponential":
            return np.exp(-self.rate * u)
        return np.exp(-self.rate * u * u)

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return self.amplitude * self.profile(np.abs(t - s))

    def tail_mass(self, span: float) -> float:
        """Upper bound for the integral of the envelope beyond separation span."""
        if self.amplitude == 0.0:
            return 0.0
        if self.kind == "exponential":
            return self.amplitude * np.exp(-self.rate * span) / self.rate
        return (self.amplitude * 0.5 * np.sqrt(np.pi / self.rate)
                * math.erfc(np.sqrt(self.rate) * span))

    def total_mass(self) -> float:
        return self.tail_mass(0.0)

    def truncation_span(self, tol: float) -> float:
        """Smallest separation U with tail_mass(U) <= tol (minimum 1.0)."""
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.amplitude == 0.0:
            return 1.0
        tol = 0.99 * tol  # stay strictly inside the budget despite rounding
        if self.kind == "exponential":
            span = np.log(max(self.amplitude / (self.rate * tol), 1.0)) / self.rate
            return float(max(span, 1.0))
        lo, hi = 0.0, 1.0
        while self.tail_mass(hi) > tol and hi < 1e6:
            hi *= 2.0
        if self.tail_mass(hi) > tol:
            raise QuadratureError("gaussian envelope tail never reaches tol")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.tail_mass(mid) > tol:
                lo = mid
            else:
                hi = mid
        return float(max(hi, 1.0))


def zero_envelope() -> DecayEnvelope:
    return DecayEnvelope("exponential", 0.0, 1.0)


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(a: float, b: float, max_width: float = 1.0, order: int = 15):
    """Composite Gauss-Legendre nodes/weights on [a, b] with bounded panel width."""
    if b <= a:
        return np.empty(0), np.empty(0)
    n_panels = max(1, int(np.ceil((b - a) / max_width)))
    edges = np.linspace(a, b, n_panels + 1)
    x, w = gauss_legendre(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _panel_integral(g, a, b):
    x, w = gauss_legendre(_ADAPTIVE_ORDER)
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * x
    vals = np.asarray(g(nodes), dtype=float)
    return half * np.tensordot(w, vals, axes=(0, 0))


def adaptive_integral(g, a: float, b: float, tol: float):
    """Adaptive composite Gauss-Legendre integral of a vectorized integrand.

    Each panel is accepted when the refined (bisected) estimate agrees with the
    coarse one within its share of the error budget; otherwise it is split,
    at most _ADAPTIVE_MAX_DEPTH times.  Returns (value, error_estimate).
    """
    if b <= a:
        z = np.asarray(g(np.array([a])), dtype=float)
        return np.zeros(z.shape[1:]) if z.ndim > 1 else 0.0, 0.0
    total = None
    err_total = 0.0
    stack = [(a, b, _panel_integral(g, a, b), 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel_integral(g, lo, mid)
        right = _panel_integral(g, mid, hi)
        fine = left + right
        err = float(np.max(np.abs(fine - coarse)))
        budget = tol * (hi - lo) / (b - a)
        if err <= budget or depth >= _ADAPTIVE_MAX_DEPTH:
            if depth >= _ADAPTIVE_MAX_DEPTH and err > budget:
                raise QuadratureError(
                    f"tolerance {tol:g} unreachable on [{lo:g}, {hi:g}] "
                    f"at max refinement (err {err:g})")
            total = fine if total is None else total + fine
            err_total += err
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total, err_total


# ---------------------------------------------------------------------------
# envelope constants (suprema over t of one-sided envelope integrals)


def envelope_constant(env: DecayEnvelope) -> float:
    """sup over all real t of the integral of env(t, .) over s <= t, over
    s >= t or over 0 <= s <= t, in closed form: the envelope's total mass
    (1/rate, resp. sqrt(pi/rate)/2, times the amplitude).  The sup is
    attained on the two full sides; on [0, t] it is the limit as
    t -> infinity."""
    return float(env.total_mass())


@dataclass
class EnvelopeConstants:
    """Snapshot of the integral constants entering certificate inequalities.

    Every constant except gamma1/gamma2 is a sum of envelope masses, exact in
    closed form.  gamma1/gamma2 integrate the kernel itself at zero state,
    which has no closed form: they are the max over the recorded finite
    t-grid, with the truncation tail below tol.  None means "not applicable
    to this problem variant".
    """

    alpha1: Optional[float] = None   # sup_t int lambda_1, delayed side
    alpha2: Optional[float] = None   # sup_t int lambda_2, advanced side
    N1: Optional[float] = None       # sup_t int mu_1
    N2: Optional[float] = None       # sup_t int mu_2
    beta1_h5: Optional[float] = None  # sup_t int nu_1 (split kernels)
    beta2_h5: Optional[float] = None  # sup_t int nu_2
    P1: Optional[float] = None       # sup_t int theta_1 on [0, t]
    P2: Optional[float] = None       # sup_t int theta_2 on [t, inf)
    Q1: Optional[float] = None       # sup_t (int mu3_1 + int mu3_2)
    gamma1: Optional[float] = None   # sup_t |int_0^t B_1(t,s,0,0) ds|, sampled
    gamma2: Optional[float] = None   # sup_t |int_t^inf B_2(t,s,0,0) ds|, sampled
    C_B: Optional[float] = None      # sup_s int_0^s |B(s,tau)| dtau
    t_grid: Optional[np.ndarray] = None   # where gamma1/gamma2 were sampled
    tol: float = DEFAULT_CONST_TOL

    def audit_lines(self):
        lines = []
        for name in ("alpha1", "alpha2", "N1", "N2", "beta1_h5", "beta2_h5",
                     "P1", "P2", "Q1", "gamma1", "gamma2", "C_B"):
            val = getattr(self, name)
            if val is not None:
                how = "sampled" if name in ("gamma1", "gamma2") else "closed form"
                lines.append(f"  {name} = {val:.12g} ({how})")
        if self.t_grid is not None:
            lines.append(f"  gamma1, gamma2 sampled on a t-grid of {len(self.t_grid)} "
                         f"points on [{self.t_grid[0]:g}, {self.t_grid[-1]:g}], "
                         f"tol {self.tol:g}")
        return lines
