"""Two-time kernels C(t, s, x, y) with their structural envelopes.

A kernel spec bundles the evaluator with everything the certificates need to
know about it: a decay envelope dominating the whole kernel on a declared
bounded state set, Lipschitz moduli in the state arguments, and its
convolution form theta(t - s) * fhat(s, x, y).  Each built-in family declares
that form once and derives its evaluator from it (`form_evaluator`).  Split
kernels additionally separate a recurrent part from an ergodic part that dies
off in forward time.  A kernel has no side of its own: the problem slot that
holds it (delayed or advanced) decides which integral it enters.

The structural inequalities are quantified over uncountable sets, so they are
verified by deterministic sampling (grids plus low-discrepancy points); the
sample plan travels with the report so every verdict can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import DecayEnvelope, zero_envelope

_SQRT_PRIMES = np.sqrt(np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]))
# a sample plan's translations (zero included), two-time pairs, state pairs
_N_TAUS, _N_TS_PAIRS, _N_STATES = 5, 48, 8


def kronecker_points(n: int, dim: int, seed_shift: float = 0.0) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^dim (no RNG state)."""
    k = np.arange(1, n + 1, dtype=float)[:, None]
    alphas = _SQRT_PRIMES[:dim][None, :]
    return np.mod(k * alphas + seed_shift, 1.0)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel of one integral together with its envelope data.

    evaluator(t, s, x, y) must broadcast: t, s arrays of shape (...,) and
    x, y arrays of shape (..., d) produce (..., d).  The envelope dominates
    the kernel uniformly over diagonal time translations for states inside
    the ball of radius state_bound; lipschitz dominates the modulus of
    continuity in (x, y) with respect to the sum of Euclidean distances.
    No limit kernel is declared: a built-in kernel's translation limits
    share its envelope and modulus.
    """

    evaluator: Callable
    envelope: DecayEnvelope
    lipschitz: DecayEnvelope
    dim: int = 1
    state_bound: float = 1.0
    convolution: Optional[tuple] = None    # (theta(u), fhat(s, x, y))
    label: str = ""

    def __call__(self, t, s, x, y):
        return self.evaluator(t, s, x, y)

    @property
    def is_zero(self) -> bool:
        """Zero on its state ball and constant in the states: zero everywhere."""
        return self.envelope.amplitude == 0.0 and self.lipschitz.amplitude == 0.0


def zero_kernel(dim: int = 1) -> KernelSpec:
    def ev(t, s, x, y):
        shape = np.broadcast_shapes(np.shape(t), np.shape(s))
        return np.zeros(shape + (dim,))
    return KernelSpec(ev, zero_envelope(), zero_envelope(), dim=dim,
                      label="zero")


def form_evaluator(theta, fhat) -> Callable:
    """The evaluator theta(t - s) * fhat(s, x, y) of a declared convolution form."""
    def ev(t, s, x, y):
        u = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        return np.asarray(theta(u))[..., None] * fhat(s, x, y)
    return ev


# ---------------------------------------------------------------------------
# built-in families
#
# The evaluators treat x and y as (..., d) state blocks; coefficients are
# scalars applied componentwise, and the constant term is a d-vector.


def _as_const_vec(const, dim):
    c = np.asarray(const, dtype=float)
    if c.ndim == 0:
        return np.full(dim, float(c))
    if c.shape != (dim,):
        raise ValueError("constant term has wrong dimension")
    return c


def _affine_kernel(kind, rate, cx, cy, const, dim, state_bound, label,
                   modulation=None, mod_bound=1.0) -> KernelSpec:
    """theta(t-s) * m(s) * (cx*x + cy*y + const), theta the unit profile of
    kind at rate and m the modulation (1 when None), |m| <= mod_bound.

    Autonomous in (t, s) up to the separation and the recurrent m, so the
    kernel's translation limits share its envelope and modulus.
    """
    c0 = _as_const_vec(const, dim)
    lam_amp = (abs(cx) + abs(cy)) * state_bound + float(np.linalg.norm(c0))
    mu_amp = max(abs(cx), abs(cy))
    unit = DecayEnvelope(kind, 1.0, rate)

    def theta(u):
        return unit.profile(np.abs(u))

    def fhat(s, x, y):
        v = cx * np.asarray(x) + cy * np.asarray(y) + c0
        if modulation is None:
            return v
        return modulation(np.asarray(s, dtype=float))[..., None] * v

    ev = form_evaluator(theta, fhat)
    env = DecayEnvelope(kind, lam_amp * mod_bound, rate)
    mu = DecayEnvelope(kind, mu_amp * mod_bound, rate) if mu_amp else zero_envelope()
    return KernelSpec(ev, env, mu, dim=dim, state_bound=state_bound,
                      convolution=(theta, fhat), label=label)


def exponential_kernel(rate: float, cx: float = 0.0, cy: float = 0.0,
                       const=0.0, dim: int = 1, state_bound: float = 1.0,
                       label: str = "exponential_decay") -> KernelSpec:
    """C(t,s,x,y) = exp(-rate*|t-s|) * (cx*x + cy*y + const)."""
    return _affine_kernel("exponential", rate, cx, cy, const, dim,
                          state_bound, label)


def gaussian_kernel(rate: float, cx: float = 0.0, cy: float = 0.0,
                    const=0.0, dim: int = 1, state_bound: float = 1.0,
                    label: str = "gaussian_decay") -> KernelSpec:
    """C(t,s,x,y) = exp(-rate*(t-s)^2) * (cx*x + cy*y + const)."""
    return _affine_kernel("gaussian", rate, cx, cy, const, dim, state_bound,
                          label)


def convolution_sinusoid_kernel(rate: float, cx: float = 0.0, cy: float = 0.0,
                                const=0.0, mod_amp: float = 0.5,
                                mod_omega: float = 1.0, dim: int = 1,
                                state_bound: float = 1.0,
                                label: str = "convolution_sinusoid") -> KernelSpec:
    """C(t,s,x,y) = exp(-rate*|t-s|) * (1 + mod_amp*sin(mod_omega*s)) * (cx*x + cy*y + const).

    Separation-decaying factor times a recurrent factor in the inner time, the
    convolution-with-oscillation shape.  The sinusoidal factor's translation
    limits along suitable sequences are sinusoids again, so the limit kernel
    is the kernel itself up to phase.
    """
    return _affine_kernel("exponential", rate, cx, cy, const, dim,
                          state_bound, label,
                          modulation=lambda s: 1.0 + mod_amp * np.sin(mod_omega * s),
                          mod_bound=1.0 + abs(mod_amp))


KERNEL_FAMILIES = {
    "zero": zero_kernel,
    "exponential_decay": exponential_kernel,
    "gaussian_decay": gaussian_kernel,
    "convolution_sinusoid": convolution_sinusoid_kernel,
}


# ---------------------------------------------------------------------------
# split kernels: recurrent part + forward-vanishing part


@dataclass(frozen=True)
class SplitKernelSpec:
    """Kernel B = aa_part + ergodic part for half-line problems.

    evaluator is B itself, and envelope dominates all of B on aa_part's state
    ball, as KernelSpec's does; every truncation of a B integral reads it.
    The ergodic part is dominated by theta(t, s) times a factor vanishing as
    s -> +inf uniformly on bounded state sets, and is Lipschitz in the states
    with modulus ergodic_lipschitz.  zero_bound dominates |aa_part(t, s, 0, 0)|.
    convolution, when declared, factors B as in KernelSpec; its fhat carries
    the signed ergodic factor.
    """

    aa_part: KernelSpec
    evaluator: Callable
    envelope: DecayEnvelope
    theta: DecayEnvelope
    ergodic_lipschitz: DecayEnvelope
    zero_bound: Optional[DecayEnvelope] = None
    convolution: Optional[tuple] = None    # (theta(u), fhat(s, x, y)) of B
    label: str = ""

    def __call__(self, t, s, x, y):
        return self.evaluator(t, s, x, y)

    @property
    def dim(self) -> int:
        return self.aa_part.dim

    @property
    def state_bound(self) -> float:
        return self.aa_part.state_bound

    @property
    def is_zero(self) -> bool:
        return (self.envelope.amplitude == 0.0 and self.aa_part.is_zero
                and self.ergodic_lipschitz.amplitude == 0.0)


def split_exponential_kernel(rate: float, aa_const=0.0,
                             aa_cx: float = 0.0, aa_cy: float = 0.0,
                             erg_cx: float = 0.0, erg_cy: float = 0.0,
                             erg_const=0.0, erg_decay: float = 1.0,
                             dim: int = 1, state_bound: float = 1.0,
                             label: str = "split_exponential") -> SplitKernelSpec:
    """Recurrent part exp(-rate*|t-s|)(aa_cx*x + aa_cy*y + aa_const) plus an
    ergodic part exp(-rate*|t-s|) * exp(-erg_decay*s) * (erg_cx*x + erg_cy*y + erg_const)."""
    if erg_decay < 0.0:
        raise ValueError("erg_decay must be nonnegative: a growing ergodic "
                         "factor has no decay envelope")
    aa = exponential_kernel(rate, aa_cx, aa_cy, aa_const, dim=dim,
                            state_bound=state_bound, label=label + ":aa")
    e0 = _as_const_vec(erg_const, dim)
    theta_u, aa_hat = aa.convolution

    def fhat(s, x, y):
        s = np.asarray(s, dtype=float)
        vanish = np.exp(-erg_decay * np.clip(s, 0.0, None))
        return aa_hat(s, x, y) + vanish[..., None] * (
            erg_cx * np.asarray(x) + erg_cy * np.asarray(y) + e0)

    # the vanishing factor is at most 1, so the ergodic part adds its affine
    # bound on the ball to the recurrent amplitude, at the same rate
    erg_amp = (abs(erg_cx) + abs(erg_cy)) * state_bound + float(np.linalg.norm(e0))
    envelope = DecayEnvelope("exponential", aa.envelope.amplitude + erg_amp, rate)
    theta = DecayEnvelope("exponential", 1.0, rate)
    mu3_amp = max(abs(erg_cx), abs(erg_cy))
    mu3 = (DecayEnvelope("exponential", mu3_amp, rate)
           if mu3_amp else zero_envelope())
    # |aa(t,s,0,0)| = exp(-rate|t-s|)*|aa_const|
    aa_zero_amp = float(np.linalg.norm(_as_const_vec(aa_const, dim)))
    zb = (DecayEnvelope("exponential", aa_zero_amp, rate)
          if aa_zero_amp else zero_envelope())
    return SplitKernelSpec(aa, form_evaluator(theta_u, fhat), envelope, theta,
                           mu3, zero_bound=zb, convolution=(theta_u, fhat),
                           label=label)


SPLIT_KERNEL_FAMILIES = {
    "split_exponential": split_exponential_kernel,
}


# ---------------------------------------------------------------------------
# deterministic sample plans and structural checks


@dataclass(frozen=True)
class SamplePlan:
    """Finite sets of translations, two-time pairs and state points used by
    the structural checks.  Built deterministically so reports reproduce."""

    taus: np.ndarray            # (k,)  diagonal translations, must include nonzero
    ts_pairs: np.ndarray        # (m, 2) base (t, s) pairs respecting orientation
    states: np.ndarray          # (p, 2, d) sampled (x, y) points in the bounded set

    @staticmethod
    def build(window, orientation: str, dim: int, state_bound: float) -> "SamplePlan":
        lo, hi = float(window[0]), float(window[1])
        width = hi - lo
        taus = np.concatenate([[0.0], np.linspace(-width, width, _N_TAUS - 1)])
        pts = kronecker_points(_N_TS_PAIRS, 2)
        t = lo + width * pts[:, 0]
        sep = 0.02 + 3.0 * pts[:, 1]
        if orientation == "advanced":
            s = t + sep
        elif orientation == "half_line_delayed":
            t = np.abs(t)
            s = np.clip(t - sep, 0.0, None)
        else:
            s = t - sep
        ts = np.stack([t, s], axis=1)
        raw = kronecker_points(_N_STATES, 2 * dim, seed_shift=0.37)
        states = (2.0 * raw - 1.0).reshape(_N_STATES, 2, dim) * state_bound / np.sqrt(dim)
        # canonical pairs realising the extreme directions of affine kernels:
        # consecutive pairing yields (e1, 0) vs (0, 0) and (0, 0) vs (0, e1)
        e = np.zeros(dim)
        e[0] = state_bound
        z = np.zeros(dim)
        structured = np.array([[e, z], [z, z], [z, e], [z, z]])
        states = np.concatenate([structured, states], axis=0)
        return SamplePlan(taus, ts, states)


@dataclass
class KernelCheckReport:
    check: str
    max_violation: float
    witness: dict
    n_samples: int
    passed: bool
    notes: list = field(default_factory=list)


def check_lambda_bound(k: KernelSpec, plan: SamplePlan) -> KernelCheckReport:
    """Largest value of |C(t+tau, s+tau, x, y)| - lambda(t, s) over the plan.

    The envelope bound is uniform in the diagonal translation, so the plan is
    required to exercise nonzero translations.
    """
    if not np.any(plan.taus != 0.0):
        raise ValueError("sample plan must include nonzero diagonal translations")
    worst = -np.inf
    witness = {}
    n = 0
    for tau in plan.taus:
        t = plan.ts_pairs[:, 0] + tau
        s = plan.ts_pairs[:, 1] + tau
        lam = k.envelope(plan.ts_pairs[:, 0], plan.ts_pairs[:, 1])
        for x, y in plan.states:
            xx = np.broadcast_to(x, (t.size, k.dim))
            yy = np.broadcast_to(y, (t.size, k.dim))
            vals = np.linalg.norm(np.asarray(k.evaluator(t, s, xx, yy)), axis=-1)
            viol = vals - lam
            n += t.size
            i = int(np.argmax(viol))
            if viol[i] > worst:
                worst = float(viol[i])
                witness = {"tau": float(tau), "t": float(plan.ts_pairs[i, 0]),
                           "s": float(plan.ts_pairs[i, 1]),
                           "x": np.array(x), "y": np.array(y),
                           "kernel_norm": float(vals[i]), "envelope": float(lam[i])}
    # equality cases are legitimate; guard the boundary against float noise
    return KernelCheckReport("lambda_bound", worst, witness, n, worst <= 1e-12)


def check_lipschitz(k: KernelSpec, plan: SamplePlan) -> KernelCheckReport:
    """Sampled check of |C(t,s,u1,u2) - C(t,s,v1,v2)| <= mu(t,s)(|u1-v1|+|u2-v2|),
    mu = k.lipschitz, on consecutive pairs of the plan's state points."""
    t = plan.ts_pairs[:, 0]
    s = plan.ts_pairs[:, 1]
    mu = k.lipschitz(t, s)
    worst = -np.inf
    witness = {}
    n = 0
    p = plan.states.shape[0]
    for i in range(p):
        u1, u2 = plan.states[i]
        v1, v2 = plan.states[(i + 1) % p]
        gap = np.linalg.norm(u1 - v1) + np.linalg.norm(u2 - v2)
        if gap == 0.0:
            continue
        uu1 = np.broadcast_to(u1, (t.size, k.dim))
        uu2 = np.broadcast_to(u2, (t.size, k.dim))
        vv1 = np.broadcast_to(v1, (t.size, k.dim))
        vv2 = np.broadcast_to(v2, (t.size, k.dim))
        diff = np.linalg.norm(np.asarray(k.evaluator(t, s, uu1, uu2))
                              - np.asarray(k.evaluator(t, s, vv1, vv2)), axis=-1)
        viol = diff - mu * gap
        n += t.size
        j = int(np.argmax(viol))
        if viol[j] > worst:
            worst = float(viol[j])
            witness = {"t": float(t[j]), "s": float(s[j]),
                       "u": (np.array(u1), np.array(u2)),
                       "v": (np.array(v1), np.array(v2)),
                       "difference": float(diff[j]),
                       "allowed": float(mu[j] * gap)}
    if n == 0:
        worst = 0.0
    # strict sampling check with a float guard at the equality boundary
    return KernelCheckReport("lipschitz", worst, witness, n, worst <= 1e-12)


def check_convolution_form(k, plan: SamplePlan) -> KernelCheckReport:
    """If a convolution form Theta(t-s)*fhat(s,x,y) is declared, it must agree
    with the evaluator to machine precision on samples.

    k is a KernelSpec or a SplitKernelSpec.  The solver's lattice rule
    integrates the declared form, not the evaluator.
    """
    if k.convolution is None:
        rep = KernelCheckReport("convolution_form", 0.0, {}, 0, True)
        rep.notes.append("no convolution form declared")
        return rep
    theta, fhat = k.convolution
    t = plan.ts_pairs[:, 0]
    s = plan.ts_pairs[:, 1]
    worst = -np.inf
    witness = {}
    n = 0
    for x, y in plan.states:
        xx = np.broadcast_to(x, (t.size, k.dim))
        yy = np.broadcast_to(y, (t.size, k.dim))
        direct = np.asarray(k.evaluator(t, s, xx, yy))
        factored = np.asarray(theta(t - s))[..., None] * np.asarray(fhat(s, xx, yy))
        gap = np.linalg.norm(direct - factored, axis=-1)
        n += t.size
        j = int(np.argmax(gap))
        if gap[j] > worst:
            worst = float(gap[j])
            witness = {"t": float(t[j]), "s": float(s[j])}
    return KernelCheckReport("convolution_form", worst, witness, n, worst <= 1e-12)
