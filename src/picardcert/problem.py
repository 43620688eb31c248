"""Problem definitions consumed by the certifier and the solver.

A problem spec names one of the supported equation variants and carries the
data that variant needs: the pointwise nonlinearity, the oriented kernels,
time warps of the state arguments, and (for the evolution variants) the
propagator handle, the initial state and the nonlocal correction map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import KernelSpec, SplitKernelSpec, kronecker_points
from .paths import SampledPath, TimeWarp, identity_warp

ADVANCED_DELAYED = "advanced_delayed"
DELAYED_ONLY = "delayed_only"
HALF_LINE = "half_line"
EVOLUTION_NONLOCAL = "evolution_nonlocal"
RESOLVENT_NONLOCAL = "resolvent_nonlocal"
DELAY_PARABOLIC = "delay_parabolic"

VARIANTS = (ADVANCED_DELAYED, DELAYED_ONLY, HALF_LINE,
            EVOLUTION_NONLOCAL, RESOLVENT_NONLOCAL, DELAY_PARABOLIC)

FULL_LINE_VARIANTS = (ADVANCED_DELAYED, DELAYED_ONLY, DELAY_PARABOLIC)

# points of the constants grid over which sup|f(., 0, 0)| is sampled
SUP_F0_SAMPLES = 257


class ProblemError(ValueError):
    """Problem data inconsistent with the declared variant."""


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity f(t, x, y) with its Lipschitz data.

    func must broadcast: t of shape (...,), x and y of shape (..., d) produce
    (..., d).  lipschitz is the constant on the working ball when known
    analytically; lipschitz_curve optionally gives the radius-dependent
    constant L(r) used by the radius-search certificates.
    """

    func: Callable
    lipschitz: Optional[float] = None
    lipschitz_curve: Optional[Callable] = None
    dim: int = 1
    label: str = ""

    def __call__(self, t, x, y):
        return self.func(t, x, y)

    def at_zero(self, t) -> np.ndarray:
        """f(t, 0, 0) for an array of times, shape (n, d)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        z = np.zeros((t.size, self.dim))
        return np.asarray(self.func(t, z, z), dtype=float)

    def curve(self, r):
        if self.lipschitz_curve is not None:
            return self.lipschitz_curve(r)
        if self.lipschitz is None:
            raise ProblemError("nonlinearity has no Lipschitz data")
        return np.full_like(np.asarray(r, dtype=float), self.lipschitz)

    @property
    def is_zero(self) -> bool:
        return self.label == "zero"


def zero_nonlinearity(dim: int = 1) -> Nonlinearity:
    def f(t, x, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.zeros(t.shape + (dim,))
    return Nonlinearity(f, lipschitz=0.0, dim=dim, label="zero")


def sinusoid_affine(sin_amp: float = 0.0, cos_amp: float = 0.0,
                    const: float = 0.0, state_coeff: float = 0.0,
                    warp_state_coeff: float = 0.0, omega: float = 1.0,
                    dim: int = 1, label: str = "sinusoid_affine") -> Nonlinearity:
    """f(t, x, y) = (sin_amp*sin(omega t) + cos_amp*cos(omega t) + const) * e1
    + state_coeff * x + warp_state_coeff * y."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    kx, ky = float(state_coeff), float(warp_state_coeff)

    def f(t, x, y):
        t = np.asarray(t, dtype=float)
        forcing = sin_amp * np.sin(omega * t) + cos_amp * np.cos(omega * t) + const
        return forcing[..., None] * e1 + kx * np.asarray(x) + ky * np.asarray(y)

    lip = max(abs(kx), abs(ky))
    return Nonlinearity(f, lipschitz=lip, dim=dim, label=label)


def saturating_lipschitz(l0: float, l1: float, scale: float = 1.0) -> Callable:
    """Radius-dependent Lipschitz curve L(r) = l0 + l1 / (1 + r/scale)."""
    def curve(r):
        r = np.asarray(r, dtype=float)
        return l0 + l1 / (1.0 + r / scale)
    return curve


NONLINEARITY_FAMILIES = {
    "zero": lambda dim=1, **kw: zero_nonlinearity(dim),
    "sinusoid_affine": sinusoid_affine,
}


@dataclass(frozen=True)
class NonlocalMap:
    """Correction map g acting on whole paths, Lipschitz for the uniform norm."""

    func: Callable                 # SampledPath -> (d,)
    lipschitz: float
    at_zero: np.ndarray            # value at the zero path
    dim: int = 1
    label: str = ""

    def __call__(self, u: SampledPath) -> np.ndarray:
        return np.asarray(self.func(u), dtype=float)


def zero_nonlocal(dim: int = 1) -> NonlocalMap:
    return NonlocalMap(lambda u: np.zeros(dim), 0.0, np.zeros(dim),
                       dim=dim, label="zero")


def point_eval_nonlocal(coeff: float, t_probe: float, offset=0.0,
                        dim: int = 1) -> NonlocalMap:
    """g(u) = offset + coeff * u(t_probe); Lipschitz constant |coeff|."""
    off = np.asarray(offset, dtype=float)
    if off.ndim == 0:
        off = np.full(dim, float(off))

    def g(u: SampledPath):
        return off + coeff * u.evaluate(t_probe)

    return NonlocalMap(g, abs(coeff), off.copy(), dim=dim, label="point_eval")


NONLOCAL_FAMILIES = {
    "zero": lambda dim=1, **kw: zero_nonlocal(dim),
    "point_eval": point_eval_nonlocal,
}


@dataclass
class ProblemSpec:
    """One fixed-point problem: variant, data, working window and tolerances.

    The variant decides which fields must be present:

    * advanced_delayed: f plus the delayed and advanced kernels,
    * delayed_only:     f plus the delayed kernel,
    * half_line:        f plus the split kernels on the half line,
    * evolution_nonlocal: evolution family, u0, forcing f, optional memory
      kernel for the causal history term, nonlocal map,
    * resolvent_nonlocal: resolvent handle, u0, forcing f, nonlocal map,
    * delay_parabolic:  evolution family, forcing f, delay.
    """

    variant: str
    dim: int = 1
    f: Optional[Nonlinearity] = None
    kernel_delayed: Optional[KernelSpec] = None
    kernel_advanced: Optional[KernelSpec] = None
    split_delayed: Optional[SplitKernelSpec] = None
    split_advanced: Optional[SplitKernelSpec] = None
    warps: dict = field(default_factory=dict)      # keys a0, a1, a2
    evolution: object = None                       # EvolutionFamily
    resolvent: object = None                       # ResolventOperator
    memory_kernel: Optional[KernelSpec] = None     # history kernel B(t, s) x
    nonlocal_map: Optional[NonlocalMap] = None
    u0: Optional[np.ndarray] = None
    delay: Optional[float] = None
    report_window: tuple = (-20.0, 20.0)
    grid_step: float = 0.05
    quad_tol: float = 1e-8
    const_tol: float = 1e-10
    label: str = ""

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ProblemError(f"unknown variant {self.variant!r}")
        if self.u0 is not None:
            self.u0 = np.asarray(self.u0, dtype=float).ravel()
        self.validate()

    def warp(self, name: str) -> TimeWarp:
        return self.warps.get(name, identity_warp)

    def validate(self):
        v = self.variant
        need = lambda cond, msg: (_ for _ in ()).throw(ProblemError(msg)) if not cond else None
        if v in (ADVANCED_DELAYED, DELAYED_ONLY, HALF_LINE):
            need(self.f is not None, f"{v} problems need a nonlinearity f")
        if v == ADVANCED_DELAYED:
            need(self.kernel_delayed is not None and self.kernel_advanced is not None,
                 "advanced_delayed problems need both oriented kernels")
        if v == DELAYED_ONLY:
            need(self.kernel_delayed is not None,
                 "delayed_only problems need the delayed kernel")
            need(self.kernel_advanced is None or self.kernel_advanced.is_zero,
                 "delayed_only problems must not carry an advanced kernel")
        if v == HALF_LINE:
            need(self.split_delayed is not None and self.split_advanced is not None,
                 "half_line problems need both split kernels")
            need(self.report_window[0] == 0.0,
                 "half_line problems start at t = 0, where the history "
                 "integral starts")
        if v == EVOLUTION_NONLOCAL:
            need(self.evolution is not None and self.u0 is not None,
                 "evolution_nonlocal problems need the evolution family and u0")
            need(self.f is not None, "evolution_nonlocal problems need the forcing")
            need(self.report_window[0] == 0.0, "evolution problems start at t = 0")
        if v == RESOLVENT_NONLOCAL:
            need(self.resolvent is not None and self.u0 is not None,
                 "resolvent_nonlocal problems need the resolvent handle and u0")
            need(self.f is not None, "resolvent_nonlocal problems need the forcing")
            need(self.report_window[0] == 0.0, "resolvent problems start at t = 0")
            need(self.report_window[1] <= self.resolvent.grid[-1] + 1e-12,
                 "report window ends past the resolvent's grid, beyond its "
                 "decay audit and residual check")
        if v == DELAY_PARABOLIC:
            need(self.evolution is not None, "delay problems need the evolution family")
            need(self.f is not None and self.delay is not None,
                 "delay problems need the forcing and the delay")
        if self.quad_tol <= 0 or self.const_tol <= 0 or self.grid_step <= 0:
            raise ProblemError("tolerances and grid step must be positive")
        lo, hi = self.report_window
        if not hi > lo:
            raise ProblemError("report window is empty")

    # -- grids ---------------------------------------------------------------

    def constants_grid(self, n: int = 129) -> np.ndarray:
        """t-grid on which the sampled sups are taken: gamma1/gamma2 of half-line
        problems and sup|f(t, 0, 0)| (recorded in reports)."""
        return np.linspace(*self.report_window, n)

    def effective_lipschitz(self) -> float:
        if self.f is None:
            return 0.0
        if self.f.lipschitz is not None:
            return float(self.f.lipschitz)
        raise ProblemError("nonlinearity has no Lipschitz constant; "
                           "use the empirical estimate explicitly")

    def empirical_lipschitz(self, radius: float, n_samples: int = 64) -> float:
        """Sampled difference-quotient estimate of the nonlinearity's constant
        inside the working ball, used when no analytic constant is supplied."""
        d = self.dim
        pts = (2.0 * kronecker_points(2 * n_samples, 2 * d, seed_shift=0.11) - 1.0)
        pts = pts.reshape(n_samples, 2, 2 * d) * radius / np.sqrt(d)
        t_nodes = np.linspace(*self.report_window, n_samples)
        best = 0.0
        for i in range(n_samples):
            u = pts[i, 0, :d][None, :]
            v = pts[i, 1, :d][None, :]
            uy = pts[i, 0, d:][None, :]
            vy = pts[i, 1, d:][None, :]
            gap = np.linalg.norm(u - v) + np.linalg.norm(uy - vy)
            if gap == 0:
                continue
            t = t_nodes[i:i + 1]
            quot = float(np.linalg.norm(self.f(t, u, uy) - self.f(t, v, vy))) / gap
            best = max(best, quot)
        return best

    def sup_forcing_at_zero(self) -> float:
        """Sampled sup|f(t, 0, 0)|: the max over the SUP_F0_SAMPLES = 257
        points of the constants grid, not the exact sup (0.4999985 for
        0.5 sin t on the delay demo's window).  Certificates label it so."""
        vals = self.f.at_zero(self.constants_grid(SUP_F0_SAMPLES))
        return float(np.max(np.linalg.norm(vals, axis=1)))

    def forcing_lipschitz(self) -> float:
        """Lipschitz constant of the combined state/history nonlinearity for
        the evolution variant: the history term enters with coefficient one."""
        base = self.effective_lipschitz()
        if self.variant == EVOLUTION_NONLOCAL and self.memory_kernel is not None:
            return max(1.0, base)
        return base
