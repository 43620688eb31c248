"""Problem definitions consumed by the certifier and the solver.

A problem spec names one of the supported equation variants and carries the
data that variant needs: the pointwise nonlinearity, the oriented kernels,
time warps of the state arguments, and (for the evolution variants) the
propagator handle, the initial state and the nonlocal correction map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .kernels import KernelSpec, SplitKernelSpec
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

# variant -> (the data fields it needs, the other data fields it reads); a
# spec that sets a data field its variant does not read is refused, for its
# problem would not be the one written
_FIELDS = {
    ADVANCED_DELAYED: (("f", "kernel_delayed", "kernel_advanced"), ("warps",)),
    DELAYED_ONLY: (("f", "kernel_delayed"), ("kernel_advanced", "warps")),
    HALF_LINE: (("f", "split_delayed", "split_advanced"), ("warps",)),
    EVOLUTION_NONLOCAL: (("f", "evolution", "u0"),
                         ("memory_kernel", "nonlocal_map")),
    RESOLVENT_NONLOCAL: (("f", "resolvent", "u0"), ("nonlocal_map",)),
    DELAY_PARABOLIC: (("f", "evolution", "delay"), ()),
}
_DATA = sorted({name for pair in _FIELDS.values() for names in pair
                for name in names})

# points of the constants grid over which sup|f(., 0, 0)| is sampled
SUP_F0_SAMPLES = 257


class ProblemError(ValueError):
    """Problem data inconsistent with the declared variant."""


def _need(cond, msg):
    if not cond:
        raise ProblemError(msg)


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity f(t, x, y) with its Lipschitz data.

    func must broadcast: t of shape (...,), x and y of shape (..., d) produce
    (..., d).  lipschitz is the declared constant on the working ball, which
    every ball and shifted-ball certificate needs; lipschitz_curve optionally
    gives the radius-dependent constant L(r) of the radius-search
    certificates.  Without either, certification is refused: sampled
    difference quotients only bound the constant from below.
    """

    func: Callable
    lipschitz: Optional[float] = None
    lipschitz_curve: Optional[Callable] = None
    dim: int = 1
    label: str = ""

    def __post_init__(self):
        if self.lipschitz is not None and not 0.0 <= self.lipschitz < np.inf:
            raise ValueError("a declared Lipschitz constant must be finite and "
                             f"nonnegative, got {self.lipschitz:.12g}")

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
        forcing = sin_amp * np.sin(omega * t)
        if cos_amp:
            forcing = forcing + cos_amp * np.cos(omega * t)
        forcing = forcing + const
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
    "zero": zero_nonlinearity,
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

    def __post_init__(self):
        if not 0.0 <= self.lipschitz < np.inf:
            raise ValueError("a declared Lipschitz constant must be finite and "
                             f"nonnegative, got {self.lipschitz:.12g}")

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
    "zero": zero_nonlocal,
    "point_eval": point_eval_nonlocal,
}


@dataclass(frozen=True)
class ProblemSpec:
    """One fixed-point problem: variant, data, working window and tolerances.

    A spec is a value: its fields cannot be assigned, and
    `dataclasses.replace` builds a new spec.  That is what lets it keep its
    base point, computed on first read.

    The variant decides, by the table _FIELDS, which data fields must be
    set and which others may be; any other that is set is refused.
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
            object.__setattr__(self, "u0",
                               np.asarray(self.u0, dtype=float).ravel())
        self.validate()

    @cached_property
    def base_point(self) -> SampledPath:
        """y0 = T(0), the image of the zero function, at whose centre every
        ball theorem works; computed once, on first read."""
        from . import solver  # solver imports this module
        return solver.apply_operator(self, solver.zero_start(self))

    def warp(self, name: str) -> TimeWarp:
        return self.warps.get(name, identity_warp)

    def validate(self):
        v = self.variant
        for name in ("quad_tol", "const_tol", "grid_step"):
            value = getattr(self, name)
            _need(np.isfinite(value) and value > 0,
                  f"{name} must be finite and positive, got {value:g}")
        # a family, resolvent or u0 of another dim failed later or lost components
        for what, held in (("evolution family", self.evolution),
                           ("resolvent", self.resolvent)):
            if held is not None:
                _need(held.dim == self.dim, f"the {what} has dimension "
                      f"{held.dim}, the problem has dim = {self.dim}")
        if self.u0 is not None:
            _need(self.u0.size == self.dim, f"u0 has {self.u0.size} components, "
                  f"the problem has dim = {self.dim}")
        lo, hi = self.report_window
        _need(np.isfinite(lo) and np.isfinite(hi),
              f"report window ends must be finite, got [{lo:g}, {hi:g}]")
        _need(hi > lo, "report window is empty")
        needs, reads = _FIELDS[v]
        for name in _DATA:
            held = (bool(self.warps) if name == "warps"
                    else getattr(self, name) is not None)
            _need(held or name not in needs, f"{v} problems need {name}")
            _need(not held or name in needs + reads,
                  f"{v} problems do not read {name}")
        _need(v != DELAYED_ONLY or self.kernel_advanced is None
              or self.kernel_advanced.is_zero,
              "delayed_only problems must not carry an advanced kernel")
        # a finite delay, as in the paper: tau < 0 reads y past the grid's end
        _need(self.delay is None or 0.0 <= self.delay < np.inf,
              f"the delay must be finite and nonnegative, got {self.delay!r}")
        if v in (HALF_LINE, EVOLUTION_NONLOCAL, RESOLVENT_NONLOCAL):
            _need(lo == 0.0, f"{v} problems start at t = 0")
        if v == RESOLVENT_NONLOCAL:
            _need(hi <= self.resolvent.grid[-1] + 1e-12,
                  "report window ends past the resolvent's grid, beyond its "
                  "decay audit and residual check")

    # -- grids ---------------------------------------------------------------

    def constants_grid(self, n: int = 129) -> np.ndarray:
        """t-grid on which the sampled sups are taken: gamma1/gamma2 of half-line
        problems and sup|f(t, 0, 0)| (recorded in reports)."""
        return np.linspace(*self.report_window, n)

    def effective_lipschitz(self) -> float:
        """The Lipschitz constant f declares; ProblemError without one."""
        if self.f.lipschitz is not None:
            return float(self.f.lipschitz)
        raise ProblemError("nonlinearity declares no Lipschitz constant "
                           "(Nonlinearity(lipschitz=...))")

    def sup_forcing_at_zero(self) -> float:
        """Sampled sup|f(t, 0, 0)|: the max over the SUP_F0_SAMPLES = 257
        points of the constants grid, not the exact sup (0.4999985 for
        0.5 sin t on the delay demo's window).  Certificates label it so."""
        vals = self.f.at_zero(self.constants_grid(SUP_F0_SAMPLES))
        return float(np.max(np.linalg.norm(vals, axis=1)))
