"""Mechanical hypothesis checking for the contraction theorems.

Each theorem is one row of ``THEOREMS``: its id, the variants and the mode
(ball, shifted or radius) it serves, its contraction constant L, its named
inequalities, whether theta = |Gamma y0 - y0| / (1 - L) decides the verdict
or is only reported, and for radius searches the objective scanned over r.
One evaluator turns a row into a ``ContractionCertificate`` with the integral
constants, the base point (the operator applied to zero), the verdict naming
the first violated inequality, and an audit line per inequality.

Each inequality reads lhs < rhs (strict) or lhs <= rhs (non-strict), with
slack rhs - lhs.  A strict one holds only when its slack exceeds the slack
margin (default 1e-9): floating point equality at the boundary carries no
information.  Contraction and growth conditions are strict; containment,
size and theta <= rho are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import problem as pb
from . import solver
from .minimize import bounded_minimum
from .paths import SampledPath, sup_norm, sup_distance
from .quadrature import EnvelopeConstants, adaptive_integral, envelope_constant

DEFAULT_SLACK = 1e-9


class CertificationError(RuntimeError):
    """Certification could not be carried out (missing data, divergence, no
    theorem for the requested variant and mode)."""


@dataclass
class ContractionCertificate:
    """Machine-checked record of one contraction theorem's hypotheses.

    A pass rests on declared constants only: f's Lipschitz constant (or its
    lipschitz_curve in a radius search), the kernels' envelopes and the
    stability data.  Without them certify raises CertificationError."""

    theorem_id: str
    variant: str
    verdict: str                      # pass | fail | degenerate-pass
    L_gamma: float
    rho: Optional[float] = None
    theta: Optional[float] = None
    xi0: Optional[float] = None
    witness_radius: Optional[float] = None
    base_point: Optional[SampledPath] = None
    base_sup: Optional[float] = None
    constants: Optional[EnvelopeConstants] = None
    violated: Optional[str] = None
    slack: Optional[float] = None
    audit: list = field(default_factory=list)
    label: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "degenerate-pass")

    @property
    def certificate_id(self) -> str:
        tag = self.label or self.variant
        return f"{self.theorem_id}:{tag}"

    def to_text(self) -> str:
        lines = [
            f"certificate: {self.certificate_id}",
            f"theorem_id: {self.theorem_id}",
            f"variant: {self.variant}",
            f"verdict: {self.verdict}",
            f"contraction_constant: {self.L_gamma:.12g}",
        ]
        for name in ("rho", "theta", "xi0", "witness_radius", "base_sup", "slack"):
            val = getattr(self, name)
            if val is not None:
                lines.append(f"{name}: {val:.12g}")
        if self.violated:
            lines.append(f"violated: {self.violated}")
        if self.constants is not None:
            lines.append("constants:")
            lines.extend(self.constants.audit_lines())
        if self.audit:
            lines.append("audit:")
            lines.extend("  " + a for a in self.audit)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# envelope constants per variant


def _grid_sup(t_grid, g, delayed, span, tol):
    """Max over t in t_grid of the norm of the integral of s -> g(t, s) over
    span on the delayed (no earlier than 0) or advanced side of t, to
    tolerance tol."""
    best = 0.0
    for t in map(float, t_grid):
        lo, hi = (max(0.0, t - span), t) if delayed else (t, t + span)
        if hi > lo:
            val = adaptive_integral(lambda s: g(t, s), lo, hi, tol)[0]
            best = max(best, float(np.linalg.norm(val)))
    return best


def compute_envelope_constants(spec: pb.ProblemSpec) -> EnvelopeConstants:
    """Integral constants the variant's inequalities consume: envelope masses
    in closed form, and gamma1/gamma2 sampled on spec.constants_grid()."""
    out = EnvelopeConstants(tol=spec.const_tol)

    if spec.variant in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY):
        k1 = spec.kernel_delayed
        out.alpha1 = envelope_constant(k1.envelope)
        out.N1 = envelope_constant(k1.lipschitz)
        k2 = spec.kernel_advanced
        if k2 is not None and not k2.is_zero:
            out.alpha2 = envelope_constant(k2.envelope)
            out.N2 = envelope_constant(k2.lipschitz)
        else:
            out.alpha2, out.N2 = 0.0, 0.0

    elif spec.variant == pb.HALF_LINE:
        b1, b2 = spec.split_delayed, spec.split_advanced
        out.P1 = envelope_constant(b1.theta)
        out.P2 = envelope_constant(b2.theta)
        out.beta1_h5 = envelope_constant(b1.aa_part.lipschitz)
        out.beta2_h5 = envelope_constant(b2.aa_part.lipschitz)
        # sup_t of int_0^t mu3_1 + int_t^inf mu3_2, approached as t -> inf
        out.Q1 = (envelope_constant(b1.ergodic_lipschitz)
                  + envelope_constant(b2.ergodic_lipschitz))
        # gamma_i: sup_t |int_0^t B_1(t, s, 0, 0) ds|, |int_t^inf B_2 ...|
        tol = spec.const_tol
        out.t_grid = spec.constants_grid()
        for name, part, delayed in (("gamma1", b1, True), ("gamma2", b2, False)):
            def at_zero(t, s, part=part):
                z = np.zeros((s.size, part.dim))
                return np.asarray(part.evaluator(np.full(s.size, t), s, z, z))
            span = part.envelope.truncation_span(tol / 2.0)
            setattr(out, name, _grid_sup(out.t_grid, at_zero, delayed, span,
                                         tol / 2.0))

    elif spec.memory_kernel is not None:
        # C_B: sup over s >= 0 of the integral over [0, s] of |B(s, tau)|,
        # bounded by the mass of the kernel's envelope
        out.C_B = envelope_constant(spec.memory_kernel.envelope)
    else:
        out.C_B = 0.0
    return out


# ---------------------------------------------------------------------------
# base points, Lipschitz and stability data


def compute_base_point(spec: pb.ProblemSpec) -> SampledPath:
    """Image of the zero function under the variant's integral operator: the
    spec's own base point, computed on its first read and shared by every
    certificate, audit and solve of that spec."""
    return spec.base_point


def _declared_lipschitz(q):
    """The Lipschitz constant f declares.  Samples could only bound it from
    below, so a certificate without a declared constant is refused."""
    if q.spec.f.lipschitz is None:
        raise CertificationError(
            "f declares no Lipschitz constant: certificates need "
            "Nonlinearity(lipschitz=...), or a lipschitz_curve for the radius "
            "search")
    q.audit.append(f"L_f = {q.spec.f.lipschitz:.12g}")
    return float(q.spec.f.lipschitz)


def _stability_constants(q):
    """(M, delta) of the decay record of the variant's propagator, its
    resolvent or else its evolution family.  A propagator without a record,
    or whose own samples refute it, is refused."""
    resolvent = q.spec.variant == pb.RESOLVENT_NONLOCAL
    which = "resolvent" if resolvent else "evolution family"
    record = (q.spec.resolvent if resolvent else q.spec.evolution).stability
    if record is None:
        raise CertificationError(f"the {which} has no stability record "
                                 "(certify_stability or certify_decay)")
    if not record.passed:
        # the samples refute the declared (M, delta): no theorem rests on it
        raise CertificationError(f"the {which}'s stability bound is refuted: "
                                 f"{record.lines[-1]}")
    q.audit.append(f"stability constants: M = {record.M:.12g}, delta = "
                   f"{record.delta:.12g} (sampled: checked on "
                   f"{record.n_samples} pairs)")
    return record.M, record.delta


def _state_bound(q):
    """Smallest state_bound among the problem's kernels, inf without any:
    a kernel's envelope, and every truncation that reads it, holds only for
    states inside its ball."""
    return min((k.state_bound for k in solver.kernel_terms(q.spec)
                if k is not None), default=np.inf)


_SCAN_LO, _SCAN_HI = 1e-3, 1e6  # the radius search's interval, capped at state_bound
_SCAN_POINTS = 1000              # log-grid points before the local refinement


def _radius_scan(objective, lo, hi):
    """Deterministic log-grid scan with golden refinement around the best point."""
    rs = np.logspace(np.log10(lo), np.log10(hi), _SCAN_POINTS)
    vals = objective(rs)
    i = int(np.argmax(vals))
    r_best, v_best = float(rs[i]), float(vals[i])
    a = rs[max(i - 1, 0)]
    b = rs[min(i + 1, rs.size - 1)]
    if a < b:
        r_min, f_min = bounded_minimum(
            lambda r: -float(objective(np.array([r]))[0]), float(a), float(b))
        if -f_min > v_best:
            r_best, v_best = float(r_min), float(-f_min)
    return r_best, v_best


# ---------------------------------------------------------------------------
# the theorem table

# per integral variant: the moduli in the contraction constant, and the
# forcing-plus-tails bound of the radius search with its description
_INTEGRAL_TERMS = {
    pb.ADVANCED_DELAYED: (lambda c: c.N1 + c.N2, lambda c, f0: f0 + c.alpha1 + c.alpha2,
                          "sup|f(.,0,0)| + alpha1 + alpha2"),
    pb.DELAYED_ONLY: (lambda c: c.N1, lambda c, f0: f0 + c.alpha1,
                      "alpha1 + sup|f(.,0,0)|"),
    pb.HALF_LINE: (lambda c: c.beta1_h5 + c.beta2_h5 + c.Q1,
                   lambda c, f0: f0 + c.gamma1 + c.gamma2,
                   "sup|f(.,0,0)| + gamma1 + gamma2"),
}


class _Inputs:
    """The inputs a row's formulas read, each computed on first read so that
    a row does exactly the work (constants, base point, stability) it needs."""

    def __init__(self, spec, rho):
        self.spec, self.rho, self.audit = spec, rho, []
        self.L = self.R = self.best = self.theta = None

    consts = cached_property(lambda q: compute_envelope_constants(q.spec))
    y0 = cached_property(lambda q: compute_base_point(q.spec))
    b = cached_property(lambda q: sup_norm(q.y0))
    ball_ratio = property(lambda q: q.rho / (q.rho + q.b))
    L_f = cached_property(_declared_lipschitz)
    L_f_at_R = property(lambda q: float(q.spec.f.curve(np.array([q.R]))[0]))
    sup_f0 = cached_property(lambda q: q.spec.sup_forcing_at_zero())
    moduli = property(lambda q: _INTEGRAL_TERMS[q.spec.variant][0](q.consts))
    forcing_bound = property(
        lambda q: _INTEGRAL_TERMS[q.spec.variant][1](q.consts, q.sup_f0))
    forcing_text = property(lambda q: _INTEGRAL_TERMS[q.spec.variant][2])
    stability = cached_property(_stability_constants)
    M = property(lambda q: q.stability[0])
    delta = property(lambda q: q.stability[1])
    L_g = property(lambda q: 0.0 if q.spec.nonlocal_map is None
                   else q.spec.nonlocal_map.lipschitz)
    g0 = property(lambda q: 0.0 if q.spec.nonlocal_map is None
                  else np.linalg.norm(q.spec.nonlocal_map.at_zero))
    C_B = property(lambda q: q.consts.C_B or 0.0)
    state_bound = cached_property(_state_bound)


class Inequality(NamedTuple):
    """lhs < rhs when strict, else lhs <= rhs; text names it when violated."""

    text: str
    lhs: Callable
    rhs: Callable
    strict: bool = True


class Theorem(NamedTuple):
    """One contraction theorem as data; see the module docstring."""

    id: str
    variants: tuple
    mode: str                             # ball | shifted | radius
    constant: Callable                    # inputs -> contraction constant
    inequalities: tuple
    theta: Optional[str] = None           # "decides" | "reported"
    objective: Optional[Callable] = None  # (inputs, r) -> radius-scan objective
    slack_of: int = -1                    # the inequality whose slack is reported
    xi0: bool = False                     # the constant is the paper's xi0
    notes: Optional[Callable] = None      # inputs -> extra audit lines


def _integral_constant(q):
    return 2.0 * (q.L_f + q.moduli)


def _xi0(q):
    # the history term enters the combined forcing with coefficient one
    L_F = q.L_f if q.spec.memory_kernel is None else max(1.0, q.L_f)
    return q.M * q.L_g + (q.M / q.delta) * (1.0 + q.C_B) * L_F


def _resolvent_constant(q):
    return q.M * q.L_g + (q.M / q.delta) * q.L_f


def _contraction(text, rhs=lambda q: 1.0):
    return Inequality(text, lambda q: q.L, rhs)


def _within_states(radius_text, radius):
    """The ball's states, up to radius, lie where every kernel's envelope
    holds."""
    return Inequality(f"state radius {radius_text} <= kernel state_bound",
                      radius, lambda q: q.state_bound, strict=False)


def _th33_notes(q):
    lines = ["note: |y0| in the growth condition is read as the uniform norm "
             "of the computed base point"]
    if q.spec.f.lipschitz is not None:
        flat = q.delta / q.M - q.delta * q.L_g - (1.0 + q.C_B) * q.spec.f.lipschitz
        lines.append(f"constant-Lipschitz flavour: delta/M - delta L_g - (1+C_B) "
                     f"L_F = {flat:.12g} {'(> 0)' if flat > 0 else '(<= 0)'}")
    return lines


_INTEGRAL = (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY, pb.HALF_LINE)
# the inequalities that read sup|f(.,0,0)| say it is sampled
_SAMPLED_F0 = f"[sup|f(.,0,0)| is a max over {pb.SUP_F0_SAMPLES} sampled points]"
_CONTAINED = Inequality("|y0| <= rho", lambda q: q.b, lambda q: q.rho, strict=False)
_THETA_WITHIN = Inequality("theta <= rho", lambda q: q.theta, lambda q: q.rho,
                           strict=False)
_BALL_24 = (_within_states("rho", lambda q: q.rho), _CONTAINED,
            _contraction("contraction < rho/(rho+|y0|)", lambda q: q.ball_ratio))

THEOREMS = (
    Theorem("th24", (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY), "ball",
            _integral_constant, _BALL_24),
    Theorem("thAAA24", (pb.HALF_LINE,), "ball", _integral_constant, _BALL_24),
    Theorem("teos2-ball", _INTEGRAL, "shifted", _integral_constant,
            (_within_states("|y0| + rho", lambda q: q.b + q.rho),
             _contraction("contraction constant < 1")), theta="decides"),
    Theorem("K-conditions", _INTEGRAL, "radius",
            lambda q: 2.0 * (q.L_f_at_R + q.moduli),
            (Inequality("sup_r objective > {q.forcing_text} " + _SAMPLED_F0,
                        lambda q: q.forcing_bound, lambda q: q.best),
             _contraction("contraction at witness radius")),
            objective=lambda q, r: r * (1.0 - 2.0 * np.asarray(q.spec.f.curve(r))
                                        - 2.0 * q.moduli),
            slack_of=0),
    Theorem("theoaaa1", (pb.EVOLUTION_NONLOCAL,), "ball", _xi0,
            (_CONTAINED, _contraction("xi0 <= rho/(rho+|y0|)", lambda q: q.ball_ratio)),
            xi0=True),
    Theorem("theoaaa12", (pb.EVOLUTION_NONLOCAL,), "shifted", _xi0,
            (_contraction("xi0 < 1"),), theta="decides", xi0=True),
    Theorem("th31", (pb.RESOLVENT_NONLOCAL,), "ball", _resolvent_constant,
            (Inequality("delta L_g + L_f < rho delta/(M(rho+|y0|))",
                        lambda q: q.delta * q.L_g + q.L_f,
                        lambda q: q.rho * q.delta / (q.M * (q.rho + q.b))),)),
    Theorem("th313", (pb.RESOLVENT_NONLOCAL,), "shifted", _resolvent_constant,
            (_contraction("M L_g + (M/delta) L_f < 1"),), theta="decides"),
    Theorem("th33", (pb.EVOLUTION_NONLOCAL, pb.RESOLVENT_NONLOCAL,
                     pb.DELAY_PARABOLIC), "radius",
            lambda q: q.M * q.L_g + (q.M / q.delta) * (1.0 + q.C_B) * q.L_f_at_R,
            (Inequality("growth condition " + _SAMPLED_F0,
                        lambda q: q.sup_f0 + q.delta * (q.b + q.g0),
                        lambda q: q.best),),
            objective=lambda q, r: (q.delta * r / q.M - q.delta * r * q.L_g
                                    - r * np.asarray(q.spec.f.curve(r)) * (1.0 + q.C_B)),
            notes=_th33_notes),
    Theorem("delay-final", (pb.DELAY_PARABOLIC,), "ball",
            lambda q: (q.M / q.delta) * q.L_f,
            (Inequality("(M/delta) sup|f(.,0)| <= rho " + _SAMPLED_F0,
                        lambda q: (q.M / q.delta) * q.sup_f0, lambda q: q.rho,
                        strict=False),
             Inequality("M L_f < rho delta/(rho+|x0|)",
                        lambda q: q.M * q.L_f,
                        lambda q: q.rho * q.delta / (q.rho + q.b))),
            theta="reported"),
)


def _evaluate(row: Theorem, spec, rho, slack_margin) -> ContractionCertificate:
    """Check one row's hypotheses on spec and record the certificate."""
    def check(ineq):
        lhs, rhs = float(ineq.lhs(q)), float(ineq.rhs(q))
        holds = rhs - lhs > slack_margin if ineq.strict else lhs <= rhs
        text = ineq.text.format(q=q)
        q.audit.append(f"{text}: lhs {lhs:.12g}, rhs {rhs:.12g}, slack {rhs - lhs:.3g}"
                       f" ({'strict' if ineq.strict else 'non-strict'}): "
                       f"{'holds' if holds else 'VIOLATED'}")
        return text, rhs - lhs, holds

    if row.objective is None and (rho is None or not rho > 0.0):
        raise CertificationError(f"theorem {row.id} needs a positive rho, got {rho!r}")
    q = _Inputs(spec, rho)
    if row.objective is not None:
        if spec.f.lipschitz is None and spec.f.lipschitz_curve is None:
            raise CertificationError("radius search needs Lipschitz data for f")
        # the ball of radius R must lie where every kernel's envelope holds
        hi = min(_SCAN_HI, q.state_bound)
        if hi < _SCAN_LO:
            raise CertificationError(
                f"kernel state_bound {hi:g} is below the radius search's "
                f"least radius {_SCAN_LO:g}")
        q.R, q.best = _radius_scan(lambda r: row.objective(q, r),
                                   _SCAN_LO, hi)
        q.audit.append(f"objective sup over r in [{_SCAN_LO:g}, {hi:g}]: "
                       f"{q.best:.12g} at R = {q.R:.6g}")
    q.L = row.constant(q)
    q.audit.append(f"contraction constant: {q.L:.12g}")
    checks = [check(ineq) for ineq in row.inequalities]
    degenerate = False
    if ((row.theta == "reported" and q.L < 1.0)
            or (row.theta == "decides" and all(c[2] for c in checks))):
        gap = sup_distance(solver.apply_operator(spec, q.y0), q.y0)
        q.theta = gap / (1.0 - q.L)
        q.audit.append(f"|Gamma y0 - y0| = {gap:.12g}, theta = {q.theta:.12g} "
                       f"({row.theta})")
        if row.theta == "decides":
            checks.append(check(_THETA_WITHIN))
            degenerate = gap <= 2.0 * spec.quad_tol
    if row.notes is not None:
        q.audit.extend(row.notes(q))
    failed = [text for text, _, holds in checks if not holds]
    verdict = "fail" if failed else "pass"
    if degenerate:
        verdict, failed = "degenerate-pass", []
        q.audit.append("base point is already a fixed point within quadrature "
                       "tolerance; solution is y0")
    # ball certificates record their base point; radius searches only when read
    y0 = q.y0 if row.objective is None else vars(q).get("y0")
    return ContractionCertificate(
        theorem_id=row.id, variant=spec.variant, verdict=verdict, L_gamma=q.L,
        rho=rho, theta=q.theta, xi0=q.L if row.xi0 else None,
        witness_radius=q.R, base_point=y0, base_sup=None if y0 is None else q.b,
        constants=q.consts, violated=failed[0] if failed else None,
        slack=checks[row.slack_of][1], audit=q.audit, label=spec.label)


def _resolve(variant: str, mode: str, theorem: Optional[str]) -> Theorem:
    """The row of an explicit theorem, which must list the variant, else the
    variant's row for mode."""
    rows = [r for r in THEOREMS if (r.id == theorem if theorem is not None
                                    else r.mode == mode) and variant in r.variants]
    if not rows:
        what = f"theorem {theorem!r}" if theorem is not None else f"{mode!r} theorem"
        raise CertificationError(
            f"no {what} for {variant!r} problems (theorems: "
            + ", ".join(r.id for r in THEOREMS) + "; modes: ball, shifted, radius)")
    return rows[0]


# ---------------------------------------------------------------------------
# entry points: each picks a row of the table


def certify(spec: pb.ProblemSpec, rho: float = None, mode: str = "ball",
            theorem: str = None,
            slack_margin: float = DEFAULT_SLACK) -> ContractionCertificate:
    """Certificate of theorem, or else of the variant's theorem for mode."""
    return _evaluate(_resolve(spec.variant, mode, theorem), spec, rho, slack_margin)


def certify_ball_zero(spec: pb.ProblemSpec, rho: float,
                      slack_margin: float = DEFAULT_SLACK) -> ContractionCertificate:
    """Ball-around-zero certificate (th24, thAAA24): L < rho / (rho + |y0|)."""
    return certify(spec, rho, "ball", slack_margin=slack_margin)


def certify_evolution(spec: pb.ProblemSpec, rho: float, theorem: str = None,
                      slack_margin: float = DEFAULT_SLACK) -> ContractionCertificate:
    """Evolution-variant certificate: theorem, by default the variant's ball
    theorem (theoaaa1, th31 or delay-final)."""
    return certify(spec, rho, "ball", theorem, slack_margin)


# ---------------------------------------------------------------------------
# recurrence-transfer hypotheses


@dataclass
class HypothesisReport:
    rho: float
    passed: bool
    lines: list = field(default_factory=list)

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"


def certify_bohr_neugebauer_hypotheses(spec: pb.ProblemSpec) -> HypothesisReport:
    """Smallness condition under which bounded solutions with relatively
    compact range inherit the recurrence of the data: the nonlinearity
    constant plus the supremum of the one-sided Lipschitz-modulus integrals
    must stay below one, and every time warp must preserve recurrence: an
    identity or shift does, a tabulated a(t) is not known to."""
    if spec.variant not in (pb.ADVANCED_DELAYED, pb.DELAYED_ONLY):
        raise CertificationError("the recurrence-transfer condition applies to "
                                 "the full-line integral-equation variants")
    L_f = spec.effective_lipschitz()
    sup_mu = envelope_constant(spec.kernel_delayed.lipschitz)
    if spec.variant == pb.ADVANCED_DELAYED and spec.kernel_advanced is not None:
        sup_mu += envelope_constant(spec.kernel_advanced.lipschitz)
    rho = L_f + sup_mu
    warps_ok = all(spec.warp(k).kind != "tabulated" for k in ("a0", "a1", "a2"))
    lines = [
        f"recurrence-transfer smallness: L_f + sup_t(moduli integrals) = "
        f"{rho:.12g} (closed form)",
        f"time warps preserve recurrence: {'yes' if warps_ok else 'NO'}",
        f"verdict: {'pass' if rho < 1.0 and warps_ok else 'fail'}",
    ]
    if spec.variant == pb.DELAYED_ONLY:
        lines.append("delayed-only flavour: only the delayed modulus enters")
    lines.append("note: the statement is applied to both one- and two-kernel "
                 "problems; the two-kernel reading is the one the proof uses")
    return HypothesisReport(rho=rho, passed=(rho < 1.0 and warps_ok),
                            lines=lines)
