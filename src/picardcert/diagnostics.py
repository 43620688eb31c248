"""Heuristic recurrence diagnostics for computed solutions.

These tests probe, at a finite resolution, the structure the certificates
speak about: double-limit recurrence of shifted copies of a path, relative
compactness of its sampled range, and the split of a half-line path into a
recurrent component plus one vanishing at forward infinity.

Every verdict here is heuristic and labelled so: pointwise double limits
over infinite sequences are not decidable from finite data, and a verdict of
"consistent" only means consistent with the property at the tested
resolution.  Verdicts are reproducible: the subsequence extraction and all
tie-breaks are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .paths import (AAADecomposition, FULL_LINE, HALF_LINE, SampledPath,
                    TAIL_CONSTANT, TAIL_DECAY, range_epsilon_net)

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
INDETERMINATE = "indeterminate"


@dataclass
class DiagnosticReport:
    kind: str
    verdict: str
    shifts: Optional[np.ndarray] = None
    accepted: Optional[np.ndarray] = None
    forward_residuals: Optional[np.ndarray] = None
    backward_residuals: Optional[np.ndarray] = None
    net_sizes: Optional[list] = None          # [(lo, hi, size), ...]
    evidence: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"diagnostic: {self.kind}", f"verdict: {self.verdict} "
                 "(heuristic: consistent-at-tested-resolution, not a proof)"]
        if self.accepted is not None and self.shifts is not None:
            lines.append(f"shifts: {len(self.shifts)} offered, "
                         f"{len(self.accepted)} kept by the recurrence filter")
        if self.forward_residuals is not None and len(self.forward_residuals):
            fr = self.forward_residuals
            lines.append(f"forward residuals: first {fr[0]:.6g}, last {fr[-1]:.6g}")
        if self.backward_residuals is not None and len(self.backward_residuals):
            br = self.backward_residuals
            lines.append(f"backward residuals: first {br[0]:.6g}, last {br[-1]:.6g}")
        if self.net_sizes:
            for lo, hi, size in self.net_sizes:
                lines.append(f"net size on [{lo:g}, {hi:g}]: {size}")
        for k, v in self.evidence.items():
            if isinstance(v, (int, float, str, bool)):
                lines.append(f"{k}: {v}")
        lines += ["note: " + n for n in self.notes]
        return "\n".join(lines) + "\n"

    def residual_csv_text(self) -> str:
        rows = ["index,shift,forward_residual,backward_residual"]
        if self.accepted is None:
            return rows[0] + "\n"
        for j, idx in enumerate(self.accepted):
            s = self.shifts[idx] if self.shifts is not None else float("nan")
            f = (self.forward_residuals[j]
                 if self.forward_residuals is not None and j < len(self.forward_residuals)
                 else float("nan"))
            b = (self.backward_residuals[j]
                 if self.backward_residuals is not None and j < len(self.backward_residuals)
                 else float("nan"))
            rows.append(f"{int(idx)},{repr(float(s))},{repr(float(f))},{repr(float(b))}")
        return "\n".join(rows) + "\n"


def greedy_cauchy_filter(vectors: np.ndarray, tol: float):
    """Deterministic subsequence extraction by clustering around an anchor.

    The anchor is the vector with the most tol-neighbours (earliest index on
    ties); the filter then keeps neighbours through a tolerance ladder
    (tol, tol/2, tol/4), emulating a diagonal argument at three depths.
    Returns (sorted accepted indices, per-level bookkeeping).
    """
    V = np.asarray(vectors, dtype=float)
    n = V.shape[0]
    D = np.max(np.abs(V[:, None, :] - V[None, :, :]), axis=2)
    counts = (D <= tol).sum(axis=1)
    anchor = int(np.argmax(counts))
    accepted = np.arange(n)
    levels = []
    for depth, level_tol in enumerate((tol, tol / 2.0, tol / 4.0)):
        keep = accepted[D[anchor, accepted] <= level_tol]
        levels.append({"tol": float(level_tol), "kept": int(keep.size)})
        if depth == 0:
            accepted = keep  # membership in the base cluster is mandatory
            if keep.size < 4:
                break
        elif keep.size < 4:
            break  # refine only while a usable subsequence survives
        else:
            accepted = keep
    return [int(i) for i in np.sort(accepted)], levels


def _probe_vector(p: SampledPath, times: np.ndarray) -> np.ndarray:
    return np.asarray(p.evaluate(times), dtype=float).ravel()


def bochner_test(p: SampledPath, shifts, probe_grid, tol: float
                 ) -> DiagnosticReport:
    """Double-limit recurrence test on probe values of shifted copies.

    Probe vectors p(probe + s_n) are filtered for mutual closeness; the
    empirical limit is the average over the last quartile of kept shifts;
    the backward residuals then compare the limit shifted back against p.
    Consistent means both residual sequences end below tol without growing.
    """
    shifts = np.asarray(shifts, dtype=float)
    probe = np.asarray(probe_grid, dtype=float)
    if shifts.size < 4:
        raise ValueError("need at least four shifts")
    s_min, s_max = float(np.min(shifts)), float(np.max(shifts))
    span = s_max - s_min
    # forward reads probe + s_n, backward reads probe - s_i + s_k
    need_lo = probe[0] + min(s_min, -span)
    need_hi = probe[-1] + max(s_max, span)
    if p.t_min > need_lo or p.t_max < need_hi:
        raise ValueError(
            f"window too small: path covers [{p.t_min:g}, {p.t_max:g}] but the "
            f"shift plan needs [{need_lo:g}, {need_hi:g}]")

    vectors = np.array([_probe_vector(p, probe + s) for s in shifts])
    accepted, levels = greedy_cauchy_filter(vectors, tol)
    notes = ["heuristic verdict at the tested resolution"]
    if len(accepted) < 4:
        return DiagnosticReport(
            kind="recurrence_double_limit", verdict=INCONSISTENT,
            shifts=shifts, accepted=np.asarray(accepted, dtype=int),
            forward_residuals=np.empty(0), backward_residuals=np.empty(0),
            evidence={"filter_levels": levels,
                      "reason": "probe vectors fail the closeness filter"},
            notes=notes)

    q = max(1, len(accepted) // 4)
    tail = accepted[-q:]
    limit_vec = vectors[tail].mean(axis=0)
    fwd = np.array([float(np.max(np.abs(vectors[i] - limit_vec)))
                    for i in accepted])

    base_vec = _probe_vector(p, probe)
    tail_shifts = shifts[tail]
    bwd = []
    for i in accepted:
        back_times = (probe[None, :] - shifts[i]) + tail_shifts[:, None]
        back_vals = np.array([_probe_vector(p, row) for row in back_times])
        bwd.append(float(np.max(np.abs(back_vals.mean(axis=0) - base_vec))))
    bwd = np.array(bwd)

    def trend_ok(r):
        return r[-1] <= tol and (r[-1] <= r[0] + 1e-12 or r[0] <= tol)

    if trend_ok(fwd) and trend_ok(bwd):
        verdict = CONSISTENT
    elif min(fwd[-1], bwd[-1]) <= 2 * tol:
        verdict = INDETERMINATE
    else:
        verdict = INCONSISTENT
    return DiagnosticReport(
        kind="recurrence_double_limit", verdict=verdict, shifts=shifts,
        accepted=np.asarray(accepted, dtype=int), forward_residuals=fwd,
        backward_residuals=bwd,
        evidence={"filter_levels": levels, "tol": tol,
                  "tail_average_size": q},
        notes=notes)


def range_compactness_trend(p: SampledPath, eps: float, windows
                            ) -> DiagnosticReport:
    """Covering-net sizes of the sampled range over growing windows.

    Stabilising sizes (last two equal) are the finite proxy for a relatively
    compact range; growing sizes flag an escaping trajectory.
    """
    sizes = []
    for lo, hi in windows:
        sub = p.restrict(float(lo), float(hi))
        _, size = range_epsilon_net(sub, eps)
        sizes.append((float(lo), float(hi), int(size)))
    notes = []
    if p.dim == 1:
        notes.append("scalar range: bounded intervals are always totally "
                     "bounded, so this reduces to a boundedness check")
    verdict = CONSISTENT if sizes[-1][2] == sizes[-2][2] else INCONSISTENT
    return DiagnosticReport(kind="range_compactness", verdict=verdict,
                            net_sizes=sizes, evidence={"eps": eps},
                            notes=notes)


def interior_residual(spec, p: SampledPath) -> float:
    """Fixed-point residual of a path on the interior of its window.

    The path is re-tailed for constant extension; nodes within one kernel
    truncation span of the edges are excluded so the edge effect of the
    finite window does not pollute the residual.
    """
    from . import solver

    y = SampledPath(p.grid, p.values, domain_kind=p.domain_kind,
                    interpolation=p.interpolation, tail_policy=TAIL_CONSTANT)
    image = solver.apply_operator(spec, y)
    margin = max(solver.kernel_span(spec, k) for k in solver.kernel_terms(spec))
    mask = (y.grid >= y.grid[0] + margin) & (y.grid <= y.grid[-1] - margin)
    if not mask.any():
        mask = slice(None)
    gap = np.linalg.norm(y.values - image.values, axis=1)
    return float(np.max(gap[mask]))


def bohr_neugebauer_verdict(spec, p: SampledPath, shifts, probe_grid,
                            tol: float, eps: float, windows,
                            residual_tol: float = 1e-3) -> DiagnosticReport:
    """Two-sided audit of the recurrence/compact-range equivalence for a path
    claimed to solve the equation.

    Requires the smallness hypotheses to certify first; then runs the
    covering-net trend and the double-limit test and reports whether the two
    sides agree, together with the fixed-point residual of the path.
    """
    from .certify import CertificationError, certify_bohr_neugebauer_hypotheses

    hyp = certify_bohr_neugebauer_hypotheses(spec)
    if not hyp.passed:
        raise CertificationError(
            f"smallness hypotheses not certified (rho = {hyp.rho:.6g})")
    res = interior_residual(spec, p)
    compact = range_compactness_trend(p, eps, windows)
    recur = bochner_test(p, shifts, probe_grid, tol)
    agree = compact.verdict == recur.verdict
    verdict = compact.verdict if agree else INDETERMINATE
    res_tag = "solution-like" if res <= residual_tol else "NOT a solution at this tolerance"
    notes = [f"hypothesis constant rho = {hyp.rho:.6g} < 1",
             f"fixed-point residual of the path: {res:.6g} ({res_tag})",
             f"compact-range side: {compact.verdict}; "
             f"double-limit side: {recur.verdict}; "
             f"agreement: {'yes' if agree else 'no'}"]
    return DiagnosticReport(
        kind="recurrence_equivalence", verdict=verdict,
        shifts=recur.shifts, accepted=recur.accepted,
        forward_residuals=recur.forward_residuals,
        backward_residuals=recur.backward_residuals,
        net_sizes=compact.net_sizes,
        evidence={"residual": res, "sides_agree": agree,
                  "hypothesis_rho": hyp.rho},
        notes=notes)


# ---------------------------------------------------------------------------
# asymptotic split estimation


def _detect_frequencies(t: np.ndarray, resid: np.ndarray, max_freqs: int):
    """Dominant angular frequencies of a uniformly resampled residual."""
    m = 1 << int(np.ceil(np.log2(max(t.size, 16))))
    tu = np.linspace(t[0], t[-1], m)
    ru = np.interp(tu, t, resid)
    ru = ru - ru.mean()
    spec = np.abs(np.fft.rfft(ru)) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(m, d=(tu[1] - tu[0]))
    spec[0] = 0.0
    # frequencies below one full period over the tail window cannot be
    # resolved and produce ill-conditioned near-linear terms
    w_min = 2.0 * np.pi / (t[-1] - t[0])
    peaks = []
    for i in range(1, spec.size - 1):
        if spec[i] >= spec[i - 1] and spec[i] >= spec[i + 1]:
            peaks.append((spec[i], freqs[i]))
    peaks.sort(key=lambda x: (-x[0], x[1]))
    total = float(spec.sum()) or 1.0
    out = []
    for power, w in peaks[: 4 * max_freqs]:
        if power / total < 1e-6 or w < w_min:
            continue
        if all(abs(w - w0) > 0.5 * (freqs[1] - freqs[0]) for w0 in out):
            out.append(float(w))
        if len(out) == max_freqs:
            break
    return out, float(freqs[1] - freqs[0]), w_min


def _trig_design(t: np.ndarray, omegas):
    cols = [np.ones_like(t)]
    for w in omegas:
        cols += [np.cos(w * t), np.sin(w * t)]
    return np.stack(cols, axis=1)


def _fit_model(t, vals, omegas):
    X = _trig_design(t, omegas)
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    sse = float(np.sum((vals - X @ coef) ** 2))
    return coef, sse


@dataclass
class SplitFitReport:
    omegas: list
    sse: float
    tail_span: tuple
    lines: list = field(default_factory=list)


def aaa_split_estimate(p: SampledPath, split_time: float, max_freqs: int = 3,
                       min_tail_points: int = 64):
    """Estimate the asymptotic split of a half-line path.

    The recurrent component is fitted on the tail t >= split_time (where the
    vanishing component is below tolerance) as a small trigonometric model
    with refined frequencies, extended to the full line; the vanishing
    component is the pointwise remainder on the half line.  Returns
    (decomposition, residual beyond split_time, fit report).
    """
    if p.domain_kind != HALF_LINE:
        raise ValueError("split estimation expects a half-line path")
    mask = p.grid >= split_time
    if mask.sum() < min_tail_points:
        raise ValueError(
            f"tail too short: {int(mask.sum())} nodes at t >= {split_time:g}, "
            f"need {min_tail_points}")
    t_tail = p.grid[mask]
    v_tail = p.values[mask]

    # shared frequency detection on the aggregate signal, per-component fit
    agg = np.linalg.norm(v_tail - v_tail.mean(axis=0), axis=1) \
        if p.dim > 1 else v_tail[:, 0]
    omegas, bin_width, w_min = _detect_frequencies(t_tail, agg, max_freqs)

    refined = []
    for w0 in omegas:
        held = refined + [w for w in omegas if w != w0 and w not in refined]

        def sse_of(w):
            _, sse = _fit_model(t_tail, v_tail, held + [float(w)])
            return sse

        res = minimize_scalar(sse_of, bounds=(max(w0 - bin_width, w_min),
                                              w0 + bin_width),
                              method="bounded", options={"xatol": 1e-12})
        refined.append(float(res.x))
    coef, sse = _fit_model(t_tail, v_tail, refined)

    steps = np.diff(p.grid)
    if np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
        h = float(steps[0])
        full_grid = -p.t_max + h * np.arange(int(round(2 * p.t_max / h)) + 1)
    else:
        full_grid = np.linspace(-p.t_max, p.t_max, 2 * p.n_nodes - 1)
    principal_vals = _trig_design(full_grid, refined) @ coef
    principal = SampledPath(full_grid, principal_vals, domain_kind=FULL_LINE,
                            interpolation=p.interpolation,
                            tail_policy=TAIL_CONSTANT)
    ergodic_vals = p.values - (_trig_design(p.grid, refined) @ coef)
    ergodic = SampledPath(p.grid, ergodic_vals, domain_kind=HALF_LINE,
                          interpolation=p.interpolation,
                          tail_policy=TAIL_DECAY)
    dec = AAADecomposition(principal, ergodic)
    residual = float(np.max(np.linalg.norm(ergodic_vals[mask], axis=1)))
    report = SplitFitReport(
        omegas=refined, sse=sse, tail_span=(float(t_tail[0]), float(t_tail[-1])),
        lines=[f"fitted frequencies: {', '.join(f'{w:.9g}' for w in refined) or 'none'}",
               f"tail fit SSE: {sse:.6g}",
               f"remainder beyond t = {split_time:g}: {residual:.6g}"])
    return dec, residual, report
