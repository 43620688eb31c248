"""Heuristic recurrence diagnostics for computed solutions.

These tests probe, at a finite resolution, the structure the certificates
speak about: double-limit recurrence of shifted copies of a path, relative
compactness of its sampled range (in R^d, boundedness), and the split of a
half-line path into a recurrent component plus one vanishing at forward
infinity.

Every verdict here is heuristic and labelled so: pointwise double limits
over infinite sequences are not decidable from finite data, and a verdict of
"consistent" only means consistent with the property at the tested
resolution.  Verdicts are reproducible: the subsequence extraction and all
tie-breaks are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .minimize import bounded_minimum
from .paths import (DomainEscapeError, HALF_LINE, SampledPath, TAIL_CONSTANT,
                    sup_norm)

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
INDETERMINATE = "indeterminate"
_RESIDUAL_TOL = 1e-3  # interior residual above which a path is "NOT a solution"


@dataclass
class DiagnosticReport:
    kind: str
    verdict: str
    shifts: Optional[np.ndarray] = None
    accepted: Optional[np.ndarray] = None
    forward_residuals: Optional[np.ndarray] = None
    backward_residuals: Optional[np.ndarray] = None
    window_sups: Optional[list] = None        # [(lo, hi, sup), ...]
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
        if self.window_sups:
            for lo, hi, sup in self.window_sups:
                lines.append(f"sup norm on [{lo:g}, {hi:g}]: {sup:.6g}")
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


def bochner_test(p, shifts, probe_grid, tol: float) -> DiagnosticReport:
    """Double-limit recurrence test on probe values of shifted copies of p, a
    SampledPath or a split's TrigSum (anything with evaluate, t_min, t_max).

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
        raise DomainEscapeError(
            f"window too small: path covers [{p.t_min:g}, {p.t_max:g}] but the "
            f"shift plan needs [{need_lo:g}, {need_hi:g}]")

    # one read per probe set: row n holds p(probe + s_n), flattened
    vectors = p.evaluate(probe[None, :] + shifts[:, None]).reshape(shifts.size, -1)
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

    base_vec = p.evaluate(probe).ravel()
    tail_shifts = shifts[tail]
    bwd = []
    for i in accepted:
        back_times = (probe[None, :] - shifts[i]) + tail_shifts[:, None]
        back_vals = p.evaluate(back_times).reshape(q, -1)
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
    """Sup norm of the path over growing windows.

    In R^d a relatively compact range is a bounded one (Heine-Borel), so the
    finite proxy is a sup that stops growing: the last window's sup exceeds
    the one before it by at most eps.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    sups = [(float(lo), float(hi), sup_norm(p.restrict(float(lo), float(hi))))
            for lo, hi in windows]
    verdict = CONSISTENT if sups[-1][2] - sups[-2][2] <= eps else INCONSISTENT
    return DiagnosticReport(kind="range_compactness", verdict=verdict,
                            window_sups=sups, evidence={"eps": eps})


def join_sides(recur: DiagnosticReport, compact: DiagnosticReport
               ) -> DiagnosticReport:
    """Fold the compact-range side into the double-limit report recur; the
    sides disagreeing makes the verdict indeterminate."""
    agree = compact.verdict == recur.verdict
    recur.window_sups = compact.window_sups
    recur.evidence["sides_agree"] = agree
    recur.notes.append(f"compact-range side: {compact.verdict}; "
                       f"double-limit side: {recur.verdict}; "
                       f"agreement: {'yes' if agree else 'no'}")
    if not agree:
        recur.verdict = INDETERMINATE
    return recur


def interior_residual(spec, p: SampledPath) -> float:
    """Fixed-point residual of a path on the interior of its window.

    The path is re-tailed for constant extension; nodes within one kernel
    truncation span of the edges are excluded so the edge effect of the
    finite window does not pollute the residual.
    """
    from . import solver

    y = SampledPath(p.grid, p.values, domain_kind=p.domain_kind,
                    tail_policy=TAIL_CONSTANT)
    image = solver.apply_operator(spec, y)
    margin = max(solver.kernel_span(spec, k) for k in solver.kernel_terms(spec))
    mask = (y.grid >= y.grid[0] + margin) & (y.grid <= y.grid[-1] - margin)
    if not mask.any():
        mask = slice(None)
    gap = np.linalg.norm(y.values - image.values, axis=1)
    return float(np.max(gap[mask]))


def bohr_neugebauer_verdict(spec, p: SampledPath, shifts, probe_grid,
                            tol: float, eps: float, windows) -> DiagnosticReport:
    """Two-sided audit of the recurrence/compact-range equivalence for a path
    claimed to solve the equation.

    Requires the smallness hypotheses to certify first; then joins the
    double-limit test and the window-sup trend (join_sides) and adds the
    fixed-point residual of the path.
    """
    from .certify import CertificationError, certify_bohr_neugebauer_hypotheses

    hyp = certify_bohr_neugebauer_hypotheses(spec)
    if not hyp.passed:
        warp = "" if hyp.rho >= 1.0 else "; a time warp does not preserve recurrence"
        raise CertificationError(
            f"smallness hypotheses not certified (rho = {hyp.rho:.6g}{warp})")
    res = interior_residual(spec, p)
    rep = join_sides(bochner_test(p, shifts, probe_grid, tol),
                     range_compactness_trend(p, eps, windows))
    res_tag = "solution-like" if res <= _RESIDUAL_TOL else "NOT a solution at this tolerance"
    rep.kind = "recurrence_equivalence"
    rep.evidence.update(residual=res, hypothesis_rho=hyp.rho)
    rep.notes[:0] = [f"hypothesis constant rho = {hyp.rho:.6g} < 1",
                     f"fixed-point residual of the path: {res:.6g} ({res_tag})"]
    return rep


# ---------------------------------------------------------------------------
# asymptotic split estimation

_MAX_FREQS = 3          # frequencies in the recurrent component's model
_MIN_TAIL_POINTS = 64   # grid nodes the tail fit needs at t >= split_time


def _detect_frequencies(t: np.ndarray, resid: np.ndarray):
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
    # local maxima, by power descending, then frequency ascending
    inner = spec[1:-1]
    peaks = 1 + np.flatnonzero((inner >= spec[:-2]) & (inner >= spec[2:]))
    peaks = peaks[np.argsort(-spec[peaks], kind="stable")][: 4 * _MAX_FREQS]
    total = float(spec.sum()) or 1.0
    out = []
    for power, w in zip(spec[peaks], freqs[peaks]):
        if power / total < 1e-6 or w < w_min:
            continue
        if all(abs(w - w0) > 0.5 * (freqs[1] - freqs[0]) for w0 in out):
            out.append(float(w))
        if len(out) == _MAX_FREQS:
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


def _trial_sse(t, vals, held):
    """w -> the SSE of _fit_model(t, vals, held + [w]), by projection.

    The variables separate (G. H. Golub and V. Pereyra, SIAM J. Numer. Anal.
    10, 1973): the held design is factored once, and a trial orthogonalises
    only cos(wt) and sin(wt), against it and each other, and reads the SSE
    from the residual they leave.  A trial column whose orthogonal part is
    below lstsq's cut-off is dropped, as lstsq's minimum-norm solution drops
    it: a trial on a held frequency reads the held-only SSE.
    """
    Q, _ = np.linalg.qr(_trig_design(t, held))
    QT = np.ascontiguousarray(Q.T)
    resid = np.ascontiguousarray((vals - Q @ (QT @ vals)).T)  # (d, n)
    # the squared cut-off: eps max(shape) times the design's scale, sqrt(n)
    floor = (np.finfo(float).eps * t.size) ** 2 * t.size

    def sse_of(w):
        wt = w * t
        X = np.array((np.cos(wt), np.sin(wt)))
        res, kept = resid, []
        for p in X - (X @ Q) @ QT:
            for q in kept:
                p = p - (q @ p) * q
            norm2 = p @ p
            if norm2 > floor:
                q = p / math.sqrt(norm2)
                kept.append(q)
                res = res - (res @ q)[:, None] * q
        return float(np.vdot(res, res))
    return sse_of


@dataclass(frozen=True)
class TrigSum:
    """c0 + sum_k a_k cos(omega_k t) + b_k sin(omega_k t), defined on the
    whole line: coef holds the rows (c0, a_1, b_1, ...), one column per
    component."""

    omegas: tuple
    coef: np.ndarray
    t_min = -math.inf
    t_max = math.inf

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        vals = _trig_design(t.ravel(), self.omegas) @ self.coef
        return vals.reshape(t.shape + (self.coef.shape[1],))


def aaa_split_estimate(p: SampledPath, split_time: float):
    """Estimate the asymptotic split of a half-line path.

    The recurrent component is fitted on the tail t >= split_time (at least
    _MIN_TAIL_POINTS nodes, where the vanishing component is below tolerance)
    as a trigonometric sum of at most _MAX_FREQS refined frequencies, which
    is defined on the whole line; the vanishing component is the remainder
    p - recurrent on the half line.  Returns (recurrent, residual beyond
    split_time, fit report lines).
    """
    if p.domain_kind != HALF_LINE:
        raise ValueError("split estimation expects a half-line path")
    mask = p.grid >= split_time
    if mask.sum() < _MIN_TAIL_POINTS:
        raise ValueError(
            f"tail too short: {int(mask.sum())} nodes at t >= {split_time:g}, "
            f"need {_MIN_TAIL_POINTS}")
    t_tail = p.grid[mask]
    v_tail = p.values[mask]

    # shared frequency detection on the aggregate signal, per-component fit
    agg = np.linalg.norm(v_tail - v_tail.mean(axis=0), axis=1) \
        if p.dim > 1 else v_tail[:, 0]
    omegas, bin_width, w_min = _detect_frequencies(t_tail, agg)

    # search k refines omegas[k] with the k refined frequencies and the
    # detected ones after it held
    refined = []
    for k, w0 in enumerate(omegas):
        held = refined + omegas[k + 1:]
        w_fit, _ = bounded_minimum(_trial_sse(t_tail, v_tail, held),
                                   max(w0 - bin_width, w_min), w0 + bin_width)
        refined.append(float(w_fit))
    coef, sse = _fit_model(t_tail, v_tail, refined)

    recurrent = TrigSum(tuple(refined), coef)
    vanishing = p.values - recurrent.evaluate(p.grid)
    residual = float(np.max(np.linalg.norm(vanishing[mask], axis=1)))
    lines = [
        # bounded_minimum resolves a frequency to about 1.5e-8 relative
        f"fitted frequencies: {', '.join(f'{w:.7g}' for w in refined) or 'none'}",
        f"tail fit SSE: {sse:.6g}",
        f"remainder beyond t = {split_time:g}: {residual:.6g}"]
    return recurrent, residual, lines
