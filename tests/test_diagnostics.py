from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import picardcert as pc
from picardcert import diagnostics
from picardcert import problem as pb
from picardcert.diagnostics import (INCONSISTENT, CONSISTENT, aaa_split_estimate,
                                    bochner_test, bohr_neugebauer_verdict,
                                    greedy_cauchy_filter,
                                    range_compactness_trend)
from picardcert.minimize import bounded_minimum
from picardcert.cli import main
from picardcert.paths import SampledPath, read_csv, sup_norm

from _oracles import psi


def sampled(func, lo, hi, h, **kw):
    grid = np.arange(lo, hi + h / 2, h)
    return SampledPath(grid, func(grid), **kw)


PROBE = np.linspace(-3.0, 3.0, 25)


# -- double-limit recurrence test ----------------------------------------------------

def test_constant_path_consistent():
    p = sampled(lambda t: np.full_like(t, 2.5), -200, 200, 0.5)
    rep = bochner_test(p, shifts=np.linspace(0, 150, 20), probe_grid=PROBE,
                       tol=1e-9)
    assert rep.verdict == CONSISTENT
    assert rep.forward_residuals.max() == 0.0


def test_periodic_path_with_period_shifts():
    p = sampled(np.sin, -300, 300, 0.02)
    shifts = 2 * np.pi * np.arange(1, 16)
    rep = bochner_test(p, shifts, PROBE, tol=1e-4)
    assert rep.verdict == CONSISTENT
    assert rep.forward_residuals[-1] <= 1e-6  # interpolation-level residual


def test_periodic_path_generic_arithmetic_shifts():
    # an arithmetic shift sequence equidistributes the phase; the filter finds
    # the recurrence cluster by itself
    p = sampled(np.sin, -400, 400, 0.02)
    shifts = 0.5 * np.arange(1, 201)
    rep = bochner_test(p, shifts, PROBE, tol=0.15)
    assert rep.verdict == CONSISTENT
    assert len(rep.accepted) >= 5


def test_recurrent_nonperiodic_signal_vs_chirp():
    # shifts along the denominators of the sqrt(2) continued fraction bring
    # both phases of the signal back together; the chirp has no recurrence
    q = 985
    shifts = 2 * np.pi * q * np.arange(1, 9)
    h = 0.05
    span = float(shifts.max())
    grid = np.arange(PROBE[0] - span - 1, PROBE[-1] + span + 1 + h / 2, h)
    p = SampledPath(grid, psi(grid), tail_policy="constant")
    rep = bochner_test(p, shifts, PROBE, tol=0.05)
    assert rep.verdict == CONSISTENT

    chirp = SampledPath(grid, np.sin(0.05 * grid ** 2 % (2 * np.pi)),
                        tail_policy="constant")
    rep2 = bochner_test(chirp, shifts, PROBE, tol=0.05)
    assert rep2.verdict == INCONSISTENT


def test_growing_path_inconsistent():
    p = sampled(lambda t: 0.1 * t, -300, 300, 0.1)
    rep = bochner_test(p, shifts=np.linspace(5, 150, 30), probe_grid=PROBE,
                       tol=0.05)
    assert rep.verdict == INCONSISTENT


def test_window_too_small_raises():
    p = sampled(np.sin, -10, 10, 0.1)
    with pytest.raises(ValueError):
        bochner_test(p, shifts=np.linspace(0, 100, 10), probe_grid=PROBE,
                     tol=0.1)


def test_determinism():
    p = sampled(np.sin, -300, 300, 0.05)
    shifts = 0.7 * np.arange(1, 150)
    r1 = bochner_test(p, shifts, PROBE, tol=0.2)
    r2 = bochner_test(p, shifts, PROBE, tol=0.2)
    assert r1.verdict == r2.verdict
    assert np.array_equal(r1.accepted, r2.accepted)
    assert np.array_equal(r1.forward_residuals, r2.forward_residuals)


def test_filter_is_deterministic_and_sorted():
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(40, 5))
    vecs[10:20] = vecs[10] + 1e-6 * rng.normal(size=(10, 5))
    acc, levels = greedy_cauchy_filter(vecs, 0.01)
    assert acc == sorted(acc)
    assert all(10 <= i < 20 for i in acc)


# -- range compactness ------------------------------------------------------------------

def test_scalar_pathnote_and_consistency():
    p = sampled(np.sin, -300, 300, 0.05)
    rep = range_compactness_trend(p, 0.05, [(-100, 100), (-200, 200)])
    assert rep.verdict == CONSISTENT


def test_torus_curve_stabilises():
    p = sampled(lambda t: np.stack([np.cos(t), np.sin(t),
                                    np.cos(np.sqrt(2) * t)], axis=1),
                -800, 800, 0.05)
    rep = range_compactness_trend(p, 0.25, [(-200, 200), (-400, 400),
                                            (-800, 800)])
    assert rep.verdict == CONSISTENT


def test_growing_range_flagged():
    p = sampled(lambda t: np.stack([0.1 * t, np.zeros_like(t)], axis=1),
                -400, 400, 0.1)
    rep = range_compactness_trend(p, 0.5, [(-100, 100), (-400, 400)])
    assert rep.verdict == INCONSISTENT
    sups = [s for _, _, s in rep.window_sups]
    assert sups[1] > 3 * sups[0]


def test_logarithmic_growth_flagged():
    # log(1 + |t|) is unbounded however slowly it grows: its sup rises by
    # about log 2 from each window to the next, on either domain
    full = sampled(lambda t: np.log1p(np.abs(t)), -400, 400, 0.1)
    rep = range_compactness_trend(full, 0.01, [(-200, 200), (-400, 400)])
    assert rep.verdict == INCONSISTENT
    half = sampled(np.log1p, 0, 400, 0.1, domain_kind="half_line")
    rep = range_compactness_trend(half, 0.01, [(0, 200), (0, 400)])
    assert rep.verdict == INCONSISTENT


def test_half_line_split_solution_bounded(tmp_path):
    # the solution settles onto a recurrent orbit, so its sup is reached
    # within [0, 20] and the larger window adds nothing
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" \
        / "half_line_split.ini"
    assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    p = read_csv(tmp_path / "solution.csv", domain_kind="half_line",
                 tail_policy="constant")
    rep = range_compactness_trend(p, 0.01, [(0, 20), (0, 40)])
    assert rep.verdict == CONSISTENT


# -- equivalence verdict -----------------------------------------------------------------

def _solved_oracle(window=(-40.0, 40.0)):
    spec = pb.ProblemSpec(
        variant="advanced_delayed", dim=1,
        f=pc.sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        kernel_advanced=pc.zero_kernel(),
        report_window=window, grid_step=0.02, quad_tol=1e-9)
    cert = pc.certify_ball_zero(spec, rho=1.0)
    rep = pc.picard_solve(spec, cert, tol=1e-8)
    return spec, rep.solution


def test_equivalence_on_solution():
    spec, sol = _solved_oracle()
    rep = bohr_neugebauer_verdict(
        spec, sol, shifts=2 * np.pi * np.arange(1, 6), probe_grid=PROBE,
        tol=1e-3, eps=0.01, windows=[(-30, 30), (-40, 40)])
    assert rep.verdict == CONSISTENT
    assert rep.evidence["sides_agree"]
    assert rep.evidence["residual"] < 1e-6


def test_equivalence_on_zero_solution():
    spec = pb.ProblemSpec(
        variant="advanced_delayed", dim=1, f=pc.zero_nonlinearity(),
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        kernel_advanced=pc.zero_kernel(),
        report_window=(-40.0, 40.0), grid_step=0.05, quad_tol=1e-9)
    cert = pc.certify_ball_zero(spec, rho=1.0)
    rep = pc.picard_solve(spec, cert, tol=1e-10)
    out = bohr_neugebauer_verdict(
        spec, rep.solution, shifts=2 * np.pi * np.arange(1, 6),
        probe_grid=PROBE, tol=1e-6, eps=0.01, windows=[(-30, 30), (-40, 40)])
    assert out.verdict == CONSISTENT


def test_equivalence_on_corrupted_path():
    spec, sol = _solved_oracle()
    bad = replace(sol, values=sol.values + 0.1 * sol.grid[:, None])
    rep = bohr_neugebauer_verdict(
        spec, bad, shifts=2 * np.pi * np.arange(1, 6), probe_grid=PROBE,
        tol=1e-3, eps=0.01, windows=[(-30, 30), (-40, 40)])
    assert rep.verdict == INCONSISTENT
    assert rep.evidence["sides_agree"]  # both sides reject it together
    assert rep.evidence["residual"] > 1e-3


def test_equivalence_requires_hypotheses():
    spec, sol = _solved_oracle()
    spec = replace(spec, f=pc.sinusoid_affine(sin_amp=1.0,
                                              state_coeff=0.9))  # rho >= 1
    from picardcert.certify import CertificationError
    with pytest.raises(CertificationError):
        bohr_neugebauer_verdict(spec, sol, shifts=2 * np.pi * np.arange(1, 6),
                                probe_grid=PROBE, tol=1e-3, eps=0.01,
                                windows=[(-30, 30), (-40, 40)])


# -- asymptotic split --------------------------------------------------------------------

def test_split_sin_plus_decay():
    p = sampled(lambda t: np.sin(t) + np.exp(-t), 0.0, 40.0, 0.01,
                domain_kind="half_line", tail_policy="constant")
    recurrent, resid, _ = aaa_split_estimate(p, split_time=10.0)
    assert resid <= 1e-4
    # the norm of the pair is the sum of the two uniform norms, the
    # recurrent part's on the whole line (here [-40, 40])
    g = np.linspace(-40.0, 40.0, 8001)
    principal = recurrent.evaluate(g)[:, 0]
    vanishing = p.values[:, 0] - recurrent.evaluate(p.grid)[:, 0]
    assert abs(np.max(np.abs(principal)) + np.max(np.abs(vanishing))
               - 2.0) <= 1e-3
    # the recovered pieces really are the sinusoid and the decay
    assert np.max(np.abs(principal - np.sin(g))) < 1e-3
    mask = p.grid <= 5.0
    assert np.max(np.abs(vanishing[mask] - np.exp(-p.grid[mask]))) < 1e-3


def test_split_pure_decay_gives_tiny_principal():
    p = sampled(lambda t: np.exp(-t), 0.0, 40.0, 0.01,
                domain_kind="half_line", tail_policy="constant")
    recurrent, resid, _ = aaa_split_estimate(p, split_time=10.0)
    assert np.max(np.abs(recurrent.evaluate(np.linspace(-40.0, 40.0, 8001)))
                  ) <= 1e-4


def test_split_pure_sinusoid_gives_tiny_ergodic():
    p = sampled(np.sin, 0.0, 40.0, 0.01, domain_kind="half_line",
                tail_policy="constant")
    recurrent, resid, _ = aaa_split_estimate(p, split_time=10.0)
    assert np.max(np.abs(p.values - recurrent.evaluate(p.grid))) <= 1e-6
    assert resid <= 1e-6


def test_split_roundtrip():
    p = sampled(lambda t: np.sin(1.3 * t) + 2.0 * np.exp(-0.5 * t), 0.0, 60.0,
                0.01, domain_kind="half_line", tail_policy="constant")
    recurrent, resid, _ = aaa_split_estimate(p, split_time=20.0)
    vanishing = p.values - recurrent.evaluate(p.grid)
    rec = recurrent.evaluate(p.grid) + vanishing
    assert np.max(np.abs(rec - p.values)) < 1e-9  # exact by construction


def test_split_tail_too_short():
    p = sampled(np.sin, 0.0, 12.0, 0.5, domain_kind="half_line",
                tail_policy="constant")
    with pytest.raises(ValueError):
        aaa_split_estimate(p, split_time=11.5)


def test_recurrent_part_reads_any_shape_on_the_whole_line():
    # the double-limit test reads the recurrent part on (shifts, probes)
    # arrays far outside the path's window
    p = sampled(np.sin, 0.0, 40.0, 0.01, domain_kind="half_line")
    recurrent, _, _ = aaa_split_estimate(p, split_time=20.0)
    assert (recurrent.t_min, recurrent.t_max) == (-np.inf, np.inf)
    t = np.linspace(-500.0, 500.0, 12).reshape(3, 4)
    assert recurrent.evaluate(t).shape == (3, 4, 1)
    # the frequency is resolved to about 1.5e-8 relative: a phase of 1e-5
    # at |t| = 500
    np.testing.assert_allclose(recurrent.evaluate(t)[..., 0], np.sin(t),
                               atol=1e-4)
    # c0 + a cos t + b sin t, one coefficient column per component
    two = diagnostics.TrigSum((1.0,), np.array([[1.0, 0.0], [0.0, 2.0],
                                                [3.0, 0.0]]))
    assert two.evaluate(3.0).shape == (2,)
    np.testing.assert_allclose(two.evaluate(t),
                               np.stack([1.0 + 3.0 * np.sin(t),
                                         2.0 * np.cos(t)], axis=-1))


# -- the split fit's frequency search ------------------------------------------------------

def _heat_probes(forced):
    """The middle temperature and velocity modes of the heat solve, the
    components `demo heat` (unforced) and the `heat_forced` benchmark
    workload (a = 0.5 sin t + 0.2 e^-t, b = 0.05 tanh) split."""
    kw = {}
    if forced:
        grid = np.arange(0.0, 10.0 + 0.0025, 0.005)
        a = SampledPath(grid, 0.5 * np.sin(grid) + 0.2 * np.exp(-grid),
                        domain_kind="half_line", tail_policy="constant")
        kw = dict(a_path=a, b_func=lambda th: 0.05 * np.tanh(th),
                  b_lipschitz=0.05)
    spec, rho, _ = pc.heat_demo_assemble(n=4, **kw)
    sol = pc.picard_solve(spec, pc.certify_evolution(spec, rho),
                          tol=1e-8).solution
    n = spec.dim // 2
    mid = (n - 1) // 2
    return SampledPath(sol.grid, sol.values[:, [mid, n + mid]],
                       domain_kind="half_line", tail_policy="constant")


@pytest.fixture(scope="module", params=["heat", "heat_forced", "two_sines"])
def split_case(request):
    """(path, split time); two_sines is the signal of
    tests/test_minimize.py::test_split_fit_objective_as_scipy."""
    if request.param == "two_sines":
        grid = np.arange(0.0, 60.0 + 0.005, 0.01)
        p = SampledPath(grid, np.sin(1.3 * grid) + 0.5 * np.cos(0.4 * grid)
                        + 2.0 * np.exp(-0.5 * grid), domain_kind="half_line",
                        tail_policy="constant")
        return p, 20.0
    p = _heat_probes(request.param == "heat_forced")
    return p, p.t_max / 2


def _lstsq_route(p, split_time):
    """The frequency refinement with every trial fitted by lstsq on the full
    design: the tail, each search's (held frequencies, lo, hi), and the
    refined frequencies."""
    mask = p.grid >= split_time
    t, v = p.grid[mask], p.values[mask]
    agg = np.linalg.norm(v - v.mean(axis=0), axis=1) if p.dim > 1 else v[:, 0]
    omegas, bin_width, w_min = diagnostics._detect_frequencies(t, agg)
    searches, refined = [], []
    for k, w0 in enumerate(omegas):
        held = refined + omegas[k + 1:]
        lo, hi = max(w0 - bin_width, w_min), w0 + bin_width
        searches.append((held, lo, hi))
        w_fit, _ = bounded_minimum(
            lambda w: diagnostics._fit_model(t, v, held + [w])[1], lo, hi)
        refined.append(w_fit)
    return t, v, searches, refined


def test_projected_sse_is_the_lstsq_sse(split_case):
    t, v, searches, _ = _lstsq_route(*split_case)
    assert len(searches) >= 2
    for held, lo, hi in searches:
        sse_of = diagnostics._trial_sse(t, v, held)
        for w in np.linspace(lo, hi, 20):
            ref = diagnostics._fit_model(t, v, held + [w])[1]
            assert abs(sse_of(w) - ref) <= 1e-12 * ref


def test_trial_on_a_held_frequency_reads_the_held_sse(split_case):
    # the trial columns lie in the held span: lstsq's minimum-norm solution
    # fits with the held columns alone, and the projection drops them
    t, v, searches, _ = _lstsq_route(*split_case)
    for held, _, _ in searches:
        held_sse = diagnostics._fit_model(t, v, held)[1]
        sse_of = diagnostics._trial_sse(t, v, held)
        for w in held:
            assert abs(sse_of(w) - held_sse) <= 1e-12 * held_sse
            # near a held frequency the fit is ill-conditioned, never nan
            for near in (w * (1 + 1e-13), w * (1 + 1e-9)):
                sse = sse_of(near)
                assert 0.0 <= sse <= held_sse * (1 + 1e-12)


def test_split_refines_as_lstsq(split_case, monkeypatch):
    # the searches take the same steps; where the minimum is flat to the
    # last digits, a rounding difference can flip one comparison, and the
    # two then part by one final step, about 1.5e-8 relative (the search's
    # own tolerance)
    found = []

    def spy(f, lo, hi):
        x, fx = bounded_minimum(f, lo, hi)
        found.append(x)
        return x, fx

    monkeypatch.setattr(diagnostics, "bounded_minimum", spy)
    aaa_split_estimate(*split_case)
    np.testing.assert_allclose(found, _lstsq_route(*split_case)[3],
                               rtol=1e-9, atol=0.0)


def test_each_search_holds_every_other_frequency_once(split_case, monkeypatch):
    # search k holds the k refined frequencies and the detected ones after
    # omegas[k]: never a refined frequency beside the one it came from
    p, split_time = split_case
    held = []
    trial_sse = diagnostics._trial_sse
    monkeypatch.setattr(diagnostics, "_trial_sse",
                        lambda t, v, h: held.append(list(h)) or trial_sse(t, v, h))
    aaa_split_estimate(p, split_time)
    omegas = _lstsq_route(p, split_time)[2]
    assert len(held) == len(omegas) >= 2
    assert [len(h) for h in held] == [len(omegas) - 1] * len(omegas)


@pytest.mark.parametrize("rel", [1e-9, -1e-9])
def test_printed_frequencies_ignore_digits_the_search_cannot_resolve(
        split_case, monkeypatch, rel):
    # bounded_minimum stops at about 1.5e-8 relative, so a move of 1e-9
    # relative in every refined frequency leaves the printed line as it is
    lines = aaa_split_estimate(*split_case)[2]

    def moved(f, lo, hi):
        x, fx = bounded_minimum(f, lo, hi)
        return x * (1.0 + rel), fx

    monkeypatch.setattr(diagnostics, "bounded_minimum", moved)
    moved_lines = aaa_split_estimate(*split_case)[2]
    assert moved_lines[0].startswith("fitted frequencies: ")
    assert moved_lines[0] == lines[0]


def test_split_fits_by_lstsq_once(split_case, monkeypatch):
    # the trials are projections; only the fit on the refined frequencies
    # is a least-squares solve
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **kw: calls.append(a) or lstsq(*a, **kw))
    aaa_split_estimate(*split_case)
    assert len(calls) == 1


def test_detected_peaks_keep_their_order(split_case):
    # power descending, then frequency ascending, among the local maxima of
    # the power spectrum, as a per-bin scan finds them
    p, split_time = split_case
    mask = p.grid >= split_time
    t, v = p.grid[mask], p.values[mask]
    agg = np.linalg.norm(v - v.mean(axis=0), axis=1) if p.dim > 1 else v[:, 0]
    omegas, bin_width, w_min = diagnostics._detect_frequencies(t, agg)
    m = 1 << int(np.ceil(np.log2(max(t.size, 16))))
    tu = np.linspace(t[0], t[-1], m)
    ru = np.interp(tu, t, agg)
    spec = np.abs(np.fft.rfft(ru - ru.mean())) ** 2
    spec[0] = 0.0
    freqs = 2.0 * np.pi * np.fft.rfftfreq(m, d=tu[1] - tu[0])
    peaks = sorted(((spec[i], freqs[i]) for i in range(1, spec.size - 1)
                    if spec[i] >= spec[i - 1] and spec[i] >= spec[i + 1]),
                   key=lambda x: (-x[0], x[1]))
    expected = []
    for power, w in peaks[:12]:
        if power / spec.sum() >= 1e-6 and w >= w_min and all(
                abs(w - w0) > 0.5 * bin_width for w0 in expected):
            expected.append(float(w))
    assert omegas == expected[:3]
