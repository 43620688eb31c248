from dataclasses import replace

import numpy as np
import pytest

import picardcert as pc
from picardcert import problem as pb
from picardcert.certify import certify_ball_zero
from picardcert.paths import sup_distance, sup_norm
from picardcert.quadrature import DecayEnvelope
from picardcert.solver import (CertificationRequired, NonContractionError,
                               apply_operator, check_integral_inequality,
                               picard_solve, zero_start, _iterate_like)

from _oracles import (collocation_delayed_solution, delayed_fixed_point_coeffs,
                      exp_delayed_sin, forced_decay_solution,
                      half_line_delayed_sin)


def oracle_spec(window=(-20.0, 20.0), step=0.05):
    return pb.ProblemSpec(
        variant="advanced_delayed", dim=1,
        f=pc.sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        kernel_advanced=pc.zero_kernel(),
        report_window=window, grid_step=step, quad_tol=1e-9,
        label="sin_conv_oracle")


def mirror_spec(window=(-20.0, 20.0), step=0.05):
    return pb.ProblemSpec(
        variant="advanced_delayed", dim=1,
        f=pc.sinusoid_affine(cos_amp=1.0),
        kernel_delayed=pc.zero_kernel(),
        kernel_advanced=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        report_window=window, grid_step=step, quad_tol=1e-9,
        label="cos_conv_mirror")


# -- operator application -----------------------------------------------------------

def test_gamma_zero_everywhere():
    spec = pb.ProblemSpec(variant="advanced_delayed", dim=1,
                          f=pc.zero_nonlinearity(),
                          kernel_delayed=pc.zero_kernel(),
                          kernel_advanced=pc.zero_kernel(),
                          report_window=(-5, 5), grid_step=0.1)
    y = zero_start(spec)
    y = _iterate_like(y, np.cos(y.grid)[:, None])
    out = apply_operator(spec, y)
    assert sup_norm(out) == 0.0


def test_gamma_first_sweep_is_forcing():
    spec = oracle_spec(window=(-8.0, 8.0))
    out = apply_operator(spec, zero_start(spec))
    assert np.max(np.abs(out.values[:, 0] - np.sin(out.grid))) < 1e-12


def test_gamma_on_sinusoid_closed_form():
    spec = oracle_spec(window=(-8.0, 8.0))
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    out = apply_operator(spec, y)
    expect = np.sin(out.grid) + 0.25 * exp_delayed_sin(out.grid, 2.0)
    inner = np.abs(out.grid) <= 8.0
    assert np.max(np.abs(out.values[inner, 0] - expect[inner])) < 5e-9


def test_pi_zero_and_forcing():
    spec = pb.ProblemSpec(
        variant="half_line", dim=1, f=pc.sinusoid_affine(sin_amp=1.0),
        split_delayed=pc.split_exponential_kernel(2.0, state_bound=3.0),
        split_advanced=pc.split_exponential_kernel(2.0, state_bound=3.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)
    out = apply_operator(spec, zero_start(spec))
    assert np.max(np.abs(out.values[:, 0] - np.sin(out.grid))) < 1e-12


def test_pi_history_integral_closed_form():
    # history kernel 1/4 e^{-2(t-s)} x against the antiderivative oracle
    spec = pb.ProblemSpec(
        variant="half_line", dim=1, f=pc.zero_nonlinearity(),
        split_delayed=pc.split_exponential_kernel(2.0, aa_cx=0.25,
                                                  state_bound=3.0),
        split_advanced=pc.split_exponential_kernel(2.0, state_bound=3.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    out = apply_operator(spec, y)
    expect = 0.25 * half_line_delayed_sin(out.grid, 2.0)
    assert np.max(np.abs(out.values[:, 0] - expect)) < 5e-9


def test_gamma_pi_consistency_on_shared_history():
    # the full-line sweep applied to a path vanishing below zero agrees with
    # the half-line history integral of the same kernel; both are compared to
    # the antiderivative oracle away from the kink at zero, where the kernel
    # tail has damped its quadrature footprint
    half = pb.ProblemSpec(
        variant="half_line", dim=1, f=pc.zero_nonlinearity(),
        split_delayed=pc.split_exponential_kernel(2.0, aa_cx=0.25,
                                                  state_bound=3.0),
        split_advanced=pc.split_exponential_kernel(2.0, state_bound=3.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)
    yh = zero_start(half)
    yh = _iterate_like(yh, np.sin(yh.grid)[:, None])
    via_pi = apply_operator(half, yh)

    full = pb.ProblemSpec(
        variant="delayed_only", dim=1, f=pc.zero_nonlinearity(),
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)
    yf = zero_start(full)
    yf = _iterate_like(yf, np.where(yf.grid >= 0.0, np.sin(yf.grid), 0.0)[:, None])
    via_gamma = apply_operator(full, yf)

    expect = 0.25 * half_line_delayed_sin(via_pi.grid, 2.0)
    sel = (via_pi.grid >= 8.0) & (via_pi.grid <= 12.0)
    assert np.max(np.abs(via_pi.values[sel, 0] - expect[sel])) < 1e-7
    gam = via_gamma.evaluate(via_pi.grid[sel])[:, 0]
    assert np.max(np.abs(gam - expect[sel])) < 1e-7


def _slow_ergodic_spec():
    # a split kernel whose recurrent part is zero: only the envelope of the
    # whole kernel sees how far its ergodic part 0.3 e^{-0.05 s} reaches
    return pb.ProblemSpec(
        variant="half_line", dim=1, f=pc.zero_nonlinearity(),
        split_delayed=pc.split_exponential_kernel(2.0, erg_const=0.3,
                                                  erg_decay=0.05),
        split_advanced=pc.split_exponential_kernel(2.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)


def test_pi_truncates_a_split_kernel_at_its_whole_envelope():
    from picardcert.solver import _lattice
    spec = _slow_ergodic_spec()
    y = zero_start(spec)
    out = apply_operator(spec, y)
    theta, fhat = spec.split_delayed.convolution
    zero = np.zeros((1, 1))
    full = _lattice(y.grid, 40.0, True, theta,
                    lambda S: fhat(S, zero, zero), start=0.0)
    assert np.max(np.abs(out.values - full)) < 1e-8


# -- the quadrature sweep --------------------------------------------------------------

def _sweep_reference(t, lo, hi, integrand):
    """Node by node: the composite rule of panel_nodes on each [lo_i, hi_i]."""
    from picardcert import solver
    from picardcert.quadrature import panel_nodes
    rows, counts = [], []
    for ti, a, b in zip(t, lo, hi):
        s, w = panel_nodes(a, b, max_width=solver._PANEL_WIDTH,
                           order=solver._PANEL_ORDER)
        vals = np.asarray(integrand(np.full(s.size, ti), s))
        rows.append(np.tensordot(w, vals, axes=(0, 0)))
        counts.append(s.size // solver._PANEL_ORDER)
    return np.array(rows), np.array(counts)


def _vector_integrand(T, S):
    return np.stack([np.exp(-np.abs(T - S)) * np.sin(S), np.cos(T * S)],
                    axis=-1)


def _matrix_integrand(T, S):
    return np.stack([np.stack([np.sin(S), np.tanh(T - S)], axis=-1),
                     np.stack([np.cos(T + S), np.exp(-0.1 * S * S)], axis=-1)],
                    axis=-2)


@pytest.mark.parametrize("integrand", [_vector_integrand, _matrix_integrand],
                         ids=["vector", "matrix"])
@pytest.mark.parametrize("bounds", ["causal", "half_line", "delayed",
                                    "advanced"])
def test_sweep_matches_per_node_panels(bounds, integrand):
    from picardcert import solver
    t = np.linspace(0.0, 40.0, 301)
    if bounds in ("delayed", "advanced"):
        t = t - 20.0
    lo, hi = {"causal": (np.zeros_like(t), t),
              "half_line": (np.maximum(0.0, t - 7.3), t),
              "delayed": (t - 7.3, t),
              "advanced": (t, t + 7.3)}[bounds]
    expect, counts = _sweep_reference(t, lo, hi, integrand)
    got = solver._sweep(t, lo, hi, integrand)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) < 1e-13
    if bounds == "causal":
        assert counts[0] == 0 and np.all(got[0] == 0.0)   # t = 0: empty
    if bounds == "half_line":
        assert np.any(t - 7.3 < 0.0) and np.any(t - 7.3 > 0.0)  # clipped at 0
    # some node's panels fall into two integrand calls
    per_block = solver._SWEEP_BLOCK // solver._PANEL_ORDER
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    busy = counts > 0
    assert np.any(first[busy] // per_block != last[busy] // per_block)


def test_sweep_of_empty_intervals_only():
    from picardcert import solver
    t = np.array([0.0, 0.0])
    got = solver._sweep(t, t, t, _vector_integrand)
    assert got.shape == (2, 2) and np.all(got == 0.0)


def test_sweep_reads_at_most_one_block(monkeypatch):
    # the sinusoid oracle's kernel without its declared convolution form, the
    # only kind of input that still sweeps: one delayed-kernel sweep reads
    # more points in all than one block, never more than one block at a time
    from picardcert import solver
    from picardcert.paths import SampledPath
    spec = _without_form(oracle_spec())
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    sizes = []
    original = SampledPath.evaluate

    def recorder(self, t):
        sizes.append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(SampledPath, "evaluate", recorder)
    monkeypatch.setattr(SampledPath, "__call__", recorder)
    solver.apply_operator(spec, y)
    assert sum(sizes) > solver._SWEEP_BLOCK
    assert max(sizes) <= solver._SWEEP_BLOCK


# -- the convolution lattice -----------------------------------------------------------

def _without_form(spec):
    """spec with every kernel's convolution form dropped: its operator then
    integrates by _sweep, the oracle of the lattice rule."""
    from dataclasses import replace
    fields = {}
    for name in ("kernel_delayed", "kernel_advanced", "split_delayed",
                 "split_advanced", "memory_kernel"):
        k = getattr(spec, name)
        if k is not None and k.convolution is not None:
            fields[name] = replace(k, convolution=None)
    return replace(spec, **fields)


# the shipped configs' step 0.02: there _sweep's panels, which straddle the
# spline knots, are accurate to about 1e-11 inside the report window
_LATTICE_CASES = {
    "oracle": lambda: oracle_spec(window=(-10.0, 10.0), step=0.02),
    "mirror": lambda: mirror_spec(window=(-10.0, 10.0), step=0.02),
    "warped": lambda: pb.ProblemSpec(
        variant="delayed_only", dim=1, f=pc.sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.exponential_kernel(2.0, cy=0.25, state_bound=3.0),
        warps={"a1": pc.TimeWarp("shift", tau=-0.5)},
        report_window=(-10.0, 10.0), grid_step=0.02, quad_tol=1e-9),
    "gaussian": lambda: pb.ProblemSpec(
        variant="advanced_delayed", dim=1, f=pc.sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.gaussian_kernel(1.5, cx=0.2, const=0.1,
                                          state_bound=3.0),
        kernel_advanced=pc.convolution_sinusoid_kernel(
            2.0, cx=0.1, state_bound=3.0),
        report_window=(-10.0, 10.0), grid_step=0.02, quad_tol=1e-9),
    "half_line": lambda: pb.ProblemSpec(
        variant="half_line", dim=1,
        f=pc.sinusoid_affine(sin_amp=1.0, state_coeff=0.05),
        split_delayed=pc.split_exponential_kernel(
            2.0, aa_cx=0.1, erg_cx=0.05, erg_const=0.3, state_bound=3.0),
        split_advanced=pc.split_exponential_kernel(
            2.0, aa_cx=0.05, erg_cy=-0.1, erg_decay=0.5,
            state_bound=3.0),
        report_window=(0.0, 12.0), grid_step=0.02, quad_tol=1e-9),
    "causal": lambda: _causal_spec(coeff=0.5),
}


@pytest.mark.parametrize("case", list(_LATTICE_CASES))
def test_lattice_matches_sweep_on_report_window(case):
    from picardcert.solver import apply_operator
    spec = _LATTICE_CASES[case]()
    y = zero_start(spec)
    y = _iterate_like(y, (np.sin(y.grid) + 0.3 * np.cos(2.1 * y.grid))[:, None])
    lattice = apply_operator(spec, y)
    sweep = apply_operator(_without_form(spec), y)
    lo, hi = spec.report_window
    inside = (y.grid >= lo) & (y.grid <= hi)
    gap = np.abs(lattice.values - sweep.values)[inside]
    assert np.max(gap) < 1e-10
    assert np.max(np.abs(lattice.values)) > 0.1


def test_lattice_reads_each_cell_node_once(monkeypatch):
    # the oracle's delayed term reads y at K nodes of every cell of the grid
    # and of its padding, once per application
    from picardcert import solver
    from picardcert.paths import SampledPath
    spec = oracle_spec()
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    sizes = []
    original = SampledPath.evaluate
    monkeypatch.setattr(SampledPath, "evaluate",
                        lambda self, t: sizes.append(np.size(t)) or original(self, t))
    solver.apply_operator(spec, y)
    h = spec.grid_step
    pad = int(np.ceil(spec.kernel_delayed.envelope.truncation_span(
        spec.quad_tol / 2.0) / h))
    assert sizes == [(y.grid.size - 1 + pad) * solver._CELL_ORDER]


def test_lattice_settles_where_sweep_straddles_the_tail(monkeypatch):
    # at the work window's left edge the iterate is read through its constant
    # tail, whose kink sits on a cell edge of the lattice but inside one of
    # _sweep's panels: doubling the lattice's Gauss order leaves the image
    # there as it is, while _sweep is off by far more
    from picardcert import solver
    spec = oracle_spec()
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    six = solver.apply_operator(spec, y).values[:, 0]
    sweep = solver.apply_operator(_without_form(spec), y).values[:, 0]
    edge = int(np.argmax(np.abs(six - sweep)))
    assert y.grid[edge] < spec.report_window[0]
    monkeypatch.setattr(solver, "_CELL_ORDER", 12)
    twelve = solver.apply_operator(spec, y).values[:, 0]
    assert abs(twelve[edge] - six[edge]) < 1e-13
    assert abs(sweep[edge] - six[edge]) > 1e-7


def test_next_fast_len_is_scipys_real_length():
    from scipy.fft import next_fast_len as scipy_next_fast_len
    from picardcert.solver import next_fast_len
    assert all(next_fast_len(n) == scipy_next_fast_len(n, real=True)
               for n in range(1, 20_001))


def test_lattice_image_is_the_same_under_scipy_fft(monkeypatch):
    # numpy's and scipy's real FFTs are both pocketfft: the oracle image on
    # a 4000-cell grid comes out bit for bit the same
    import scipy.fft
    from picardcert import solver
    spec = oracle_spec(step=0.01)
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    numpy_image = solver.apply_operator(spec, y).values
    monkeypatch.setattr(solver, "rfft", scipy.fft.rfft)
    monkeypatch.setattr(solver, "irfft", scipy.fft.irfft)
    assert np.array_equal(solver.apply_operator(spec, y).values, numpy_image)


def test_lattice_refuses_a_non_uniform_grid():
    spec = oracle_spec(window=(-4.0, 4.0))
    g = zero_start(spec).grid
    g = g + 1e-3 * np.sin(g)
    y = pc.SampledPath(g, np.sin(g)[:, None], tail_policy="constant")
    with pytest.raises(ValueError, match="uniform"):
        apply_operator(spec, y)


# -- picard iteration ------------------------------------------------------------------

def test_zero_problem_two_sweeps():
    spec = pb.ProblemSpec(variant="advanced_delayed", dim=1,
                          f=pc.zero_nonlinearity(),
                          kernel_delayed=pc.zero_kernel(),
                          kernel_advanced=pc.zero_kernel(),
                          report_window=(-5, 5), grid_step=0.1)
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-12)
    assert rep.iterations <= 2
    assert sup_norm(rep.solution) <= 1e-12


def test_a_nonlinearity_labelled_zero_is_still_evaluated():
    # a label names a nonlinearity; it does not say what f computes
    plain = oracle_spec()
    labelled = replace(plain, f=pc.sinusoid_affine(sin_amp=1.0, label="zero"))
    sols = [picard_solve(s, certify_ball_zero(s, rho=1.0), tol=1e-8).solution
            for s in (plain, labelled)]
    assert np.array_equal(sols[0].values, sols[1].values)
    assert sup_norm(sols[1]) == pytest.approx(1.109, abs=1e-3)


def test_oracle_solution_matches_closed_form():
    spec = oracle_spec()
    cert = certify_ball_zero(spec, rho=1.0)
    assert cert.L_gamma == pytest.approx(0.25, abs=1e-8)
    rep = picard_solve(spec, cert, tol=1e-8)
    A, B = delayed_fixed_point_coeffs()
    assert A == pytest.approx(72.0 / 65.0, abs=1e-14)
    assert B == pytest.approx(-4.0 / 65.0, abs=1e-14)
    g = rep.solution.grid
    err = np.max(np.abs(rep.solution.values[:, 0] - (A * np.sin(g) + B * np.cos(g))))
    assert err < 1e-6


def test_closed_form_cross_checked_by_collocation():
    A, B = delayed_fixed_point_coeffs()
    tq = np.linspace(-10, 10, 101)
    col = collocation_delayed_solution(tq)
    assert np.max(np.abs(col - (A * np.sin(tq) + B * np.cos(tq)))) < 5e-4


def test_measured_rates_below_certified_constant():
    spec = oracle_spec(window=(-12.0, 12.0))
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-9)
    assert all(r <= cert.L_gamma + 0.01 for r in rep.measured_rates)


def test_apriori_bound_dominates_true_error():
    spec = oracle_spec(window=(-12.0, 12.0))
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-9, store_iterates=True)
    L = cert.L_gamma
    star = rep.iterates[-1]
    inc1 = rep.increment_norms[0]
    for n, it in enumerate(rep.iterates[:-1]):
        bound = L ** n / (1 - L) * inc1
        assert sup_distance(it, star) <= bound + 1e-12


def test_uniqueness_from_perturbed_start():
    spec = oracle_spec(window=(-12.0, 12.0))
    cert = certify_ball_zero(spec, rho=1.0)
    rep1 = picard_solve(spec, cert, tol=1e-9)
    start = replace(cert.base_point, values=cert.base_point.values + 0.5 * 1.0)
    rep2 = picard_solve(spec, cert, tol=1e-9, start=start)
    assert sup_distance(rep1.solution, rep2.solution) <= 1e-8


def test_ball_confinement():
    spec = oracle_spec(window=(-12.0, 12.0))
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-9, store_iterates=True)
    for it in rep.iterates:
        assert sup_distance(it, cert.base_point) <= 1.0 + 1e-9


def test_residual_properties():
    spec = oracle_spec(window=(-12.0, 12.0))
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-9)
    assert rep.residual <= 2e-9
    y0 = cert.base_point
    assert sup_distance(y0, apply_operator(spec, y0)) > 1e-3  # not fixed


def test_uncertified_requires_override():
    f = pc.sinusoid_affine(sin_amp=0.1, state_coeff=0.45)
    spec = pb.ProblemSpec(variant="delayed_only", dim=1, f=f,
                          kernel_delayed=pc.exponential_kernel(
                              2.0, cx=0.25, state_bound=3.0),
                          report_window=(-8, 8), grid_step=0.05,
                          quad_tol=1e-9)
    cert = certify_ball_zero(spec, rho=0.2)
    assert not cert.passed
    with pytest.raises(CertificationRequired):
        picard_solve(spec, cert, tol=1e-6)
    rep = picard_solve(spec, cert, tol=1e-6, allow_uncertified=True)
    assert any("override" in n for n in rep.notes)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_picard_solve_refuses_fewer_than_one_sweep(max_iter):
    # with no sweep, the refusal message read the last of no increments
    spec = oracle_spec(window=(-5.0, 5.0))
    cert = certify_ball_zero(spec, rho=1.0)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(spec, cert, tol=1e-6, max_iter=max_iter)


@pytest.mark.parametrize("L", [-5.9, np.nan, np.inf])
def test_picard_solve_refuses_a_constant_that_is_negative_or_infinite(L):
    # a negative constant was clamped to 0 ("first increment is final"), so
    # the solve stopped after one sweep whatever the increment
    spec = oracle_spec(window=(-5.0, 5.0))
    cert = replace(certify_ball_zero(spec, rho=1.0), L_gamma=L)
    with pytest.raises(ValueError, match="contraction constant"):
        picard_solve(spec, cert, tol=1e-6)


def test_non_contraction_detected():
    # an expanding affine operator: kernel mass 2 > 1 with forcing
    f = pc.sinusoid_affine(sin_amp=1.0)
    spec = pb.ProblemSpec(variant="delayed_only", dim=1, f=f,
                          kernel_delayed=pc.exponential_kernel(
                              1.0, cx=2.0, state_bound=50.0),
                          report_window=(-6, 6), grid_step=0.05,
                          quad_tol=1e-8)
    cert = certify_ball_zero(spec, rho=1.0)
    assert not cert.passed
    with pytest.raises(NonContractionError):
        picard_solve(spec, cert, tol=1e-8, allow_uncertified=True, max_iter=60)


def test_advanced_mirror_oracle():
    spec = mirror_spec()
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-8)
    from _oracles import advanced_fixed_point_coeffs
    A, B = advanced_fixed_point_coeffs()
    assert A == pytest.approx(-4.0 / 65.0, abs=1e-14)
    assert B == pytest.approx(72.0 / 65.0, abs=1e-14)
    g = rep.solution.grid
    err = np.max(np.abs(rep.solution.values[:, 0] - (A * np.sin(g) + B * np.cos(g))))
    assert err < 1e-6


def test_warped_state_argument():
    # y(a1(s)) with a shift warp: the delayed kernel reads the state half a
    # unit back; substituting y = A sin + B cos rotates the phase by d and
    # matching coefficients gives a 2x2 system solved here as the oracle
    d = 0.5
    spec = pb.ProblemSpec(
        variant="delayed_only", dim=1, f=pc.sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.exponential_kernel(2.0, cy=0.25, state_bound=3.0),
        warps={"a1": pc.TimeWarp("shift", tau=-d)},
        report_window=(-10, 10), grid_step=0.05, quad_tol=1e-9)
    cert = certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-9)
    # y(s-d) = (A cos d + B sin d) sin s + (-A sin d + B cos d) cos s, and the
    # convolution sends (sin, cos) to ((2 sin - cos)/20, (2 cos + sin)/20)
    co, si = np.cos(d), np.sin(d)
    M = np.array([[1.0 - (2 * co - si) / 20.0, -(2 * si + co) / 20.0],
                  [(co + 2 * si) / 20.0, 1.0 - (2 * co - si) / 20.0]])
    A, B = np.linalg.solve(M, [1.0, 0.0])
    g = rep.solution.grid
    err = np.max(np.abs(rep.solution.values[:, 0] - (A * np.sin(g) + B * np.cos(g))))
    assert err < 1e-7
    assert all(rr <= cert.L_gamma + 0.01 for rr in rep.measured_rates)


# -- integral-inequality checker ---------------------------------------------------------

def weight(amp, rate=1.0):
    return DecayEnvelope("exponential", amp, rate)


def test_inequality_zero_case():
    grid = np.linspace(-5, 5, 21)
    rep = check_integral_inequality(lambda t: 0.0 * np.asarray(t),
                                    weight(0.25), weight(0.25),
                                    lambda t: 0.0 * np.asarray(t), grid)
    assert rep.rho == pytest.approx(0.5, abs=1e-8)
    assert rep.lines[0] == "rho = 0.5 (closed form)"
    assert rep.hypothesis_holds
    assert rep.conclusion_holds
    assert rep.bound == pytest.approx(0.0)


def test_inequality_arithmetic_pass():
    grid = np.linspace(-5, 5, 21)
    rep = check_integral_inequality(lambda t: np.ones_like(np.asarray(t, float)),
                                    weight(0.25), weight(0.25),
                                    lambda t: 1.9 * np.ones_like(np.asarray(t, float)),
                                    grid)
    assert rep.rho == pytest.approx(0.5, abs=1e-8)
    assert rep.hypothesis_holds  # 1.9 <= 1 + 0.5*1.9 = 1.95
    assert rep.conclusion_holds  # 1.9 <= 1/(1-0.5) = 2
    assert rep.bound == pytest.approx(2.0, abs=1e-7)


def test_inequality_hypothesis_witness():
    grid = np.linspace(-5, 5, 21)
    rep = check_integral_inequality(lambda t: np.ones_like(np.asarray(t, float)),
                                    weight(0.25), weight(0.25),
                                    lambda t: 2.1 * np.ones_like(np.asarray(t, float)),
                                    grid)
    # 2.1 > 1 + 0.5*2.1 = 2.05: the hypothesis must fail, with a witness
    assert not rep.hypothesis_holds
    assert rep.worst_witness["lhs"] > rep.worst_witness["rhs"]


def test_inequality_rho_at_one_rejected():
    # two weights of mass 1/2 give rho = 1 exactly, where the bound
    # sup a/(1-rho) does not exist
    grid = np.linspace(-2, 2, 9)
    with pytest.raises(ValueError):
        check_integral_inequality(lambda t: np.ones_like(np.asarray(t, float)),
                                  weight(0.5), weight(0.5),
                                  lambda t: np.ones_like(np.asarray(t, float)),
                                  grid)


def test_inequality_rho_above_one_rejected():
    grid = np.linspace(-2, 2, 9)
    with pytest.raises(ValueError):
        check_integral_inequality(lambda t: np.ones_like(np.asarray(t, float)),
                                  weight(0.8), weight(0.8),
                                  lambda t: np.ones_like(np.asarray(t, float)),
                                  grid)


# -- causal-history evolution variant -----------------------------------------------

def _causal_spec(coeff=0.2, forcing=0.3, u0=0.4, window=(0.0, 12.0),
                 decay=1.0):
    # the combined state/history nonlinearity has constant at least one, so
    # certification needs the decay rate to beat M (1 + C_B)
    from picardcert.evolution import (certify_stability, exponential_causal,
                                      scalar_family, stability_sample_pairs)
    fam = scalar_family(lambda t: -decay)
    certify_stability(fam, stability_sample_pairs((0.0, 12.0), n=24),
                      M=1.0, delta=decay)
    return pb.ProblemSpec(
        variant="evolution_nonlocal", dim=1,
        f=pc.sinusoid_affine(sin_amp=forcing),
        evolution=fam, u0=np.array([u0]),
        memory_kernel=exponential_causal(np.array([[coeff]]), 1.0, 1),
        nonlocal_map=pc.zero_nonlocal(1),
        report_window=window, grid_step=0.02, quad_tol=1e-9)


def test_causal_history_integral_closed_form():
    from picardcert.solver import _history
    spec = _causal_spec(coeff=0.5)
    y = zero_start(spec)
    y = _iterate_like(y, np.sin(y.grid)[:, None])
    hist = _history(spec, y)
    g = y.grid
    expect = 0.5 * (np.sin(g) - np.cos(g) + np.exp(-g)) / 2.0
    assert np.max(np.abs(hist[:, 0] - expect)) < 5e-9


def test_causal_bound_constant():
    from picardcert.certify import compute_envelope_constants
    spec = _causal_spec(coeff=0.2)
    c = compute_envelope_constants(spec)
    # sup over all s >= 0 of int_0^s 0.2 e^{-(s-tau)} dtau = 0.2 (1 - e^{-s}),
    # approached as s -> inf; the window's end s = 12 does not bound it
    assert c.C_B == 0.2


def test_constants_need_no_quadrature(monkeypatch):
    # every constant of the full-line and causal-evolution variants is an
    # envelope mass; only half-line gamma1/gamma2 may integrate
    import picardcert.certify as certify_module

    def refuse(*args, **kwargs):
        raise AssertionError("the constants layer integrated numerically")

    monkeypatch.setattr(certify_module, "adaptive_integral", refuse)
    full = oracle_spec()
    assert certify_module.compute_envelope_constants(full).N1 == 0.125
    rep = certify_module.certify_bohr_neugebauer_hypotheses(full)
    assert rep.rho == 0.125
    assert certify_module.compute_envelope_constants(_causal_spec()).C_B == 0.2


def test_causal_evolution_fixed_point_vs_augmented_ode():
    # the fixed point solves u' = -u + w + forcing, w' = c u - w directly;
    # integrating that augmented system is the independent oracle
    from scipy.integrate import solve_ivp

    coeff, forcing, u0, decay = 0.2, 0.3, 0.4, 3.0
    spec = _causal_spec(coeff, forcing, u0, decay=decay)
    cert = pc.certify_evolution(spec, rho=2.0, theorem="theoaaa1")
    assert cert.passed
    rep = picard_solve(spec, cert, tol=1e-9)
    assert all(r <= cert.L_gamma + 0.01 for r in rep.measured_rates)

    def rhs(t, z):
        u, w = z
        return [-decay * u + w + forcing * np.sin(t), coeff * u - w]

    g = rep.solution.grid
    sol = solve_ivp(rhs, (0.0, float(g[-1])), [u0, 0.0], t_eval=g,
                    rtol=1e-11, atol=1e-13, method="DOP853")
    err = np.max(np.abs(rep.solution.values[:, 0] - sol.y[0]))
    assert err < 1e-7


def test_evolution_oracle_node_error_at_a_coarse_step():
    # u' = -u + 0.5 sin t + 0.1 u from u(0) = 0.3, in closed form: with the
    # forcing read at the cell table's Gauss nodes the node error at step 0.4
    # is 1.6e-6; a cubic spline of f(t_i, y_i, 0) read there gave 4.3e-5
    from picardcert.evolution import (certify_stability, scalar_family,
                                      stability_sample_pairs)
    fam = scalar_family(lambda t: -1.0)
    certify_stability(fam, stability_sample_pairs((0.0, 20.0), n=24),
                      M=1.0, delta=1.0)
    spec = pb.ProblemSpec(
        variant="evolution_nonlocal", f=pc.sinusoid_affine(sin_amp=0.5,
                                                           state_coeff=0.1),
        evolution=fam, u0=[0.3], nonlocal_map=pc.zero_nonlocal(1),
        report_window=(0.0, 20.0), grid_step=0.4, quad_tol=1e-13)
    cert = pc.certify_evolution(spec, rho=2.0)
    assert cert.passed
    sol = picard_solve(spec, cert, tol=1e-13).solution
    exact = forced_decay_solution(sol.grid, 0.9, 0.5, 0.3)
    assert np.max(np.abs(sol.values[:, 0] - exact)) < 5e-6


# -- cell-recurrence propagators ------------------------------------------------------

def _recurrence_family(case):
    from picardcert.evolution import (EvolutionFamily, certify_stability,
                                      stability_sample_pairs)
    if case == "stiff":
        gen, delta = (lambda t: np.array([[-25.0]])), 25.0
    else:
        # time-dependent and non-commuting; the sin t part is skew, so
        # |U(t, s)| <= exp(-2 (t - s))
        gen, delta = (lambda t: np.array([[-2.0, np.sin(t)],
                                          [-np.sin(t), -3.0]])), 2.0
    fam = EvolutionFamily(gen, dim=gen(0.0).shape[0])
    certify_stability(fam, stability_sample_pairs((0.0, 20.0), n=12),
                      M=1.0, delta=delta)
    return fam


# exponential-sum memory of the resolvent cases, (G_k, r_k)
_MEMORY_TERMS = ((np.array([[0.3, 0.0], [0.1, -0.2]]), 1.5),
                 (np.array([[0.0, -0.2], [0.25, 0.0]]), 0.7))


def _recurrence_spec(variant, case):
    def f_eval(t, x, y):
        t = np.asarray(t, dtype=float)
        out = 0.3 * np.asarray(x)[..., ::-1]
        out[..., 0] += 0.5 * np.sin(t)
        out[..., -1] += np.cos(2.0 * t)
        return out

    # over "long" an unchunked fundamental matrix decays to exp(-600); over
    # "stiff" one chunk of cells already takes it far below the ODE atol; the
    # 600 cells of "long" resolvent cases would show drift in the powers of
    # one cell's propagator
    window, step = {"rotating": ((0.0, 20.0), 0.05), "short": ((0.0, 20.0), 0.05),
                    "long": ((0.0, 300.0), 0.5),
                    "stiff": ((0.0, 5.0), 0.1)}[case.split("_")[-1]]
    if variant == pb.RESOLVENT_NONLOCAL:
        from picardcert.evolution import build_resolvent, exponential_memory
        memory = exponential_memory(
            _MEMORY_TERMS[:1 if case.startswith("one") else 2], dim=2)
        # a fine table: its residual check differentiates it by a stencil
        R = build_resolvent(np.array([[-2.0, 1.0], [-1.0, -3.0]]), memory,
                            np.arange(0.0, window[1] + 0.005, 0.01), tol=1e-8)
        d, source = 2, dict(resolvent=R)
    else:
        fam = _recurrence_family(case)
        d, source = fam.dim, dict(evolution=fam)
    f = pb.Nonlinearity(f_eval, lipschitz=0.3, dim=d)
    common = dict(dim=d, f=f, report_window=window, grid_step=step,
                  quad_tol=1e-11, **source)
    if variant == pb.DELAY_PARABOLIC:
        return pb.ProblemSpec(variant=variant, delay=1.0, **common)
    return pb.ProblemSpec(variant=variant, u0=np.linspace(0.4, -0.2, d),
                          nonlocal_map=pc.zero_nonlocal(d), **common)


def _forced_ode_image(spec, y):
    """The operator image of y by integrating z' = A(t) z + g(t) directly
    from the grid's first knot, restarted at every knot of y's spline, where
    the third derivative of g(s) = f(s, y(s - tau), 0) jumps (tau = 0
    without a delay).  Without u0 it starts there from z = 0, as the delay
    variant's operator does."""
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    t = y.grid
    # y's cubic spline with its constant tails; the delay is a whole number
    # of steps, so the knots of g are those of the grid
    y_spline = CubicSpline(t, y.values, axis=0)
    tau = spec.delay or 0.0

    def g(s):
        x = y_spline(max(s - tau, t[0]))[None]
        return spec.f(np.array([s]), x, np.zeros_like(x))[0]
    z = np.zeros(spec.dim) if spec.u0 is None else spec.u0
    if spec.variant == pb.RESOLVENT_NONLOCAL:
        # the memory's auxiliary states: v' = A v + sum_k w_k + g,
        # w_k' = G_k v - r_k w_k, with w_k(0) = 0; v is the image
        A, terms, d = spec.resolvent.A, spec.resolvent.memory.exp_terms, spec.dim

        def rhs(s, z):
            v, w = z[:d], z[d:].reshape(-1, d)
            dw = [G @ v - rate * wk for (G, rate), wk in zip(terms, w)]
            return np.concatenate([A @ v + w.sum(axis=0) + g(s)] + dw)
        z = np.concatenate([z, np.zeros(len(terms) * d)])
    else:
        def rhs(s, z):
            return spec.evolution.generator(s) @ z + g(s)
    out = [z]
    for a, b in zip(t[:-1], t[1:]):
        sol = solve_ivp(rhs, (a, b), z, method="DOP853", rtol=1e-13,
                        atol=1e-15)
        assert sol.success
        z = sol.y[:, -1]
        out.append(z)
    return np.array(out)[:, :spec.dim]


@pytest.mark.parametrize("variant, case", [
    (variant, case) for variant in (pb.EVOLUTION_NONLOCAL, pb.DELAY_PARABOLIC)
    for case in ("rotating", "long", "stiff")] + [
    (pb.RESOLVENT_NONLOCAL, case) for case in (
        "one_term_short", "two_terms_short", "one_term_long",
        "two_terms_long")])
def test_cell_recurrence_matches_forced_ode(variant, case):
    from picardcert.solver import apply_mild_evolution
    spec = _recurrence_spec(variant, case)
    y = zero_start(spec)
    y = _iterate_like(y, np.column_stack(
        [np.sin(1.3 * y.grid), np.cos(0.7 * y.grid)])[:, :spec.dim])
    image = apply_mild_evolution(spec, y)
    expect = _forced_ode_image(spec, y)
    assert np.max(np.abs(image.values - expect)) < 1e-9


def test_second_solve_reuses_cell_propagators():
    # the delay demo's problem: the propagators are built once, so solving
    # again reads the generator no more
    from picardcert.evolution import (certify_stability, scalar_family,
                                      stability_sample_pairs)
    calls = []  # points read per generator call
    fam = scalar_family(lambda t: calls.append(np.size(t)) or -(2.0 + np.sin(t)))
    certify_stability(fam, stability_sample_pairs((-15.0, 15.0), n=30,
                                                  max_sep=5.0),
                      M=1.0, delta=1.0)
    spec = pb.ProblemSpec(variant=pb.DELAY_PARABOLIC, dim=1, evolution=fam,
                          f=pc.sinusoid_affine(sin_amp=0.5, state_coeff=0.1),
                          delay=1.0, report_window=(-10.0, 45.0),
                          grid_step=0.02, quad_tol=1e-8)
    calls.clear()
    cert = pc.certify_evolution(spec, rho=2.0, theorem="delay-final")
    first = picard_solve(spec, cert, tol=1e-8)
    built = sum(calls)
    assert built > 0
    second = picard_solve(spec, cert, tol=1e-8)
    assert sum(calls) == built
    assert np.array_equal(first.solution.values, second.solution.values)


def test_cell_table_product_matches_the_propagator():
    # the chunked table of 150 cells (restarts every 50 or fewer) multiplies
    # out to the single-pair propagator of the same family
    from picardcert.solver import _scan
    fam = _recurrence_family("rotating")
    grid = np.linspace(0.5, 3.5, 151)
    table = fam.cell_table(grid)
    product = _scan(table.Phi, None, np.eye(fam.dim), n=len(table))[-1]
    expect = fam.propagate_matrix(grid[-1], grid[0])
    assert np.max(np.abs(product - expect)) < 1e-10 * np.max(np.abs(expect))


# -- the blocked scan of the cell recurrence ------------------------------------------

def _sequential_scan(Phi, b, z0):
    """The oracle: z_{j+1} = Phi_j z_j + b_j, one cell at a time."""
    z = np.empty((len(b) + 1,) + z0.shape)
    z[0] = z0
    for j, bj in enumerate(b):
        z[j + 1] = (Phi if Phi.ndim == 2 else Phi[j]) @ z[j] + bj
    return z


def _scan_case(case):
    rng = np.random.default_rng(7)
    if case == "d2":
        # the skew part does not commute with the diagonal one
        n = 777
        skew = 0.3 * rng.standard_normal(n)
        rot = np.stack([np.stack([np.cos(skew), np.sin(skew)], -1),
                        np.stack([-np.sin(skew), np.cos(skew)], -1)], -2)
        Phi = rot * np.array([0.99, 0.97])[:, None]
        return Phi, rng.standard_normal((n, 2)), rng.standard_normal(2)
    if case == "constant_24":
        from scipy.linalg import expm
        gen = 0.5 * rng.standard_normal((24, 24)) - 3.0 * np.eye(24)
        n = 2000
        return (expm(0.005 * gen), rng.standard_normal((n, 24, 8)),
                np.eye(24, 8))
    n = case
    return (rng.uniform(0.95, 1.0, (n, 1, 1)), rng.standard_normal((n, 1)),
            rng.standard_normal(1))


@pytest.mark.parametrize("case", [1, 2, 3, 49, 50, 5048, "d2", "constant_24"])
def test_scan_matches_the_sequential_recurrence(case):
    from picardcert.solver import _scan
    Phi, b, z0 = _scan_case(case)
    got, expect = _scan(Phi, b, z0), _sequential_scan(Phi, b, z0)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    # unforced: b = None with an explicit number of cells
    got = _scan(Phi, None, z0, n=len(b))
    expect = _sequential_scan(Phi, np.zeros_like(b), z0)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_resolvent_table_is_a_block_of_the_augmented_exponential():
    from scipy.linalg import expm
    from picardcert.evolution import build_resolvent, exponential_memory
    memory = exponential_memory(_MEMORY_TERMS, dim=2)
    grid = np.arange(0.0, 20.0 + 0.005, 0.01)
    R = build_resolvent(np.array([[-2.0, 1.0], [-1.0, -3.0]]), memory, grid,
                        tol=1e-8)
    for j in (1, 17, grid.size - 1):
        exact = expm(grid[j] * R.generator)[:2, :2]
        assert np.max(np.abs(R.values[j] - exact)) < 1e-12
