import dataclasses
import re

import numpy as np
import pytest

import picardcert as pc
from picardcert import solver
from picardcert.certify import (CertificationError, certify,
                                certify_ball_zero,
                                certify_bohr_neugebauer_hypotheses,
                                certify_evolution, compute_base_point,
                                compute_envelope_constants)
from picardcert.evolution import (certify_stability, constant_family,
                                  scalar_family, stability_sample_pairs)
from picardcert.paths import sup_norm
from picardcert.problem import (Nonlinearity, ProblemError, ProblemSpec,
                                saturating_lipschitz, sinusoid_affine,
                                zero_nonlinearity)


def delayed_spec(f=None, cx=0.25, rate=2.0, const=0.0, window=(-10.0, 10.0),
                 step=0.05, state_bound=3.0, **kw):
    return ProblemSpec(
        variant="delayed_only", dim=1,
        f=f if f is not None else zero_nonlinearity(),
        kernel_delayed=pc.exponential_kernel(rate, cx=cx, const=const,
                                             state_bound=state_bound),
        report_window=window, grid_step=step, quad_tol=1e-9, **kw)


def readme_spec(**kw):
    """The README's library sketch; keywords override its numbers."""
    numbers = dict(report_window=(-20.0, 20.0), grid_step=0.05, quad_tol=1e-9)
    numbers.update(kw)
    return ProblemSpec(
        variant="advanced_delayed", dim=1, f=sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        kernel_advanced=pc.zero_kernel(), **numbers)


def two_sided_spec(f, cx1=0.25, cx2=0.0, rate=2.0, window=(-10.0, 10.0)):
    return ProblemSpec(
        variant="advanced_delayed", dim=1, f=f,
        kernel_delayed=pc.exponential_kernel(rate, cx=cx1, state_bound=3.0),
        kernel_advanced=pc.exponential_kernel(rate, cx=cx2, state_bound=3.0),
        report_window=window, grid_step=0.05, quad_tol=1e-9)


# -- envelope constants ------------------------------------------------------------

def test_moduli_constants_for_exponential_kernel():
    spec = two_sided_spec(zero_nonlinearity(), cx1=0.25, cx2=0.25)
    c = compute_envelope_constants(spec)
    assert c.N1 == pytest.approx(0.125, abs=1e-8)
    assert c.N2 == pytest.approx(0.125, abs=1e-8)
    assert c.alpha1 == pytest.approx(0.25 * 3.0 / 2.0, abs=1e-7)


def half_line_spec():
    return ProblemSpec(
        variant="half_line", dim=1, f=sinusoid_affine(sin_amp=0.2, state_coeff=0.05),
        split_delayed=pc.split_exponential_kernel(2.0, aa_const=0.1, erg_cx=0.1,
                                                  state_bound=3.0),
        split_advanced=pc.split_exponential_kernel(2.0, state_bound=3.0),
        report_window=(0.0, 10.0), grid_step=0.05)


def test_constants_audit_names_provenance():
    full = two_sided_spec(zero_nonlinearity(), cx1=0.25, cx2=0.25)
    lines = compute_envelope_constants(full).audit_lines()
    assert [line.split()[0] for line in lines] == ["alpha1", "alpha2", "N1", "N2"]
    assert all(line.endswith(" (closed form)") for line in lines)
    rep = certify_bohr_neugebauer_hypotheses(full)
    assert rep.lines[0].endswith("(closed form)") and "argmax" not in rep.to_text()

    lines = compute_envelope_constants(half_line_spec()).audit_lines()
    assert [line.split()[0] for line in lines[:5]] == ["beta1_h5", "beta2_h5",
                                                       "P1", "P2", "Q1"]
    assert all(line.endswith(" (closed form)") for line in lines[:5])
    assert [line.split()[0] for line in lines[5:7]] == ["gamma1", "gamma2"]
    assert all(line.endswith(" (sampled)") for line in lines[5:7])
    assert len(lines) == 8 and lines[7].startswith(
        "  gamma1, gamma2 sampled on a t-grid of 129 points on [0, 10]")


def test_gamma1_integrates_the_whole_split_kernel():
    # zero recurrent part: gamma1 is the sup of
    # int_0^t e^{-2(t-s)} 0.3 e^{-0.05 s} ds = 0.3 (e^{-0.05t} - e^{-2t}) / 1.95,
    # whose integral reaches past the span of the recurrent part's envelope
    spec = ProblemSpec(
        variant="half_line", dim=1, f=pc.zero_nonlinearity(),
        split_delayed=pc.split_exponential_kernel(2.0, erg_const=0.3,
                                                  erg_decay=0.05),
        split_advanced=pc.split_exponential_kernel(2.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)
    c = compute_envelope_constants(spec)
    t = spec.constants_grid()
    expect = np.max(0.3 * (np.exp(-0.05 * t) - np.exp(-2.0 * t)) / 1.95)
    assert abs(c.gamma1 - expect) < 1e-12


def test_half_line_constant_reads_the_recurrent_moduli():
    # the recurrent part's Lipschitz modulus 0.4 e^{-0.5|t-s|} has mass 0.8:
    # without beta1 the constant read 2 (0.05 + Q1) = 0.1 and thAAA24 passed,
    # while the sweeps contract at a measured rate of about 0.78
    from picardcert.solver import picard_solve
    spec = ProblemSpec(
        variant="half_line", dim=1, f=sinusoid_affine(sin_amp=1.0, state_coeff=0.05),
        split_delayed=pc.split_exponential_kernel(0.5, aa_cx=0.4, state_bound=3.0),
        split_advanced=pc.split_exponential_kernel(0.5, state_bound=3.0),
        report_window=(0.0, 12.0), grid_step=0.05, quad_tol=1e-9)
    cert = certify_ball_zero(spec, rho=1.0)
    c = cert.constants
    assert (c.beta1_h5, c.beta2_h5, c.Q1) == (0.8, 0.0, 0.0)
    assert cert.L_gamma == pytest.approx(2.0 * (0.05 + 0.8), abs=1e-12)
    assert not cert.passed
    rep = picard_solve(spec, cert, tol=1e-8, allow_uncertified=True)
    assert 0.7 < max(rep.measured_rates) <= cert.L_gamma


# -- base points --------------------------------------------------------------------

def test_base_point_zero_problem():
    spec = delayed_spec()
    y0 = compute_base_point(spec)
    assert sup_norm(y0) == 0.0


def test_base_point_forcing_plus_kernel_constant():
    # f(t,0,0) = sin t and a kernel worth 1/4 at zero state give sin t + 1/4
    spec = delayed_spec(f=sinusoid_affine(sin_amp=1.0), cx=0.0, const=0.25,
                        rate=1.0)
    y0 = compute_base_point(spec)
    expect = np.sin(y0.grid) + 0.25
    assert np.max(np.abs(y0.values[:, 0] - expect)) < 1e-8


def test_base_point_evolution_semigroup():
    fam = constant_family([[-1.0]])
    certify_stability(fam, stability_sample_pairs((0.0, 8.0), n=20), M=1.0,
                      delta=1.0)
    spec = ProblemSpec(variant="delay_parabolic", dim=1,
                       f=zero_nonlinearity(), evolution=fam, delay=0.5,
                       report_window=(0.0, 5.0), grid_step=0.05)
    y0 = compute_base_point(spec)
    assert sup_norm(y0) <= 1e-9  # zero forcing integrates to zero


def test_base_point_is_the_specs_own():
    # certify reads the spec's memo, not a second application of T to zero
    spec = delayed_spec(f=sinusoid_affine(sin_amp=0.5), cx=0.0, const=0.25)
    cert = certify_ball_zero(spec, rho=2.0)
    assert cert.base_point is spec.base_point
    assert compute_base_point(spec) is spec.base_point
    fresh = solver.apply_operator(spec, solver.zero_start(spec))
    assert np.array_equal(cert.base_point.grid, fresh.grid)
    assert np.array_equal(cert.base_point.values, fresh.values)
    # the sweeps start from a copy: the spline they build on it is not kept
    # by the memo for the spec's lifetime
    report = pc.picard_solve(spec, cert, tol=1e-8)
    assert report.iterations >= 1 and "_spline" not in vars(spec.base_point)


def test_spec_is_a_value():
    # a frozen spec cannot change under its base point; replace builds a
    # new spec, which computes its own
    spec = delayed_spec(f=sinusoid_affine(sin_amp=0.5))
    y0 = spec.base_point
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.f = sinusoid_affine(sin_amp=1.0)
    other = dataclasses.replace(spec, f=sinusoid_affine(sin_amp=1.0))
    assert "base_point" not in vars(other)
    assert other.base_point is not y0
    assert not np.array_equal(other.base_point.values, y0.values)
    assert spec.base_point is y0


# -- ball-around-zero certificates ----------------------------------------------------

def test_ball_zero_arithmetic_pass():
    # L_f=0.1, N1=0.1, N2=0.05 -> L = 0.5 < rho/(rho+|y0|)
    f = sinusoid_affine(sin_amp=0.4, state_coeff=0.1)
    spec = two_sided_spec(f, cx1=0.2, cx2=0.1)  # N1 = 0.1, N2 = 0.05
    cert = certify_ball_zero(spec, rho=1.0)
    assert cert.L_gamma == pytest.approx(0.5, abs=1e-7)
    assert cert.base_sup < 0.55
    assert cert.verdict == "pass"
    assert cert.slack is not None and cert.slack > 0


def test_ball_zero_fail_large_constant():
    # L_f=0.3, N1=N2=0.2 -> L = 1.4: fails for every rho
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.3)
    spec = two_sided_spec(f, cx1=0.4, cx2=0.4)
    for rho in (0.5, 1.0, 100.0):
        cert = certify_ball_zero(spec, rho=rho)
        assert cert.L_gamma == pytest.approx(1.4, abs=1e-6)
        assert cert.verdict == "fail"
        assert cert.violated


def test_ball_zero_delayed_only_uses_single_modulus():
    f = sinusoid_affine(sin_amp=0.2, state_coeff=0.1)
    spec = delayed_spec(f=f, cx=0.25)  # N1 = 0.125
    cert = certify_ball_zero(spec, rho=1.0)
    assert cert.L_gamma == pytest.approx(2 * (0.1 + 0.125), abs=1e-7)
    assert cert.theorem_id == "th24"


def test_ball_zero_base_point_containment():
    f = sinusoid_affine(sin_amp=5.0)  # |y0| = 5 > rho
    spec = delayed_spec(f=f, cx=0.05)
    cert = certify_ball_zero(spec, rho=1.0)
    assert cert.verdict == "fail"
    assert "y0" in cert.violated


def test_ball_zero_monotone_in_rho():
    f = sinusoid_affine(sin_amp=0.4, state_coeff=0.05)
    # the kernel's declared state ball covers every radius tried
    spec = delayed_spec(f=f, cx=0.2, state_bound=20.0)
    verdicts = []
    for rho in (0.5, 1.0, 2.0, 5.0, 20.0):
        cert = certify_ball_zero(spec, rho=rho)
        verdicts.append(cert.passed)
    # enlarging rho never flips pass -> fail once the base point fits
    first_pass = verdicts.index(True)
    assert all(verdicts[first_pass:])


def test_ball_past_kernel_state_bound_refused():
    # on a zero state ball the kernel's envelope is zero and its integral is
    # truncated at the minimum span: a ball of radius 1 holds states where
    # neither the envelope nor the truncation is valid
    spec = delayed_spec(f=sinusoid_affine(sin_amp=1.0), cx=0.25,
                        window=(-5.0, 5.0), state_bound=0.0)
    cert = certify_ball_zero(spec, rho=1.0)
    assert cert.verdict == "fail"
    assert cert.violated == "state radius rho <= kernel state_bound"
    # the shifted ball holds states up to |y0| + rho
    spec = delayed_spec(f=sinusoid_affine(sin_amp=1.0), cx=0.25,
                        window=(-5.0, 5.0), state_bound=1.5)
    assert certify_ball_zero(spec, rho=1.5).passed
    cert = certify(spec, 1.0, "shifted")
    assert cert.verdict == "fail"
    assert cert.violated == "state radius |y0| + rho <= kernel state_bound"


def _tanh_forcing(kappa):
    """0.2 tanh(kappa x) + 0.1 tanh(kappa y)/kappa + 0.05 sin t, whose
    Lipschitz constant is 0.2 kappa + 0.1."""
    def f_eval(t, x, y):
        t = np.atleast_1d(np.asarray(t, float))
        return (0.2 * np.tanh(kappa * np.asarray(x))
                + 0.1 * np.tanh(kappa * np.asarray(y)) / kappa
                + 0.05 * np.sin(t)[..., None])
    return f_eval


def test_undeclared_lipschitz_refused():
    # sampled difference quotients put L_f near 0.3 at both kappas, and th24
    # passed on them; with the true constant the contraction constant is
    # 2 (0.2 kappa + 0.1 + 0.05) > 1
    kernel = pc.exponential_kernel(2.0, cx=0.1, state_bound=3.0)
    for kappa in (5.0, 100.0):
        spec = dataclasses.replace(readme_spec(grid_step=0.1), kernel_delayed=kernel,
                                   f=Nonlinearity(_tanh_forcing(kappa)))
        for mode in ("ball", "shifted"):
            with pytest.raises(CertificationError, match="lipschitz"):
                certify(spec, rho=1.0, mode=mode)
        declared = Nonlinearity(_tanh_forcing(kappa), lipschitz=0.2 * kappa + 0.1)
        cert = certify(dataclasses.replace(spec, f=declared), rho=1.0)
        assert cert.verdict == "fail"
        assert cert.L_gamma == pytest.approx(2.0 * (0.2 * kappa + 0.15), rel=1e-9)


def test_curve_only_lipschitz_serves_the_radius_search_alone():
    f = Nonlinearity(lambda t, x, y: 0.1 * np.tanh(np.asarray(x))
                     + 0.1 * np.sin(np.atleast_1d(t))[..., None],
                     lipschitz=None,
                     lipschitz_curve=saturating_lipschitz(0.1, 0.2, 1.0))
    spec = two_sided_spec(f, cx1=0.2, cx2=0.1)
    for mode in ("ball", "shifted"):
        with pytest.raises(CertificationError, match="lipschitz"):
            certify(spec, rho=1.0, mode=mode)
    cert = certify(spec, None, "radius")
    assert cert.theorem_id == "K-conditions"
    assert cert.verdict == "pass"


# -- shifted-ball certificates ---------------------------------------------------------

def test_shifted_ball_known_theta():
    # kernel 1/4 e^{-(t-s)}(x + 0.8): L = 0.5, |Gamma y0 - y0| = 0.2, theta = 0.4
    spec = delayed_spec(cx=0.25, const=0.8, rate=1.0)
    cert = certify(spec, 0.5, "shifted")
    assert cert.theorem_id == "teos2-ball"
    assert cert.L_gamma == pytest.approx(0.5, abs=1e-7)
    assert cert.theta == pytest.approx(0.4, abs=1e-6)
    assert cert.verdict == "pass"
    cert2 = certify(spec, 0.3, "shifted")
    assert cert2.verdict == "fail"


def test_shifted_ball_degenerate_fixed_point():
    spec = delayed_spec()  # everything zero: y0 = 0 is already fixed
    cert = certify(spec, 1.0, "shifted")
    assert cert.verdict == "degenerate-pass"


@pytest.mark.parametrize("field, value", [
    ("quad_tol", np.inf), ("quad_tol", np.nan), ("quad_tol", 0.0),
    ("const_tol", np.inf), ("const_tol", -1e-9),
    ("grid_step", np.inf), ("grid_step", np.nan),
    ("report_window", (-20.0, np.inf)), ("report_window", (-np.inf, 20.0)),
    ("report_window", (np.nan, 20.0))])
def test_spec_refuses_non_finite_or_non_positive_numbers(field, value):
    # with quad_tol = inf every truncation span is empty, the base point is
    # zero and the shifted ball passed as "solution is y0"
    name = "report window" if field == "report_window" else field
    with pytest.raises(ProblemError, match=name):
        readme_spec(**{field: value})


def test_spec_refuses_a_family_or_u0_of_another_dimension():
    # a scalar family on a dim = 2 problem dropped the second component
    f = sinusoid_affine(sin_amp=0.25)
    fam = scalar_family(lambda t: -1.0)
    kw = dict(variant="evolution_nonlocal", f=f, evolution=fam,
              report_window=(0.0, 5.0))
    ProblemSpec(dim=1, u0=np.zeros(1), **kw)
    with pytest.raises(ProblemError, match="the evolution family has "
                       "dimension 1, the problem has dim = 2"):
        ProblemSpec(dim=2, u0=np.zeros(2), **kw)
    with pytest.raises(ProblemError, match="u0 has 2 components, the "
                       "problem has dim = 1"):
        ProblemSpec(dim=1, u0=np.zeros(2), **kw)


def _variant_specs():
    """One spec of each variant, with only the data it needs."""
    from picardcert.evolution import build_resolvent, exponential_memory
    fam = scalar_family(lambda t: -2.0)
    certify_stability(fam, stability_sample_pairs((-15.0, 15.0), n=12),
                      M=1.0, delta=2.0)
    R = build_resolvent(np.array([[-2.0]]), exponential_memory(
        [(np.array([[-0.25]]), 1.0)], dim=1), np.arange(0.0, 5.005, 0.01))
    f, u0 = sinusoid_affine(sin_amp=0.25), np.zeros(1)
    return {
        "advanced_delayed": readme_spec(),
        "delayed_only": delayed_spec(),
        "half_line": half_line_spec(),
        "evolution_nonlocal": ProblemSpec(
            variant="evolution_nonlocal", f=f, evolution=fam, u0=u0,
            report_window=(0.0, 5.0)),
        "resolvent_nonlocal": ProblemSpec(
            variant="resolvent_nonlocal", f=f, resolvent=R, u0=u0,
            report_window=(0.0, 5.0)),
        "delay_parabolic": ProblemSpec(
            variant="delay_parabolic", f=f, evolution=fam, delay=1.0,
            report_window=(-5.0, 5.0))}


@pytest.mark.parametrize("variant, name", [
    ("evolution_nonlocal", "delay"), ("resolvent_nonlocal", "memory_kernel"),
    ("delay_parabolic", "memory_kernel"), ("delay_parabolic", "nonlocal_map"),
    ("delay_parabolic", "u0"), ("evolution_nonlocal", "kernel_delayed"),
    ("evolution_nonlocal", "warps"), ("advanced_delayed", "evolution"),
    ("advanced_delayed", "split_delayed"), ("half_line", "kernel_delayed"),
    ("delayed_only", "delay")])
def test_spec_refuses_a_field_its_variant_does_not_read(variant, name):
    # each was accepted and dropped: a delay on evolution_nonlocal was never
    # read, and a memory kernel on resolvent_nonlocal entered th33's C_B but
    # not the operator
    from picardcert.evolution import exponential_causal
    value = {"delay": 1.0, "u0": np.zeros(1),
             "memory_kernel": exponential_causal(np.eye(1), 1.0, 1),
             "nonlocal_map": pc.zero_nonlocal(1),
             "kernel_delayed": pc.exponential_kernel(2.0, cx=0.25),
             "warps": {"a0": pc.TimeWarp("shift", tau=1.0)},
             "evolution": scalar_family(lambda t: -1.0),
             "split_delayed": pc.split_exponential_kernel(2.0)}[name]
    spec = _variant_specs()[variant]
    with pytest.raises(ProblemError, match=f"^{variant} problems do not "
                       f"read {name}$"):
        dataclasses.replace(spec, **{name: value})


@pytest.mark.parametrize("delay", [-1.0, -0.02, np.inf, np.nan])
def test_spec_refuses_a_negative_or_non_finite_delay(delay):
    # with tau = -1 the operator read y(s + 1) past the grid's right end,
    # where no margin is added: delay-final passed, yet the solution on
    # [-10, 10] differed from the one on [-10, 20] by 8.7e-3 at t = 10
    from picardcert.evolution import delay_demo_solve
    spec = _variant_specs()["delay_parabolic"]
    with pytest.raises(ProblemError, match="delay must be finite and "
                       "nonnegative"):
        dataclasses.replace(spec, delay=delay)
    with pytest.raises(ProblemError, match="delay must be finite"):
        delay_demo_solve(spec.evolution, spec.f, tau=delay, rho=2.0)


def test_shifted_ball_requires_contraction():
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.6)
    spec = delayed_spec(f=f, cx=0.25)  # L = 2(0.6 + 0.125) > 1
    cert = certify(spec, 1.0, "shifted")
    assert cert.verdict == "fail"
    assert "1" in cert.violated


@pytest.mark.xfail(strict=True, reason="the ball theorems read base_sup as "
                   "the node maximum of T(0); between nodes T(0) is larger")
def test_ball_zero_fails_when_the_base_point_leaves_the_ball():
    # T(0) = sin t, so sup|T(0)| = 1 > rho; at step 0.8 the node maximum
    # reads 0.99957 and the certificate passes
    cert = certify_ball_zero(readme_spec(grid_step=0.8), rho=0.9998)
    assert cert.verdict == "fail"


def test_theta_identity():
    # theta * (1 - L) equals the measured displacement of the base point
    spec = delayed_spec(cx=0.25, const=0.8, rate=1.0)
    cert = certify(spec, 1.0, "shifted")
    from picardcert.solver import apply_operator
    gap = pc.paths.sup_distance(apply_operator(spec, cert.base_point),
                                cert.base_point)
    assert cert.theta * (1 - cert.L_gamma) == pytest.approx(gap, abs=1e-9)


# -- radius-search certificates -----------------------------------------------------------

def test_radius_search_linear_objective_passes():
    f = sinusoid_affine(sin_amp=0.5, state_coeff=0.1)
    spec = two_sided_spec(f, cx1=0.2, cx2=0.1)  # slope 1 - 0.5 > 0
    cert = certify(spec, None, "radius")
    assert cert.verdict == "pass"
    assert cert.theorem_id == "K-conditions"
    # the objective grows without bound, but the ball must lie inside the
    # kernels' declared state ball |x| <= 3
    assert cert.witness_radius <= 3.0


def test_radius_search_refuses_state_bound_below_its_least_radius():
    spec = delayed_spec(f=sinusoid_affine(sin_amp=0.5, state_coeff=0.1),
                        state_bound=1e-4)
    with pytest.raises(CertificationError, match="state_bound"):
        certify(spec, None, "radius")


def test_radius_search_flat_objective_fails():
    f = sinusoid_affine(sin_amp=0.5, state_coeff=0.5)
    spec = delayed_spec(f=f, cx=0.0)
    cert = certify(spec, None, "radius")
    assert cert.verdict == "fail"


def test_radius_search_curve_matches_dense_scan():
    curve = saturating_lipschitz(0.1, 0.2, 1.0)
    f = Nonlinearity(lambda t, x, y: np.zeros(np.shape(np.atleast_1d(t)) + (1,)),
                     lipschitz=None, lipschitz_curve=curve, dim=1)
    spec = two_sided_spec(f, cx1=0.2, cx2=0.1)
    c = compute_envelope_constants(spec)
    cert = certify(spec, None, "radius")
    # independent dense 1-D scan over the same log range, which ends at the
    # kernels' state_bound 3
    rs = np.logspace(-3, np.log10(3.0), 400001)
    obj = rs * (1 - 2 * curve(rs) - 2 * (c.N1 + c.N2))
    best = float(np.max(obj))
    got = cert.witness_radius * (1 - 2 * curve(cert.witness_radius)
                                 - 2 * (c.N1 + c.N2))
    assert got >= best - 1e-6 * max(1.0, abs(best))


# -- evolution certificates ------------------------------------------------------------

def _stable_family(rate=1.0):
    fam = scalar_family(lambda t: -rate)
    certify_stability(fam, stability_sample_pairs((0.0, 10.0), n=24),
                      M=1.0, delta=rate)
    return fam


def test_evolution_ball_arithmetic():
    # M=1, delta=1, C_B=0, L_g=0, L_F=0.4, |y0| ~ 0.5 -> pass at rho=1
    fam = _stable_family()
    f = sinusoid_affine(sin_amp=0.25, state_coeff=0.4)
    spec = ProblemSpec(variant="evolution_nonlocal", dim=1, f=f, evolution=fam,
                       u0=np.array([0.3]), nonlocal_map=pc.zero_nonlocal(1),
                       report_window=(0.0, 10.0), grid_step=0.05)
    cert = certify_evolution(spec, rho=1.0, theorem="theoaaa1")
    assert cert.xi0 == pytest.approx(0.4, abs=1e-9)
    assert cert.verdict == "pass"


def test_evolution_shifted_variant():
    fam = _stable_family()
    f = sinusoid_affine(sin_amp=0.25, state_coeff=0.2)
    spec = ProblemSpec(variant="evolution_nonlocal", dim=1, f=f, evolution=fam,
                       u0=np.array([0.3]), nonlocal_map=pc.zero_nonlocal(1),
                       report_window=(0.0, 10.0), grid_step=0.05)
    cert = certify_evolution(spec, rho=2.0, theorem="theoaaa12")
    assert cert.theorem_id == "theoaaa12"
    assert cert.passed
    assert cert.theta is not None and cert.theta <= 2.0


def test_corth33_flavour_recorded():
    fam = _stable_family()
    f = sinusoid_affine(sin_amp=0.2, state_coeff=0.3)
    g = pc.point_eval_nonlocal(0.2, 1.0, dim=1)
    spec = ProblemSpec(variant="evolution_nonlocal", dim=1, f=f, evolution=fam,
                       u0=np.array([0.1]), nonlocal_map=g,
                       report_window=(0.0, 10.0), grid_step=0.05)
    # M=1, delta=1, C_B=0: delta/M = 1 > delta L_g + L_F = 0.2 + 0.3
    cert = certify_evolution(spec, rho=1.0, theorem="th33")
    assert cert.verdict == "pass"
    assert any("constant-Lipschitz flavour" in a for a in cert.audit)


def test_resolvent_ball_certificate():
    from picardcert.evolution import build_resolvent, exponential_memory
    mem = exponential_memory([(np.array([[-0.25]]), 1.0)], dim=1)
    grid = np.arange(0.0, 10.0 + 0.005, 0.01)
    R = build_resolvent(np.array([[-2.0]]), mem, grid, tol=1e-8)
    # R(t) = (1 - t/2) e^{-1.5 t} for this kernel, so |R(t)| <= e^{-1.2 t}
    # (|1 - t/2| e^{-0.3 t} peaks at 0.34 past t = 2); e^{-1.5 t} fails
    assert pc.certify_decay(R, M=1.0, delta=1.2).passed
    f = sinusoid_affine(sin_amp=0.2, state_coeff=0.3)
    spec = ProblemSpec(variant="resolvent_nonlocal", dim=1, f=f, resolvent=R,
                       u0=np.array([0.2]), nonlocal_map=pc.zero_nonlocal(1),
                       report_window=(0.0, 10.0), grid_step=0.05)
    cert = certify_evolution(spec, rho=2.0, theorem="th31")
    # delta = 1.2: L_f=0.3 < rho delta/(M(rho+|y0|))
    assert cert.theorem_id == "th31"
    assert cert.verdict == "pass"
    cert2 = certify_evolution(spec, rho=2.0, theorem="th313")
    assert cert2.passed
    assert "stability constants: M = 1, delta = 1.2 (sampled: checked on " \
        "201 pairs)" in cert.audit


def test_missing_stability_certificate_raises():
    fam = scalar_family(lambda t: -1.0)  # no certificate attached
    f = sinusoid_affine(sin_amp=0.25)
    spec = ProblemSpec(variant="delay_parabolic", dim=1, f=f, evolution=fam,
                       delay=1.0, report_window=(-5.0, 5.0), grid_step=0.05)
    with pytest.raises(CertificationError):
        certify_evolution(spec, rho=1.0)


def _slow_resolvent():
    # R' = -0.5 R + int_0^t 0.2 e^{-(t-s)} R(s) ds: |R(t)| <= e^{-0.25 t} only
    mem = pc.exponential_memory([(np.array([[0.2]]), 1.0)], dim=1)
    return pc.build_resolvent(np.array([[-0.5]]), mem,
                              np.arange(0.0, 10.005, 0.01))


def test_refuted_resolvent_decay_is_refused():
    # a declared e^{-5t} passed th31 with contraction constant 0.08, and
    # picard_solve reported an a-priori bound of 5e-20 at measured rates of
    # 0.67-0.92; the record's own rows refute it, and certify refuses it
    R = _slow_resolvent()
    rec = pc.certify_decay(R, M=1.0, delta=5.0)
    assert R.stability is rec and not rec.passed
    table = R.norm_table()
    assert np.count_nonzero(table[:, 1] > table[:, 2]) == 200
    spec = ProblemSpec(variant="resolvent_nonlocal", dim=1, resolvent=R,
                       f=sinusoid_affine(sin_amp=0.3, state_coeff=0.4),
                       nonlocal_map=pc.zero_nonlocal(1), u0=np.zeros(1),
                       report_window=(0.0, 10.0), grid_step=0.01)
    for rho in (1.0, None):
        mode = "ball" if rho else "radius"
        with pytest.raises(CertificationError, match=re.escape(
                "the resolvent's stability bound is refuted: " + rec.lines[-1])):
            certify(spec, rho=rho, mode=mode)
    R.stability = None
    with pytest.raises(CertificationError, match="resolvent has no stability"):
        certify(spec, rho=1.0)
    # the bound the table supports: th31's constant is (M/delta) L_f = 1.6
    assert pc.certify_decay(R, M=1.0, delta=0.25).passed
    cert = certify(spec, rho=1.0)
    assert not cert.passed
    assert cert.L_gamma == pytest.approx(1.6, rel=1e-12)


@pytest.mark.parametrize("M, delta", [(0.5, 1.0), (1.0, 0.0), (1.0, -1.0),
                                      (np.nan, 1.0), (np.inf, 1.0),
                                      (1.0, np.inf)],
                         ids=["M_below_one", "delta_zero", "delta_negative",
                              "M_nan", "M_inf", "delta_inf"])
def test_decay_bound_that_is_no_decay_refused(M, delta):
    # U(t, t) = R(0) = I refutes any M < 1 at zero separation, and delta <= 0
    # is no decay: both propagators refuse such a bound, naming both numbers
    want = re.escape(f"got M = {M:.12g}, delta = {delta:.12g}")
    fam = constant_family([[-1.0]])
    with pytest.raises(ValueError, match=want):
        certify_stability(fam, stability_sample_pairs((0.0, 5.0), n=8),
                          M=M, delta=delta)
    assert fam.stability is None
    R = _slow_resolvent()
    with pytest.raises(ValueError, match=want):
        pc.certify_decay(R, M=M, delta=delta)
    assert R.stability is None


@pytest.mark.parametrize("value", [-3.0, np.nan, np.inf])
def test_lipschitz_constant_that_is_negative_or_infinite_refused(value):
    # with lipschitz = -3, th24 passed with contraction constant -5.9, and
    # picard_solve clamped it to 0 and stopped after one sweep at residual
    # 2.77; a nonlocal map's constant enters the same constants
    func = sinusoid_affine(sin_amp=0.3, state_coeff=3.0).func
    with pytest.raises(ValueError, match=re.escape(f"got {value:.12g}")):
        Nonlinearity(func, lipschitz=value)
    with pytest.raises(ValueError, match=re.escape(f"got {value:.12g}")):
        pc.NonlocalMap(lambda u: np.zeros(1), value, np.zeros(1))


def test_delay_certificate():
    fam = _stable_family()
    f = sinusoid_affine(sin_amp=0.5, state_coeff=0.1)
    spec = ProblemSpec(variant="delay_parabolic", dim=1, f=f, evolution=fam,
                       delay=1.0, report_window=(-5.0, 5.0), grid_step=0.05)
    cert = certify_evolution(spec, rho=2.0)
    assert cert.theorem_id == "delay-final"
    assert cert.verdict == "pass"
    assert cert.L_gamma == pytest.approx(0.1, abs=1e-12)


# -- recurrence-transfer hypotheses ------------------------------------------------------

def test_transfer_hypotheses_pass():
    f = sinusoid_affine(sin_amp=0.3, state_coeff=0.2)
    spec = two_sided_spec(f, cx1=0.6, cx2=0.2)  # 0.2 + 0.3 + 0.1 = 0.6 < 1
    rep = certify_bohr_neugebauer_hypotheses(spec)
    assert rep.passed
    assert rep.rho == pytest.approx(0.6, abs=1e-6)


def test_transfer_hypotheses_fail():
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.9)
    spec = delayed_spec(f=f, cx=0.4)  # 0.9 + 0.2 = 1.1
    rep = certify_bohr_neugebauer_hypotheses(spec)
    assert not rep.passed
    assert rep.rho == pytest.approx(1.1, abs=1e-6)


def test_transfer_hypotheses_fail_at_boundary():
    # L_f + int mu = 0.5 + 1.0/2.0 = 1 exactly, and the smallness condition
    # is strict
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.5)
    spec = delayed_spec(f=f, cx=1.0)
    rep = certify_bohr_neugebauer_hypotheses(spec)
    assert rep.rho == 1.0
    assert rep.passed is False


def test_transfer_hypotheses_refuse_a_tabulated_warp():
    # a shift preserves recurrence; a tabulated a(t) is not known to, so the
    # check reads NO even though rho = 0.5 < 1
    from picardcert.paths import TimeWarp
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.2)
    tt = np.linspace(-20.0, 20.0, 41)
    for warp, expect in ((TimeWarp("shift", tau=-1.0), True),
                         (TimeWarp("tabulated", table_t=tt, table_a=tt), False)):
        rep = certify_bohr_neugebauer_hypotheses(
            delayed_spec(f=f, cx=0.6, rate=2.0, warps={"a1": warp}))
        assert rep.rho == pytest.approx(0.5, abs=1e-6)
        assert rep.passed is expect
        assert (f"time warps preserve recurrence: {'yes' if expect else 'NO'}"
                in rep.lines)


def test_transfer_single_kernel_flavour():
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.2)
    spec = delayed_spec(f=f, cx=0.6, rate=2.0)  # 0.2 + 0.3 = 0.5
    rep = certify_bohr_neugebauer_hypotheses(spec)
    assert rep.passed
    assert rep.rho == pytest.approx(0.5, abs=1e-6)
    assert any("delayed-only" in line for line in rep.lines)


# -- dispatcher totality and the theorem table ------------------------------------------

def _dispatch_specs():
    f = sinusoid_affine(sin_amp=0.2, state_coeff=0.05)
    fam = _stable_family()
    from picardcert.evolution import build_resolvent, exponential_memory
    mem = exponential_memory([(np.array([[0.0]]), 1.0)], dim=1)
    R = build_resolvent(np.array([[-1.0]]), mem,
                        np.arange(0.0, 10.0 + 0.01, 0.02), tol=1e-8)
    pc.certify_decay(R, M=1.0, delta=1.0)  # R(t) = e^{-t}
    return {
        "advanced_delayed": two_sided_spec(f, cx1=0.1, cx2=0.1),
        "delayed_only": delayed_spec(f=f, cx=0.1),
        "half_line": ProblemSpec(
            variant="half_line", dim=1, f=f,
            split_delayed=pc.split_exponential_kernel(2.0, erg_cx=0.1,
                                                      state_bound=3.0),
            split_advanced=pc.split_exponential_kernel(2.0, state_bound=3.0),
            report_window=(0.0, 10.0), grid_step=0.05),
        "evolution_nonlocal": ProblemSpec(
            variant="evolution_nonlocal", dim=1, f=f, evolution=fam,
            u0=np.array([0.1]), nonlocal_map=pc.zero_nonlocal(1),
            report_window=(0.0, 8.0), grid_step=0.05),
        "resolvent_nonlocal": ProblemSpec(
            variant="resolvent_nonlocal", dim=1, f=f, resolvent=R,
            u0=np.array([0.1]), nonlocal_map=pc.zero_nonlocal(1),
            report_window=(0.0, 8.0), grid_step=0.05),
        "delay_parabolic": ProblemSpec(
            variant="delay_parabolic", dim=1, f=f, evolution=fam, delay=0.5,
            report_window=(-4.0, 4.0), grid_step=0.05),
    }


# the documented mode -> theorem table; None: no theorem serves that mode
MODE_TABLE = {
    "advanced_delayed": ("th24", "teos2-ball", "K-conditions"),
    "delayed_only": ("th24", "teos2-ball", "K-conditions"),
    "half_line": ("thAAA24", "teos2-ball", "K-conditions"),
    "evolution_nonlocal": ("theoaaa1", "theoaaa12", "th33"),
    "resolvent_nonlocal": ("th31", "th313", "th33"),
    "delay_parabolic": ("delay-final", None, "th33"),
}


def test_dispatch_covers_every_variant():
    for name, spec in _dispatch_specs().items():
        for mode, expect in zip(("ball", "shifted", "radius"), MODE_TABLE[name]):
            if expect is None:
                with pytest.raises(CertificationError):
                    certify(spec, rho=2.0, mode=mode)
                continue
            cert = certify(spec, rho=2.0, mode=mode)
            assert cert.theorem_id == expect, (name, mode)
            assert cert.verdict in ("pass", "fail", "degenerate-pass"), (name, mode)
    # an explicit theorem wins over the mode
    cert = certify(spec, rho=2.0, mode="radius", theorem="delay-final")
    assert cert.theorem_id == "delay-final"


def test_no_row_passes_without_a_declared_lipschitz_constant():
    for name, spec in _dispatch_specs().items():
        spec = dataclasses.replace(spec, f=Nonlinearity(spec.f.func))
        for mode, expect in zip(("ball", "shifted", "radius"), MODE_TABLE[name]):
            with pytest.raises(CertificationError,
                               match="(?i)lipschitz" if expect else None):
                certify(spec, rho=2.0, mode=mode)


def test_dispatch_rejects_bad_requests():
    specs = _dispatch_specs()
    # no rho for a ball theorem, on a full-line and on a half-line problem
    for name in ("advanced_delayed", "half_line"):
        with pytest.raises(CertificationError):
            certify(specs[name])
    with pytest.raises(CertificationError):
        certify(specs["delayed_only"], rho=0.0)
    # a theorem from the other family, or one that does not exist
    with pytest.raises(CertificationError):
        certify(specs["delayed_only"], rho=1.0, theorem="th31")
    with pytest.raises(CertificationError):
        certify_evolution(specs["evolution_nonlocal"], rho=1.0, theorem="th24")
    with pytest.raises(CertificationError):
        certify(specs["delayed_only"], rho=1.0, theorem="th99")
    # a theorem of the same family written for another variant
    with pytest.raises(CertificationError):
        certify_evolution(specs["delay_parabolic"], rho=1.0, theorem="theoaaa1")
    # an unknown mode
    with pytest.raises(CertificationError):
        certify(specs["delayed_only"], rho=1.0, mode="spherical")


def test_theoaaa1_ball_check_honours_slack_margin():
    # same data as test_evolution_ball_arithmetic: slack rho/(rho+|y0|) - xi0
    # is about 0.37, so a margin of 0.5 must fail the strict ball inequality
    fam = _stable_family()
    f = sinusoid_affine(sin_amp=0.25, state_coeff=0.4)
    spec = ProblemSpec(variant="evolution_nonlocal", dim=1, f=f, evolution=fam,
                       u0=np.array([0.3]), nonlocal_map=pc.zero_nonlocal(1),
                       report_window=(0.0, 10.0), grid_step=0.05)
    assert certify_evolution(spec, rho=1.0, theorem="theoaaa1").passed
    cert = certify_evolution(spec, rho=1.0, theorem="theoaaa1", slack_margin=0.5)
    assert 0.0 < cert.slack < 0.5
    assert cert.verdict == "fail"
    assert cert.violated == "xi0 <= rho/(rho+|y0|)"


_AUDIT_LINE = re.compile(r"^(.*): lhs (\S+), rhs (\S+), slack (\S+) "
                         r"\((strict|non-strict)\): (holds|VIOLATED)$")


def _table_cases():
    """(spec, rho, theorem) on the small specs above, passing and failing."""
    d = _dispatch_specs()
    fam = _stable_family()

    def evo(coeff, g=pc.zero_nonlocal(1), u0=0.3):
        return ProblemSpec(
            variant="evolution_nonlocal", dim=1, evolution=fam, u0=np.array([u0]),
            f=sinusoid_affine(sin_amp=0.25, state_coeff=coeff), nonlocal_map=g,
            report_window=(0.0, 10.0), grid_step=0.05)

    return [
        (delayed_spec(f=sinusoid_affine(sin_amp=0.2, state_coeff=0.05), cx=0.1),
         1.0, "th24"),
        (delayed_spec(f=sinusoid_affine(sin_amp=5.0), cx=0.05), 1.0, "th24"),
        (two_sided_spec(sinusoid_affine(sin_amp=0.1, state_coeff=0.3),
                        cx1=0.4, cx2=0.4), 1.0, "th24"),
        (d["half_line"], 2.0, "thAAA24"),
        (d["half_line"], 0.01, "thAAA24"),
        (delayed_spec(cx=0.25, const=0.8, rate=1.0), 0.5, "teos2-ball"),
        (delayed_spec(cx=0.25, const=0.8, rate=1.0), 0.3, "teos2-ball"),
        (delayed_spec(f=sinusoid_affine(sin_amp=0.1, state_coeff=0.6), cx=0.25),
         1.0, "teos2-ball"),
        (two_sided_spec(sinusoid_affine(sin_amp=0.5, state_coeff=0.1),
                        cx1=0.2, cx2=0.1), None, "K-conditions"),
        (delayed_spec(f=sinusoid_affine(sin_amp=0.5, state_coeff=0.5), cx=0.0),
         None, "K-conditions"),
        (evo(0.4), 1.0, "theoaaa1"),
        (evo(0.4), 0.2, "theoaaa1"),
        (evo(0.2), 2.0, "theoaaa12"),
        (evo(1.5), 2.0, "theoaaa12"),
        (evo(0.3, pc.point_eval_nonlocal(0.2, 1.0, dim=1), 0.1), 1.0, "th33"),
        (evo(1.5), 1.0, "th33"),
        (d["resolvent_nonlocal"], 2.0, "th31"),
        (d["resolvent_nonlocal"], 0.001, "th31"),
        (d["resolvent_nonlocal"], 2.0, "th313"),
        (d["resolvent_nonlocal"], 1e-4, "th313"),
        (d["delay_parabolic"], 2.0, "delay-final"),
        (d["delay_parabolic"], 0.05, "delay-final"),
    ]


def test_theorem_table_audit_and_verdict():
    from picardcert.certify import THEOREMS
    rows = {row.id: row for row in THEOREMS}
    seen = set()
    for spec, rho, theorem in _table_cases():
        row = rows[theorem]
        cert = certify(spec, rho=rho, theorem=theorem)
        assert cert.theorem_id == theorem
        checks = [m.groups() for m in map(_AUDIT_LINE.match, cert.audit) if m]
        # one line per declared inequality, plus theta <= rho once theta decides
        declared = len(row.inequalities)
        if row.theta == "decides" and cert.theta is not None:
            declared += 1
        assert len(checks) == declared, (theorem, cert.audit)
        ineqs = list(row.inequalities) + [None] * (declared - len(row.inequalities))
        for (text, lhs, rhs, slack, kind, state), ineq in zip(checks, ineqs):
            strict = ineq.strict if ineq is not None else False
            assert text.startswith(ineq.text.split("{")[0] if ineq else "theta")
            assert kind == ("strict" if strict else "non-strict")
            assert float(slack) == pytest.approx(float(rhs) - float(lhs),
                                                 rel=1e-2, abs=1e-12)
            holds = float(slack) > 1e-9 if strict else float(lhs) <= float(rhs)
            assert (state == "holds") == holds, (theorem, text)
        failed = [c[0] for c in checks if c[5] == "VIOLATED"]
        if cert.verdict == "degenerate-pass":
            assert cert.theta is not None and not failed
        else:
            assert cert.passed == (not failed), (theorem, cert.audit)
            assert cert.violated == (failed[0] if failed else None)
        seen.add((theorem, cert.passed))
    # every row is seen both passing and failing
    assert seen == {(t, ok) for t in rows for ok in (True, False)}


def test_sampled_forcing_sup_is_labelled():
    # these rows read sup|f(., 0, 0)| as a max over sampled points; the audit
    # line of the inequality that reads it says so
    label = "max over 257 sampled points"
    cases = [c for c in _table_cases()
             if c[2] in ("K-conditions", "th33", "delay-final")]
    assert {c[2] for c in cases} == {"K-conditions", "th33", "delay-final"}
    for spec, rho, theorem in cases:
        cert = certify(spec, rho=rho, theorem=theorem)
        lines = [line for line in cert.audit if label in line]
        assert len(lines) == 1 and _AUDIT_LINE.match(lines[0]), (theorem, cert.audit)


def test_certificate_text_round():
    f = sinusoid_affine(sin_amp=0.2, state_coeff=0.05)
    cert = certify_ball_zero(delayed_spec(f=f, cx=0.1), rho=1.0)
    text = cert.to_text()
    assert "theorem_id: th24" in text
    assert "verdict: pass" in text
    assert "constants:" in text


def test_every_pass_certificate_contracts_with_recorded_slack():
    batteries = [
        certify_ball_zero(two_sided_spec(sinusoid_affine(sin_amp=0.4,
                                                         state_coeff=0.1),
                                         cx1=0.2, cx2=0.1), rho=1.0),
        certify_ball_zero(delayed_spec(f=sinusoid_affine(sin_amp=0.2,
                                                         state_coeff=0.05),
                                       cx=0.1), rho=1.0),
        certify(delayed_spec(cx=0.25, const=0.8, rate=1.0), 0.5, "shifted"),
    ]
    for cert in batteries:
        assert cert.passed
        assert cert.L_gamma < 1.0
        assert cert.slack is not None
        assert "audit" not in cert.to_text() or "constants:" in cert.to_text()
