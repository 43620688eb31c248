import re

import numpy as np
import pytest

import picardcert as pc
from picardcert.certify import (CertificationError, certify,
                                certify_ball_zero,
                                certify_bohr_neugebauer_hypotheses,
                                certify_evolution, certify_radius_search,
                                certify_shifted_ball, compute_base_point,
                                compute_envelope_constants)
from picardcert.evolution import (certify_stability, constant_family,
                                  scalar_family, stability_sample_pairs)
from picardcert.paths import sup_norm
from picardcert.problem import (Nonlinearity, ProblemSpec, saturating_lipschitz,
                                sinusoid_affine, zero_nonlinearity)


def delayed_spec(f=None, cx=0.25, rate=2.0, const=0.0, window=(-10.0, 10.0),
                 step=0.05, state_bound=3.0, **kw):
    return ProblemSpec(
        variant="delayed_only", dim=1,
        f=f if f is not None else zero_nonlinearity(),
        kernel_delayed=pc.exponential_kernel(rate, cx=cx, const=const,
                                             state_bound=state_bound),
        report_window=window, grid_step=step, quad_tol=1e-9, **kw)


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
    cert = certify_shifted_ball(spec, rho=1.0)
    assert cert.verdict == "fail"
    assert cert.violated == "state radius |y0| + rho <= kernel state_bound"


def test_empirical_lipschitz_downgrade():
    def f_eval(t, x, y):
        t = np.atleast_1d(np.asarray(t, float))
        return 0.1 * np.tanh(np.asarray(x)) + 0.05 * np.sin(t)[..., None]

    f = Nonlinearity(f_eval, lipschitz=None, dim=1, label="tanh")
    spec = delayed_spec(f=f, cx=0.1)
    cert = certify_ball_zero(spec, rho=1.0)
    assert cert.verdict == "empirical-pass"
    assert any("empirically" in a for a in cert.audit)


# -- shifted-ball certificates ---------------------------------------------------------

def test_shifted_ball_known_theta():
    # kernel 1/4 e^{-(t-s)}(x + 0.8): L = 0.5, |Gamma y0 - y0| = 0.2, theta = 0.4
    spec = delayed_spec(cx=0.25, const=0.8, rate=1.0)
    cert = certify_shifted_ball(spec, rho=0.5)
    assert cert.theorem_id == "teos2-ball"
    assert cert.L_gamma == pytest.approx(0.5, abs=1e-7)
    assert cert.theta == pytest.approx(0.4, abs=1e-6)
    assert cert.verdict == "pass"
    cert2 = certify_shifted_ball(spec, rho=0.3)
    assert cert2.verdict == "fail"


def test_shifted_ball_degenerate_fixed_point():
    spec = delayed_spec()  # everything zero: y0 = 0 is already fixed
    cert = certify_shifted_ball(spec, rho=1.0)
    assert cert.verdict == "degenerate-pass"


def test_shifted_ball_requires_contraction():
    f = sinusoid_affine(sin_amp=0.1, state_coeff=0.6)
    spec = delayed_spec(f=f, cx=0.25)  # L = 2(0.6 + 0.125) > 1
    cert = certify_shifted_ball(spec, rho=1.0)
    assert cert.verdict == "fail"
    assert "1" in cert.violated


def test_theta_identity():
    # theta * (1 - L) equals the measured displacement of the base point
    spec = delayed_spec(cx=0.25, const=0.8, rate=1.0)
    cert = certify_shifted_ball(spec, rho=1.0)
    from picardcert.solver import apply_operator
    gap = pc.paths.sup_distance(apply_operator(spec, cert.base_point),
                                cert.base_point)
    assert cert.theta * (1 - cert.L_gamma) == pytest.approx(gap, abs=1e-9)


# -- radius-search certificates -----------------------------------------------------------

def test_radius_search_linear_objective_passes():
    f = sinusoid_affine(sin_amp=0.5, state_coeff=0.1)
    spec = two_sided_spec(f, cx1=0.2, cx2=0.1)  # slope 1 - 0.5 > 0
    cert = certify_radius_search(spec)
    assert cert.verdict == "pass"
    assert cert.theorem_id == "K-conditions"
    # the objective grows without bound, but the ball must lie inside the
    # kernels' declared state ball |x| <= 3
    assert cert.witness_radius <= 3.0


def test_radius_search_refuses_state_bound_below_its_least_radius():
    spec = delayed_spec(f=sinusoid_affine(sin_amp=0.5, state_coeff=0.1),
                        state_bound=1e-4)
    with pytest.raises(CertificationError, match="state_bound"):
        certify_radius_search(spec)


def test_radius_search_flat_objective_fails():
    f = sinusoid_affine(sin_amp=0.5, state_coeff=0.5)
    spec = delayed_spec(f=f, cx=0.0)
    cert = certify_radius_search(spec)
    assert cert.verdict == "fail"


def test_radius_search_curve_matches_dense_scan():
    curve = saturating_lipschitz(0.1, 0.2, 1.0)
    f = Nonlinearity(lambda t, x, y: np.zeros(np.shape(np.atleast_1d(t)) + (1,)),
                     lipschitz=None, lipschitz_curve=curve, dim=1)
    spec = two_sided_spec(f, cx1=0.2, cx2=0.1)
    c = compute_envelope_constants(spec)
    cert = certify_radius_search(spec)
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
    R.decay = (1.0, 1.5, 1.0)  # |R(t)| <= e^{-1.5 t} for this kernel
    f = sinusoid_affine(sin_amp=0.2, state_coeff=0.3)
    spec = ProblemSpec(variant="resolvent_nonlocal", dim=1, f=f, resolvent=R,
                       u0=np.array([0.2]), nonlocal_map=pc.zero_nonlocal(1),
                       report_window=(0.0, 10.0), grid_step=0.05)
    cert = certify_evolution(spec, rho=2.0, theorem="th31")
    # delta = gamma/q = 1.5: L_f=0.3 < rho delta/(M(rho+|y0|))
    assert cert.theorem_id == "th31"
    assert cert.verdict == "pass"
    cert2 = certify_evolution(spec, rho=2.0, theorem="th313")
    assert cert2.passed
    assert "stability constants: M = 1, delta = 1.5 (declared resolvent " \
        "decay)" in cert.audit


def test_missing_stability_certificate_raises():
    fam = scalar_family(lambda t: -1.0)  # no certificate attached
    f = sinusoid_affine(sin_amp=0.25)
    spec = ProblemSpec(variant="delay_parabolic", dim=1, f=f, evolution=fam,
                       delay=1.0, report_window=(-5.0, 5.0), grid_step=0.05)
    with pytest.raises(CertificationError):
        certify_evolution(spec, rho=1.0)


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
    R.decay = (1.0, 1.0, 1.0)
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
            assert cert.verdict in ("pass", "fail", "degenerate-pass",
                                    "empirical-pass"), (name, mode)
    # an explicit theorem wins over the mode
    cert = certify(spec, rho=2.0, mode="radius", theorem="delay-final")
    assert cert.theorem_id == "delay-final"


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
        certify_shifted_ball(delayed_spec(cx=0.25, const=0.8, rate=1.0),
                             rho=0.5),
    ]
    for cert in batteries:
        assert cert.passed
        assert cert.L_gamma < 1.0
        assert cert.slack is not None
        assert "audit" not in cert.to_text() or "constants:" in cert.to_text()
