"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, nothing is deferred to calibration.  The
derived expected values are computed by the independent oracles in _oracles
(small linear systems, elementary antiderivatives, symbolic partial
fractions), never by the code paths under test.
"""

import time
from dataclasses import replace

import numpy as np

import picardcert as pc
from picardcert import problem as pb
from picardcert.diagnostics import (CONSISTENT, INCONSISTENT,
                                    aaa_split_estimate, bochner_test,
                                    range_compactness_trend)
from picardcert.evolution import (build_resolvent, certify_stability,
                                  exponential_memory, heat_demo_assemble,
                                  scalar_family, stability_sample_pairs)
from picardcert.paths import SampledPath, sup_distance, sup_norm
from picardcert.quadrature import DecayEnvelope
from picardcert.solver import check_integral_inequality, picard_solve

from _oracles import (advanced_fixed_point_coeffs, delayed_fixed_point_coeffs)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def oracle_spec(window=(-20.0, 20.0), step=0.05):
    return pb.ProblemSpec(
        variant="advanced_delayed", dim=1,
        f=pc.sinusoid_affine(sin_amp=1.0),
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        kernel_advanced=pc.zero_kernel(),
        report_window=window, grid_step=step, quad_tol=1e-9,
        label="sin_conv_oracle")


def test_criterion_01_zero_fixed_point():
    t0 = time.perf_counter()
    spec = pb.ProblemSpec(variant="advanced_delayed", dim=1,
                          f=pc.zero_nonlinearity(),
                          kernel_delayed=pc.zero_kernel(),
                          kernel_advanced=pc.zero_kernel(),
                          report_window=(-10.0, 10.0), grid_step=0.05)
    cert = pc.certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=1e-13)
    elapsed = time.perf_counter() - t0
    ok = (cert.passed and rep.iterations <= 2
          and sup_norm(rep.solution) <= 1e-12 and elapsed < 1.0)
    report(1, ok, f"zero problem: {rep.iterations} sweeps, "
                  f"|y| = {sup_norm(rep.solution):.2e}, {elapsed:.2f}s")


def _solve_oracle(window=(-20.0, 20.0), step=0.05, tol=5e-8):
    spec = oracle_spec(window, step)
    cert = pc.certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=tol, store_iterates=True)
    return spec, cert, rep


def test_criterion_02_scalar_convolution_oracle():
    t0 = time.perf_counter()
    spec, cert, rep = _solve_oracle()
    elapsed = time.perf_counter() - t0
    A, B = delayed_fixed_point_coeffs(0.25, 2.0)
    assert abs(A - 72.0 / 65.0) < 1e-14 and abs(B + 4.0 / 65.0) < 1e-14
    g = rep.solution.grid
    err = float(np.max(np.abs(rep.solution.values[:, 0]
                              - (A * np.sin(g) + B * np.cos(g)))))
    ok = cert.passed and err <= 1e-6 and elapsed < 10.0
    report(2, ok, f"sup error vs (72/65) sin - (4/65) cos on [-20,20]: "
                  f"{err:.2e}, {elapsed:.2f}s")


def test_criterion_03_contraction_rate_and_apriori_bound():
    spec, cert, rep = _solve_oracle()
    L = cert.L_gamma
    rates_ok = all(r <= L + 0.01 for r in rep.measured_rates)
    star = rep.iterates[-1]
    inc1 = rep.increment_norms[0]
    bound_ok = True
    worst_gap = 0.0
    for n, it in enumerate(rep.iterates[:-1]):
        bound = L ** n / (1.0 - L) * inc1
        err = sup_distance(it, star)
        worst_gap = max(worst_gap, err - bound)
        if err > bound + 1e-12:
            bound_ok = False
    ok = rates_ok and bound_ok
    report(3, ok, f"max rate {max(rep.measured_rates):.4f} vs L+0.01 = "
                  f"{L + 0.01:.4f}; worst (error - bound) = {worst_gap:.2e}")


def test_criterion_04_uniqueness():
    spec, cert, rep1 = _solve_oracle(tol=1e-9)
    start = replace(cert.base_point, values=cert.base_point.values + 0.5 * 1.0)
    rep2 = picard_solve(spec, cert, tol=1e-9, start=start)
    gap = sup_distance(rep1.solution, rep2.solution)
    ok = gap <= 1e-8
    report(4, ok, f"solutions from base point and perturbed start differ by "
                  f"{gap:.2e}")


def test_criterion_05_advanced_mirror():
    spec = pb.ProblemSpec(
        variant="advanced_delayed", dim=1,
        f=pc.sinusoid_affine(cos_amp=1.0),
        kernel_delayed=pc.zero_kernel(),
        kernel_advanced=pc.exponential_kernel(2.0, cx=0.25, state_bound=3.0),
        report_window=(-20.0, 20.0), grid_step=0.05, quad_tol=1e-9)
    cert = pc.certify_ball_zero(spec, rho=1.0)
    rep = picard_solve(spec, cert, tol=5e-8)
    A, B = advanced_fixed_point_coeffs(0.25, 2.0)
    assert abs(A + 4.0 / 65.0) < 1e-14 and abs(B - 72.0 / 65.0) < 1e-14
    g = rep.solution.grid
    err = float(np.max(np.abs(rep.solution.values[:, 0]
                              - (A * np.sin(g) + B * np.cos(g)))))
    ok = cert.passed and err <= 1e-6
    report(5, ok, f"advanced mirror sup error: {err:.2e}")


def test_criterion_06_resolvent_oracle():
    t0 = time.perf_counter()
    mem = exponential_memory([(np.array([[-0.25]]), 1.0)], dim=1)
    grid = np.arange(0.0, 10.0 + 0.005, 0.01)
    R = build_resolvent(np.array([[-2.0]]), mem, grid, tol=1e-8)
    elapsed = time.perf_counter() - t0
    exact = (1.0 - 0.5 * grid) * np.exp(-1.5 * grid)
    err = float(np.max(np.abs(R.values[:, 0, 0] - exact)))
    ok = err <= 1e-6 and elapsed < 5.0
    report(6, ok, f"memory propagator vs (1 - t/2) e^(-1.5 t) on [0,10]: "
                  f"{err:.2e}, {elapsed:.2f}s")


def test_criterion_07_evolution_invariants():
    fam = scalar_family(lambda t: -(2.0 + np.sin(t)))
    rng = np.random.default_rng(20240811)
    triples = []
    for _ in range(100):
        r = rng.uniform(-8.0, 8.0)
        s = r + rng.uniform(0.0, 2.0)
        t = s + rng.uniform(0.0, 2.0)
        triples.append((t, s, r))
    # cocycle residual |U(t,s)U(s,r) - U(t,r)| (2-norm)
    U = fam.propagate_matrix
    resid = max(float(np.linalg.norm(U(t, s) @ U(s, r) - U(t, r), ord=2))
                for t, s, r in triples)
    cert = certify_stability(fam, stability_sample_pairs((-10.0, 10.0), n=40),
                             M=1.0, delta=1.0)
    ok = resid <= 1e-8 and cert.passed and cert.worst_slack >= 0.0
    report(7, ok, f"cocycle residual over 100 triples: {resid:.2e}; "
                  f"stability slack {cert.worst_slack:.3e}")


def test_criterion_08_heat_demo():
    spec, rho, heat_rep = heat_demo_assemble(n=4)
    cert = pc.certify_evolution(spec, rho)
    sol = picard_solve(spec, cert, tol=1e-8)
    Ru0 = np.einsum("kij,j->ki", spec.resolvent.eval(sol.solution.grid),
                    spec.u0)
    err = float(np.max(np.linalg.norm(sol.solution.values - Ru0, axis=1)))
    table = heat_rep.decay_table
    decay_ok = bool(np.all(table[:, 1] <= table[:, 2] + 1e-12))
    audited = any("rho" in line for line in heat_rep.ball_lines)
    ok = (cert.passed and err <= 1e-6 and decay_ok and audited
          and heat_rep.ball_passed)
    report(8, ok, f"|u - R u0| = {err:.2e}; decay bound holds at "
                  f"{table.shape[0]} sample times; ball inequality audited")


def test_criterion_09_recurrence_equivalence():
    spec, cert, rep = _solve_oracle(window=(-100.0, 100.0), step=0.02,
                                    tol=1e-8)
    sol = rep.solution
    compact = range_compactness_trend(sol, 0.01,
                                      [(-50.0, 50.0), (-100.0, 100.0)])
    recur = bochner_test(sol, shifts=2.0 * np.pi * np.arange(1, 8),
                         probe_grid=np.linspace(-3, 3, 25), tol=1e-3)
    bad = replace(sol, values=sol.values + 0.1 * sol.grid[:, None])
    compact_bad = range_compactness_trend(bad, 0.01,
                                          [(-50.0, 50.0), (-100.0, 100.0)])
    recur_bad = bochner_test(bad, shifts=2.0 * np.pi * np.arange(1, 8),
                             probe_grid=np.linspace(-3, 3, 25), tol=1e-3)
    ok = (compact.verdict == CONSISTENT and recur.verdict == CONSISTENT
          and compact_bad.verdict == INCONSISTENT
          and recur_bad.verdict == INCONSISTENT)
    sups = [f"{s:.6g}" for _, _, s in compact.window_sups]
    report(9, ok, f"window sups {sups[0]}, {sups[1]}; solution "
                  f"{recur.verdict}; corrupted path both sides inconsistent")


def test_criterion_10_asymptotic_split():
    grid = np.arange(0.0, 40.0 + 0.005, 0.01)
    p = SampledPath(grid, np.sin(grid) + np.exp(-grid),
                    domain_kind="half_line", tail_policy="constant")
    recurrent, resid, _ = aaa_split_estimate(p, split_time=10.0)
    # the recurrent part's norm on the whole line, here [-40, 40]
    principal = recurrent.evaluate(np.linspace(-40.0, 40.0, 8001))
    vanishing = p.values - recurrent.evaluate(p.grid)
    norm_gap = abs(np.max(np.linalg.norm(principal, axis=1))
                   + np.max(np.linalg.norm(vanishing, axis=1)) - 2.0)
    ok = resid <= 1e-4 and norm_gap <= 1e-3
    report(10, ok, f"split remainder {resid:.2e}; recovered norm within "
                   f"{norm_gap:.2e} of 2")


def test_criterion_11_comparison_inequality_checker():
    grid = np.linspace(-5.0, 5.0, 21)
    w = DecayEnvelope("exponential", 0.25, 1.0)

    battery = [
        (lambda t: np.zeros_like(np.asarray(t, float)),
         lambda t: np.zeros_like(np.asarray(t, float))),
        (lambda t: np.ones_like(np.asarray(t, float)),
         lambda t: 1.9 * np.ones_like(np.asarray(t, float))),
        (lambda t: 0.5 + 0.1 * np.sin(np.asarray(t, float)),
         lambda t: 0.8 * np.ones_like(np.asarray(t, float))),
    ]
    all_ok = True
    for a, v in battery:
        rep = check_integral_inequality(a, w, w, v, grid)
        if not (rep.hypothesis_holds and rep.conclusion_holds):
            all_ok = False
    zero_rep = check_integral_inequality(
        lambda t: np.zeros_like(np.asarray(t, float)), w, w,
        lambda t: np.zeros_like(np.asarray(t, float)), grid)
    forced_zero = zero_rep.bound <= 1e-12 and zero_rep.sup_v <= 1e-12
    ok = all_ok and forced_zero
    report(11, ok, "hypothesis-satisfying battery obeys the bound; zero "
                   "forcing pins the solution at zero")
