import numpy as np
import pytest
from scipy.linalg import expm

import picardcert as pc
from picardcert.evolution import (PropagationError,
                                  build_resolvent, certify_stability,
                                  cocycle_residual,
                                  constant_family, delay_demo_solve,
                                  dirichlet_laplacian, exponential_memory,
                                  heat_demo_assemble, scalar_family,
                                  stability_sample_pairs)

from _oracles import delay_coupled_coeffs


def two_plus_sin_family():
    return scalar_family(lambda t: -(2.0 + np.sin(t)), label="two_plus_sin")


# -- propagation -------------------------------------------------------------------

def test_scalar_exponential():
    fam = constant_family([[-1.0]])
    out = fam.propagate_matrix(2.0, 0.0) @ np.array([1.0])
    assert out[0] == pytest.approx(np.exp(-2.0), rel=1e-10)


def test_identity_at_equal_times():
    fam = two_plus_sin_family()
    x = np.array([0.7])
    assert np.array_equal(fam.propagate_matrix(1.3, 1.3) @ x, x)


def test_propagate_rejects_backward():
    fam = constant_family([[-1.0]])
    with pytest.raises(PropagationError):
        fam.propagate_matrix(0.0, 1.0)


def test_matrix_exponential_oracle():
    A = np.array([[0.0, 1.0], [-4.0, -1.0]])
    fam = constant_family(A)
    for t in (0.5, 1.7, 3.0):
        U = fam.propagate_matrix(t, 0.0)
        assert np.linalg.norm(U - expm(t * A), ord=2) < 1e-9


def test_scalar_nonautonomous_closed_form():
    # a(t) = -(2 + sin t): U(t, s) = exp(-2(t-s) + cos t - cos s)
    fam = two_plus_sin_family()
    for t, s in ((1.0, 0.0), (4.0, 1.5), (0.5, -2.0)):
        expect = np.exp(-2.0 * (t - s) + np.cos(t) - np.cos(s))
        assert fam.propagate_matrix(t, s)[0, 0] == pytest.approx(expect, rel=1e-9)


def test_cocycle_property():
    fam = two_plus_sin_family()
    rng = np.random.default_rng(7)
    triples = []
    for _ in range(20):
        r = rng.uniform(-6, 6)
        s = r + rng.uniform(0.0, 2.5)
        t = s + rng.uniform(0.0, 2.5)
        triples.append((t, s, r))
    assert cocycle_residual(fam, triples) <= 1e-8


# -- stability certificates -----------------------------------------------------------

def test_stability_constant_generator():
    fam = constant_family([[-1.0]])
    cert = certify_stability(fam, stability_sample_pairs((0.0, 10.0), n=30),
                             M=1.0, delta=1.0)
    assert cert.passed
    assert fam.stability is cert


def test_stability_two_plus_sin_passes_at_unit_rate():
    # |U(t,s)| = exp(-2(t-s) + cos t - cos s) <= exp(-(t-s)) since
    # |cos t - cos s| <= t - s
    fam = two_plus_sin_family()
    cert = certify_stability(fam, stability_sample_pairs((-10.0, 10.0), n=40),
                             M=1.0, delta=1.0)
    assert cert.passed
    assert cert.worst_slack >= 0.0


def test_stability_growth_detected():
    fam = constant_family([[1.0]])
    cert = certify_stability(fam, stability_sample_pairs((0.0, 6.0), n=16),
                             M=1.0, delta=0.5)
    assert not cert.passed
    assert cert.worst_slack < 0.0


# -- resolvent construction ------------------------------------------------------------

def laplace_partial_fraction_oracle(grid):
    """Time-domain inversion of (s+1)/(s+1.5)^2 via symbolic partial fractions."""
    import sympy as sp

    s, t = sp.symbols("s t", positive=True)
    expr = sp.apart((s + 1) / (s + sp.Rational(3, 2)) ** 2, s)
    # expect 1/(s+3/2) - (1/2)/(s+3/2)^2 -> e^{-3t/2} - (t/2) e^{-3t/2}
    terms = expr.as_ordered_terms()
    assert len(terms) == 2
    func = sp.lambdify(t, sp.exp(-sp.Rational(3, 2) * t) * (1 - t / 2), "numpy")
    return func(grid)


def test_resolvent_matches_laplace_oracle():
    mem = exponential_memory([(np.array([[-0.25]]), 1.0)], dim=1)
    grid = np.arange(0.0, 10.0 + 0.005, 0.01)
    R = build_resolvent(np.array([[-2.0]]), mem, grid, tol=1e-8)
    exact = laplace_partial_fraction_oracle(grid)
    assert np.max(np.abs(R.values[:, 0, 0] - exact)) < 1e-6
    assert R.residual_report["max_residual"] < 1e-8


def test_resolvent_without_memory_is_matrix_exponential():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    mem = exponential_memory([(np.zeros((2, 2)), 1.0)], dim=2)
    grid = np.arange(0.0, 5.0 + 0.005, 0.01)
    R = build_resolvent(A, mem, grid, tol=1e-8)
    for t in (0.5, 2.0, 4.5):
        assert np.linalg.norm(R.eval(t) - expm(t * A), ord=2) < 1e-9


def test_resolvent_starts_at_identity_exactly():
    mem = exponential_memory([(np.array([[-0.25]]), 1.0)], dim=1)
    R = build_resolvent(np.array([[-2.0]]), mem,
                        np.arange(0.0, 3.0 + 0.01, 0.02), tol=1e-8)
    assert np.array_equal(R.values[0], np.eye(1))
    assert np.array_equal(R.eval(0.0), np.eye(1))


def test_resolvent_refuses_what_it_cannot_tabulate():
    from picardcert.evolution import MemoryKernel
    mem = exponential_memory([(np.array([[-0.25]]), 1.0)], dim=1)
    bare = MemoryKernel(mem.matrix, 1)
    grid = np.arange(0.0, 4.0 + 0.01, 0.02)
    with pytest.raises(ValueError, match="exponential-sum"):
        build_resolvent(np.array([[-2.0]]), bare, grid, tol=1e-8)
    with pytest.raises(ValueError, match="uniform"):
        build_resolvent(np.array([[-2.0]]), mem, grid ** 2 / 4.0, tol=1e-8)
    with pytest.raises(ValueError, match="t = 0"):
        build_resolvent(np.array([[-2.0]]), mem, grid + 0.5, tol=1e-8)


def test_resolvent_residual_on_test_vectors():
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])
    mem = exponential_memory([(np.array([[0.0, 0.0], [-0.2, 0.1]]), 1.5)], dim=2)
    grid = np.arange(0.0, 6.0 + 0.005, 0.01)
    R = build_resolvent(A, mem, grid, tol=1e-8)
    rep = R.residual_report
    assert rep["n_vectors"] >= 10
    assert rep["max_residual"] < 1e-8


def test_resolvent_residual_matches_the_per_time_loop():
    # the oracle reads each check time's panels, the rule of the solver's
    # sweep, on its own, one test vector at a time
    from picardcert.evolution import (_CHECK_TIMES, _CHECK_VECTORS, _D6,
                                      resolvent_residual)
    from picardcert.quadrature import panel_nodes
    from picardcert.solver import _PANEL_ORDER, _PANEL_WIDTH
    spec, _, _ = heat_demo_assemble(n=3, horizon=4.0, grid_step=0.01)
    op = spec.resolvent
    rep = resolvent_residual(op)
    vecs = [np.eye(op.dim)[k] for k in range(op.dim)]
    vecs += [v / np.linalg.norm(v) for v in
             (np.cos(np.arange(op.dim) + 0.7 * k + 0.3)
              for k in range(_CHECK_VECTORS - op.dim))]
    h = op.grid[1] - op.grid[0]
    idx = np.unique(np.linspace(3, op.grid.size - 4, _CHECK_TIMES).astype(int))
    worst = 0.0
    for i in idx:
        t = op.grid[i]
        deriv = np.tensordot(_D6, op.values[i - 3:i + 4], axes=(0, 0)) / h
        s, w = panel_nodes(0.0, t, _PANEL_WIDTH, _PANEL_ORDER)
        conv = np.einsum("k,kij,kjl->il", w, op.memory.matrix(t - s), op.eval(s))
        for v in vecs:
            res = deriv @ v - op.A @ (op.values[i] @ v) - conv @ v
            worst = max(worst, float(np.linalg.norm(res)))
    assert rep["n_vectors"] == len(vecs) == 10
    assert rep["n_check_times"] == idx.size
    assert abs(rep["max_residual"] - worst) < 1e-12


def test_heat_forced_reads_keep_their_values():
    # reference values were computed when the resolvent table and the
    # forcing were read through scipy's CubicSpline
    from picardcert.solver import apply_mild_evolution, zero_start
    grid = np.arange(0.0, 10.0 + 0.0025, 0.005)
    a = pc.SampledPath(grid, 0.5 * np.sin(grid) + 0.2 * np.exp(-grid),
                       domain_kind="half_line", tail_policy="constant")
    spec, _, _ = heat_demo_assemble(
        n=4, a_path=a, b_func=lambda th: 0.05 * np.tanh(th), b_lipschitz=0.05,
        horizon=10.0, grid_step=0.005)
    R = spec.resolvent
    ev = R.eval(np.array([0.0, 0.0021, 1.2345, 7.7771, 9.9987, 10.0]))
    np.testing.assert_allclose(ev[:, 0, 4], [
        0.0, 2.0955216074345856e-03, -1.7736757824196420e-03,
        -3.6514681712856648e-06, -7.8378875002209144e-07,
        -7.7192244252308526e-07], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(ev[:, 4, 0], [
        0.0, -1.0479607698109007e-01, 2.8032527677401764e-01,
        3.4085574388072263e-04, 3.3475755900458804e-05,
        3.2399489624834254e-05], rtol=1e-13, atol=0.0)
    assert R.eval(1.2345).shape == (8, 8)

    y = zero_start(spec)
    y = y.with_values(0.3 * np.cos(y.grid)[:, None] * np.arange(1, 9))
    img = apply_mild_evolution(spec, y).values[[1, 517, 1001, 1999, 2000]]
    np.testing.assert_allclose(img[:, 0], [
        5.8771534884971921e-01, 2.6496964340574507e-02,
        -5.7851072885726758e-04, 3.4546710131924088e-04,
        3.5222757214166433e-04], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(img[:, 4], [
        -0.027914257408347864, -0.13872791816907917, -0.01284608246439723,
        0.001355874888841559, 0.0013482952420850185], rtol=1e-13, atol=0.0)
    # the cell table is built once per grid and kept on the resolvent
    assert len(R.cell_tables) == 1
    again = apply_mild_evolution(spec, y).values[[1, 517, 1001, 1999, 2000]]
    assert np.array_equal(again, img) and len(R.cell_tables) == 1


# -- heat demo ---------------------------------------------------------------------------

def test_dirichlet_stencil_single_point():
    # one interior point, spacing 1/2: the stencil value is -2/h^2 = -8
    lap = dirichlet_laplacian(1)
    assert lap.shape == (1, 1)
    assert lap[0, 0] == pytest.approx(-8.0)


def test_heat_memory_factor_closed_form():
    import sympy as sp

    a_eq, a_amp, a_rate = 1.0, 2e-4, 2.0
    b_eq, b_amp, b_rate = 2.0, 5e-4, 2.0
    t = sp.symbols("t", nonnegative=True)
    alpha = a_eq + a_amp * sp.exp(-a_rate * t)
    beta = b_eq + b_amp * sp.exp(-b_rate * t)
    F21 = -sp.diff(beta, t) + beta.subs(t, 0) * sp.diff(alpha, t) / alpha.subs(t, 0)
    F22 = sp.diff(alpha, t) / alpha.subs(t, 0)
    f21 = sp.lambdify(t, F21, "numpy")
    f22 = sp.lambdify(t, F22, "numpy")

    spec, rho, rep = heat_demo_assemble(n=2, horizon=4.0, grid_step=0.01)
    mem = spec.resolvent.memory
    tt = np.linspace(0.0, 4.0, 17)
    n = 2
    A = spec.resolvent.A
    for ti in tt:
        F = np.zeros((2 * n, 2 * n))
        F[n:, :n] = f21(ti) * np.eye(n)
        F[n:, n:] = f22(ti) * np.eye(n)
        assert np.linalg.norm(mem.matrix(np.array([ti]))[0] - F @ A) < 1e-12


def test_heat_demo_zero_nonlinearity_solution_is_resolvent_orbit():
    spec, rho, rep = heat_demo_assemble(n=2, horizon=5.0, grid_step=0.01)
    assert rep.r2_passed and rep.decay_passed and rep.ball_passed
    cert = pc.certify_evolution(spec, rho)
    assert cert.passed
    sol = pc.picard_solve(spec, cert, tol=1e-8)
    Ru0 = np.einsum("kij,j->ki", spec.resolvent.eval(sol.solution.grid), spec.u0)
    assert np.max(np.linalg.norm(sol.solution.values - Ru0, axis=1)) < 1e-6


def test_heat_demo_decay_table():
    spec, rho, rep = heat_demo_assemble(n=2, horizon=5.0, grid_step=0.01)
    table = rep.decay_table
    assert np.all(table[:, 1] <= table[:, 2] + 1e-12)


def test_heat_single_point_cross_check():
    # n=1 block system (d=2) against a direct dense-output integration of the
    # same augmented memory system
    spec, rho, rep = heat_demo_assemble(n=1, horizon=3.0, grid_step=0.01)
    R = spec.resolvent
    from scipy.integrate import solve_ivp

    A = R.A
    terms = R.memory.exp_terms
    d = 2

    def rhs(t, z):
        blocks = z.reshape(len(terms) + 1, d, d)
        dR = A @ blocks[0] + blocks[1:].sum(axis=0)
        out = [dR]
        for k, (G, rate) in enumerate(terms):
            out.append(G @ blocks[0] - rate * blocks[1 + k])
        return np.concatenate([m.ravel() for m in out])

    z0 = np.concatenate([np.eye(d).ravel(), np.zeros(len(terms) * d * d)])
    ts = np.linspace(0.0, 3.0, 7)
    sol = solve_ivp(rhs, (0.0, 3.0), z0, t_eval=ts, rtol=1e-10, atol=1e-12,
                    method="Radau")
    for i, t in enumerate(ts):
        direct = sol.y[:d * d, i].reshape(d, d)
        assert np.linalg.norm(R.eval(float(t)) - direct, ord=2) < 1e-7


def test_heat_demo_audit_notes_present():
    spec, rho, rep = heat_demo_assemble(n=2, horizon=4.0, grid_step=0.01)
    text = rep.to_text()
    assert "ball size audit" in text
    assert any("y0" in n for n in rep.notes)  # circular-constant reading flagged


# -- delay demo --------------------------------------------------------------------------

def _unit_decay_family():
    fam = scalar_family(lambda t: -1.0)
    certify_stability(fam, stability_sample_pairs((-15.0, 15.0), n=30,
                                                  max_sep=5.0),
                      M=1.0, delta=1.0)
    return fam


def test_delay_certificate_labels_sampled_stability():
    # the family's (M, delta) are declared and checked on 30 sampled pairs
    # only, and the delay certificate says so
    spec = pc.ProblemSpec(
        variant="delay_parabolic", dim=1, f=pc.sinusoid_affine(sin_amp=0.5),
        evolution=_unit_decay_family(), delay=1.0, report_window=(-5.0, 5.0),
        grid_step=0.05)
    cert = pc.certify_evolution(spec, 2.0, theorem="delay-final")
    assert cert.passed
    assert ("  stability constants: M = 1, delta = 1 (sampled: checked on 30 "
            "pairs)") in cert.to_text().splitlines()


def test_delay_demo_zero_forcing():
    fam = _unit_decay_family()
    rep, cert = delay_demo_solve(fam, pc.zero_nonlinearity(), tau=1.0, rho=1.0,
                                 tol=1e-10, report_window=(-5.0, 5.0),
                                 grid_step=0.05)
    assert np.max(np.abs(rep.solution.values)) <= 1e-10


def test_delay_demo_state_independent_oracle():
    fam = _unit_decay_family()
    rep, cert = delay_demo_solve(fam, pc.sinusoid_affine(sin_amp=1.0), tau=1.0,
                                 rho=2.0, tol=1e-8,
                                 report_window=(-6.0, 6.0), grid_step=0.02)
    g = rep.solution.grid
    exact = (np.sin(g) - np.cos(g)) / 2.0
    assert np.max(np.abs(rep.solution.values[:, 0] - exact)) < 1e-7


def test_delay_demo_coupled_oracle():
    fam = _unit_decay_family()
    kappa = 0.2
    rep, cert = delay_demo_solve(fam, pc.sinusoid_affine(sin_amp=1.0,
                                                         state_coeff=kappa),
                                 tau=np.pi, rho=2.0, tol=1e-8,
                                 report_window=(-4.0, 4.0), grid_step=0.02)
    A, B = delay_coupled_coeffs(kappa)
    g = rep.solution.grid
    exact = A * np.sin(g) + B * np.cos(g)
    assert np.max(np.abs(rep.solution.values[:, 0] - exact)) < 1e-6


def test_delay_demo_requires_certificate():
    fam = scalar_family(lambda t: -1.0)  # not certified
    with pytest.raises(PropagationError):
        delay_demo_solve(fam, pc.zero_nonlinearity(), tau=1.0, rho=1.0)
