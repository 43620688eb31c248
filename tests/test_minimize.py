import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import picardcert as pc
from picardcert import certify as certify_mod
from picardcert import diagnostics, minimize
from picardcert.minimize import bounded_minimum
from picardcert.paths import SampledPath
from picardcert.problem import Nonlinearity, ProblemSpec, saturating_lipschitz


def _assert_as_scipy(f, lo, hi):
    """bounded_minimum returns scipy's x and f(x) bit for bit, after
    evaluating f at the same points."""
    seen, scipy_seen = [], []
    x, fx = bounded_minimum(lambda x: seen.append(x) or f(x), lo, hi)
    res = minimize_scalar(lambda x: scipy_seen.append(x) or f(x),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": minimize._XATOL,
                                   "maxiter": minimize._MAXFUN})
    assert (x, fx) == (res.x, res.fun)
    assert seen == scipy_seen


def _recorded(monkeypatch, module):
    """Every (f, lo, hi) that module passes to bounded_minimum."""
    calls = []

    def spy(f, lo, hi):
        calls.append((f, lo, hi))
        return bounded_minimum(f, lo, hi)

    monkeypatch.setattr(module, "bounded_minimum", spy)
    return calls


def test_radius_scan_objective_as_scipy(monkeypatch):
    # the K-conditions radius search with an interior maximum: the curve
    # L(r) = 0.1 + 0.2 r / (1 + r) of test_radius_search_curve_matches_dense_scan
    calls = _recorded(monkeypatch, certify_mod)
    curve = saturating_lipschitz(0.1, 0.2, 1.0)
    f = Nonlinearity(lambda t, x, y: np.zeros(np.shape(np.atleast_1d(t)) + (1,)),
                     lipschitz=None, lipschitz_curve=curve, dim=1)
    spec = ProblemSpec(
        variant="advanced_delayed", dim=1, f=f,
        kernel_delayed=pc.exponential_kernel(2.0, cx=0.2, state_bound=3.0),
        kernel_advanced=pc.exponential_kernel(2.0, cx=0.1, state_bound=3.0),
        report_window=(-10.0, 10.0), grid_step=0.05, quad_tol=1e-9)
    certify_mod.certify(spec, None, "radius")
    assert len(calls) == 1
    _assert_as_scipy(*calls[0])


def test_split_fit_objective_as_scipy(monkeypatch):
    # the frequency refinement of the split diagnostic, one search per
    # detected frequency
    calls = _recorded(monkeypatch, diagnostics)
    grid = np.arange(0.0, 60.0 + 0.005, 0.01)
    p = SampledPath(grid, np.sin(1.3 * grid) + 0.5 * np.cos(0.4 * grid)
                    + 2.0 * np.exp(-0.5 * grid), domain_kind="half_line",
                    tail_policy="constant")
    diagnostics.aaa_split_estimate(p, split_time=20.0)
    assert len(calls) >= 2
    for call in calls:
        _assert_as_scipy(*call)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x, 1.0, 2.0),               # least at the lower bound
    (lambda x: -x * x, -1.0, 3.0),         # least at the upper bound
    (lambda x: abs(x - 0.3), 0.0, 1.0),    # a kink
    (lambda x: (x - 2.0) ** 2, 2.0, 2.0),  # a one-point interval
])
def test_bounds_and_kinks_as_scipy(f, lo, hi):
    _assert_as_scipy(f, lo, hi)


def test_evaluation_budget_as_scipy(monkeypatch):
    # sin(1e3 x) + x has many local minima; a budget of 7 stops the search
    monkeypatch.setattr(minimize, "_MAXFUN", 7)

    def f(x):
        return float(np.sin(1e3 * x)) + x

    _assert_as_scipy(f, 0.0, 5.0)


def test_refuses_bad_bounds():
    with pytest.raises(ValueError):
        bounded_minimum(lambda x: x, 2.0, 1.0)
    with pytest.raises(ValueError):
        bounded_minimum(lambda x: x, 0.0, np.inf)
