import numpy as np
import pytest

from picardcert.quadrature import (DecayEnvelope, QuadratureError,
                                   adaptive_integral, envelope_constant,
                                   panel_nodes, zero_envelope)

from _oracles import (exp_advanced_cos, exp_advanced_sin, exp_delayed_cos,
                      exp_delayed_sin)


def exp_tail(amp, rate):
    return DecayEnvelope("exponential", amp, rate)


def delayed(g, t, tail, tol=1e-8):
    """Integral of g over (-inf, t]: the envelope's span puts the neglected
    tail below tol/2, the adaptive panels the rest of the error."""
    span = tail.truncation_span(tol / 2.0)
    return adaptive_integral(g, t - span, t, tol / 2.0)[0]


def advanced(g, t, tail, tol=1e-8):
    """Integral of g over [t, +inf), truncated as in delayed."""
    span = tail.truncation_span(tol / 2.0)
    return adaptive_integral(g, t, t + span, tol / 2.0)[0]


# -- envelope geometry ---------------------------------------------------------

def test_envelope_requires_decay():
    with pytest.raises(QuadratureError):
        DecayEnvelope("exponential", 1.0, 0.0)
    with pytest.raises(QuadratureError):
        DecayEnvelope("exponential", 1.0, -2.0)


def test_exponential_tail_mass():
    env = exp_tail(3.0, 2.0)
    assert env.tail_mass(0.0) == pytest.approx(1.5)
    span = env.truncation_span(1e-10)
    assert env.tail_mass(span) <= 1e-10


def test_gaussian_tail_mass():
    env = DecayEnvelope("gaussian", 1.0, 1.0)
    assert env.tail_mass(0.0) == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)
    span = env.truncation_span(1e-12)
    assert env.tail_mass(span) <= 1e-12


# -- basic integrals -------------------------------------------------------------

def test_delayed_unit_exponential():
    for t in (-3.0, 0.0, 7.5):
        val = delayed(lambda s: np.exp(-(t - s)), t,
                      exp_tail(1.0, 1.0), tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_delayed_oscillatory_closed_form():
    t = 0.0
    val = delayed(lambda s: np.exp(-2.0 * (t - s)) * np.sin(s), t,
                  exp_tail(1.0, 2.0), tol=1e-10)
    assert val == pytest.approx(-0.2, abs=1e-10)
    assert exp_delayed_sin(0.0, 2.0) == pytest.approx(-0.2)


def test_delayed_zero():
    val = delayed(lambda s: 0.0 * s, 1.0, exp_tail(1.0, 1.0))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_advanced_unit_exponential():
    val = advanced(lambda s: np.exp(-2.0 * (s - 0.0)), 0.0,
                   exp_tail(1.0, 2.0), tol=1e-10)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_advanced_oscillatory_closed_form():
    val = advanced(lambda s: np.exp(-(s - 0.0)) * np.cos(s), 0.0,
                   exp_tail(1.0, 1.0), tol=1e-10)
    assert val == pytest.approx(0.5, abs=1e-10)
    assert exp_advanced_cos(0.0, 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("t", [-2.0, 0.0, 1.3, 10.0])
def test_oracle_battery_both_orientations(t):
    rate = 2.0
    tail = exp_tail(1.0, rate)
    val = delayed(lambda s: np.exp(-rate * (t - s)) * np.cos(s), t,
                  tail, tol=1e-10)
    assert val == pytest.approx(exp_delayed_cos(t, rate), abs=1e-9)
    val = advanced(lambda s: np.exp(-rate * (s - t)) * np.sin(s), t,
                   tail, tol=1e-10)
    assert val == pytest.approx(exp_advanced_sin(t, rate), abs=1e-9)


def test_linearity_within_tolerance():
    t, tol = 0.7, 1e-9
    tail = exp_tail(2.0, 1.0)
    g1 = lambda s: np.exp(-(t - s)) * np.sin(s)
    g2 = lambda s: np.exp(-(t - s)) * np.cos(2 * s)
    both = delayed(lambda s: g1(s) + g2(s), t, tail, tol=tol)
    sep = (delayed(g1, t, tail, tol=tol)
           + delayed(g2, t, tail, tol=tol))
    assert abs(both - sep) <= 2 * tol


def test_tightening_tolerance_never_hurts():
    t, rate = 1.3, 2.0
    exact = exp_delayed_sin(t, rate)
    errors = []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        val = delayed(lambda s: np.exp(-rate * (t - s)) * np.sin(s),
                      t, exp_tail(1.0, rate), tol=tol)
        errors.append(abs(val - exact))
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-14


def test_vector_integrand():
    t = 0.0
    tail = exp_tail(1.0, 2.0)

    def g(s):
        return np.stack([np.exp(-2 * (t - s)) * np.sin(s),
                         np.exp(-2 * (t - s)) * np.cos(s)], axis=-1)

    val = delayed(g, t, tail, tol=1e-10)
    assert val[0] == pytest.approx(exp_delayed_sin(0.0, 2.0), abs=1e-9)
    assert val[1] == pytest.approx(exp_delayed_cos(0.0, 2.0), abs=1e-9)


# -- envelope constants -----------------------------------------------------------

@pytest.mark.parametrize("kind", ["exponential", "gaussian"])
@pytest.mark.parametrize("orientation", ["delayed", "advanced", "half_line_delayed"])
def test_envelope_constant_is_the_sup_over_t(kind, orientation):
    # the closed form dominates the oriented integral at every t (up to the
    # quadrature tolerance 1e-12) and equals it at a far t: the sup is attained
    # for delayed/advanced and is the limit t -> inf for half-line
    env = DecayEnvelope(kind, 1.5, 2.0)
    const = envelope_constant(env, orientation)
    span = 30.0

    def oriented(t):
        lo, hi = {"delayed": (t - span, t), "advanced": (t, t + span),
                  "half_line_delayed": (max(0.0, t - span), t)}[orientation]
        if hi <= lo:
            return 0.0
        return float(adaptive_integral(lambda s: env(t, s), lo, hi, 1e-12)[0])

    for t in np.linspace(-4.0, 4.0, 33):
        assert const >= oriented(float(t)) - 1e-12
    assert abs(const - oriented(40.0)) < 1e-9


def test_zero_envelope_constant():
    assert envelope_constant(zero_envelope(), "delayed") == 0.0


# -- panel helpers ----------------------------------------------------------------

def test_panel_nodes_cover_interval():
    nodes, weights = panel_nodes(0.0, 3.0, max_width=0.5, order=10)
    assert nodes.size == 6 * 10
    assert weights.sum() == pytest.approx(3.0, rel=1e-14)


def test_adaptive_integral_smooth():
    val, err = adaptive_integral(np.sin, 0.0, np.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)
    assert err <= 1e-11
