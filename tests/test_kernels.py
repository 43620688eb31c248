import numpy as np
import pytest

from picardcert.kernels import (SamplePlan, check_convolution_form,
                                check_lambda_bound, check_lipschitz,
                                convolution_sinusoid_kernel,
                                exponential_kernel, gaussian_kernel,
                                zero_kernel)
from picardcert.quadrature import DecayEnvelope


def plan(orientation="delayed", dim=1, bound=1.0):
    return SamplePlan.build((-6.0, 6.0), orientation, dim, bound)


# -- envelope bound ---------------------------------------------------------------

def test_lambda_bound_zero_kernel_against_unit_envelope():
    k = zero_kernel()
    rep = check_lambda_bound(k, plan())
    assert rep.passed
    # against a strictly positive envelope the margin is the envelope itself
    k1 = exponential_kernel(1.0, cx=0.0, const=0.0)
    object.__setattr__(k1, "envelope", DecayEnvelope("exponential", 1.0, 1.0))
    rep = check_lambda_bound(k1, plan())
    assert rep.passed and rep.max_violation < 0


def test_lambda_bound_equality_case():
    # |e^{-(t-s)} x| with |x| <= 1 against the envelope e^{-(t-s)}: tight, passes
    k = exponential_kernel(1.0, cx=1.0, state_bound=1.0)
    rep = check_lambda_bound(k, plan())
    assert rep.passed
    assert rep.max_violation <= 1e-12  # equality case up to float noise


def test_lambda_bound_violation_with_halved_envelope():
    k = exponential_kernel(1.0, cx=1.0, state_bound=1.0)
    object.__setattr__(k, "envelope", DecayEnvelope("exponential", 0.5, 1.0))
    rep = check_lambda_bound(k, plan())
    assert not rep.passed
    assert rep.max_violation > 0.0
    assert "t" in rep.witness


def test_lambda_bound_requires_nonzero_translation():
    p = plan()
    bad = SamplePlan(np.zeros(3), p.ts_pairs, p.states)
    k = exponential_kernel(1.0, cx=1.0)
    with pytest.raises(ValueError):
        check_lambda_bound(k, bad)


# -- Lipschitz modulus --------------------------------------------------------------

def test_lipschitz_exact_linear_modulus():
    # C = e^{-(t-s)}(x+y)/4 has exact modulus e^{-(t-s)}/4
    k = exponential_kernel(1.0, cx=0.25, cy=0.25)
    rep = check_lipschitz(k, plan())
    assert rep.passed


def test_lipschitz_constant_kernel_zero_modulus():
    k = exponential_kernel(1.0, const=3.0)
    rep = check_lipschitz(k, plan())
    assert rep.passed
    assert rep.max_violation <= 1e-12


def test_lipschitz_fail_with_witness():
    k = exponential_kernel(1.0, cx=1.0)
    object.__setattr__(k, "lipschitz", DecayEnvelope("exponential", 0.5, 1.0))
    rep = check_lipschitz(k, plan())
    assert not rep.passed
    assert rep.witness["difference"] > rep.witness["allowed"]


def test_affine_kernel_modulus_boundary():
    # an affine kernel with coefficient row (cx, cy) passes exactly when the
    # declared modulus dominates max(|cx|, |cy|) e^{-r(t-s)} on samples
    for margin, expect in ((1.0, True), (0.999, False)):
        k = exponential_kernel(2.0, cx=0.3, cy=0.1)
        object.__setattr__(k, "lipschitz",
                           DecayEnvelope("exponential", 0.3 * margin, 2.0))
        rep = check_lipschitz(k, plan())
        assert rep.passed is expect


def test_limit_modulus_checked_when_supplied():
    k = exponential_kernel(1.5, cx=0.2)
    rep = check_lipschitz(k, plan(), use_limit=True)
    assert rep.passed and rep.check == "limit_lipschitz"


def test_limit_modulus_skipped_when_absent():
    k = exponential_kernel(1.5, cx=0.2)
    object.__setattr__(k, "limit_evaluator", None)
    rep = check_lipschitz(k, plan(), use_limit=True)
    assert rep.passed
    assert any("not checked" in n for n in rep.notes)


# -- convolution form ---------------------------------------------------------------

def test_convolution_form_machine_precision():
    k = convolution_sinusoid_kernel(1.0, cx=0.5, mod_amp=0.3, mod_omega=2.0)
    rep = check_convolution_form(k, plan())
    assert rep.passed
    assert rep.max_violation <= 1e-14


def _built_in_kernels():
    """Every built-in family with nonzero coefficients, as the solver's
    lattice rule meets it: (kernel, sample-plan orientation)."""
    from picardcert.evolution import exponential_causal
    from picardcert.kernels import split_exponential_kernel
    affine = dict(cx=0.3, cy=-0.2, const=[0.1, -0.4], dim=2, state_bound=2.0)
    split = dict(aa_const=0.2, aa_cx=0.1, aa_cy=0.05, erg_cx=-0.3, erg_cy=0.2,
                 erg_const=[0.4, -0.1], erg_decay=0.7, dim=2, state_bound=2.0)
    G = np.array([[0.3, -0.1], [0.2, 0.5]])
    return {
        "exponential": (exponential_kernel(2.0, **affine), "delayed"),
        "exponential_advanced": (exponential_kernel(2.0, **affine), "advanced"),
        "gaussian": (gaussian_kernel(0.7, **affine), "delayed"),
        "convolution_sinusoid": (convolution_sinusoid_kernel(
            1.5, mod_amp=0.4, mod_omega=1.3, **affine), "delayed"),
        "split_delayed": (split_exponential_kernel(2.0, **split),
                          "half_line_delayed"),
        "split_advanced": (split_exponential_kernel(2.0, **split), "advanced"),
        "exponential_causal": (exponential_causal(G, 1.2, 2),
                               "half_line_delayed"),
    }


@pytest.mark.parametrize("name", list(_built_in_kernels()))
def test_every_built_in_declares_its_convolution_form(name):
    # the lattice rule integrates the declared (theta, fhat), so the form must
    # be the kernel, signs of the ergodic part included
    k, orientation = _built_in_kernels()[name]
    assert k.convolution is not None
    rep = check_convolution_form(k, plan(orientation, dim=2, bound=2.0))
    assert rep.passed and rep.n_samples > 0
    assert rep.max_violation <= 1e-14


def test_convolution_form_refutes_an_unsigned_ergodic_factor():
    # a norm bound of the ergodic factor, declared in place of the signed
    # factor, is refuted on samples
    from dataclasses import replace
    from picardcert.kernels import split_exponential_kernel
    k = split_exponential_kernel(2.0, erg_cx=-0.3, state_bound=2.0)
    theta, fhat = k.convolution
    wrong = replace(k, convolution=(theta, lambda s, x, y: np.abs(fhat(s, x, y))))
    rep = check_convolution_form(wrong, plan("half_line_delayed", bound=2.0))
    assert not rep.passed


@pytest.mark.parametrize("name", list(_built_in_kernels()))
def test_every_built_in_envelope_dominates_its_kernel(name):
    # the envelope bounds the whole kernel on its state ball: for a split
    # kernel the ergodic part as well, for the history kernel the unit ball
    k, orientation = _built_in_kernels()[name]
    bound = getattr(k, "aa_part", k).state_bound
    rep = check_lambda_bound(k, plan(orientation, dim=2, bound=bound))
    assert rep.passed and rep.n_samples > 0, rep.witness


def test_split_envelope_covers_the_ergodic_part():
    # the recurrent part's envelope alone is refuted by the whole kernel
    from dataclasses import replace
    k, orientation = _built_in_kernels()["split_delayed"]
    rep = check_lambda_bound(replace(k, envelope=k.aa_part.envelope),
                             plan(orientation, dim=2, bound=2.0))
    assert not rep.passed and rep.max_violation > 0.4


def test_zero_kernel_needs_a_zero_modulus_too():
    # on a state ball of radius 0 the envelope vanishes, yet the kernel
    # depends on the state: dropping it as zero would delete a term
    from picardcert.kernels import split_exponential_kernel
    assert zero_kernel().is_zero
    assert not exponential_kernel(2.0, cx=0.25, state_bound=0.0).is_zero
    assert not split_exponential_kernel(2.0, erg_cx=0.1, state_bound=0.0).is_zero
    assert split_exponential_kernel(2.0, state_bound=3.0).is_zero


def test_split_kernel_refuses_a_growing_ergodic_factor():
    from picardcert.kernels import split_exponential_kernel
    with pytest.raises(ValueError, match="erg_decay"):
        split_exponential_kernel(2.0, erg_const=0.3, erg_decay=-0.1)


def test_gaussian_kernel_bound():
    k = gaussian_kernel(0.5, cx=1.0, state_bound=2.0)
    rep = check_lambda_bound(k, plan(dim=1, bound=2.0))
    assert rep.passed
