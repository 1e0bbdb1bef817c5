"""Chernoff constants, sample-size formulas, stability tail bounds, and
the grid estimate of the weight constant K."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppls.bases import make_basis
from dppls.bounds import (SCHEME_TAGS, chernoff_constants, k_constant,
                          mixed_stability_bound, quasi_optimality_constant,
                          required_sample_size, stability_failure_bound)
from dppls.errors import ValidationError
from dppls.samplers import Weight

import oracles


# ---------------------------------------------------------------------------
# Chernoff constants

def test_c_delta_reference_values():
    assert round(chernoff_constants(0.5).c_delta, 6) == 0.153426
    assert round(chernoff_constants(0.75).c_delta, 6) == 0.403426
    assert chernoff_constants(0.5).c_delta == pytest.approx(
        oracles.CHERNOFF_C_HALF, abs=1e-15)
    assert chernoff_constants(0.75).c_delta == pytest.approx(
        oracles.CHERNOFF_C_THREEQ, abs=1e-15)
    assert chernoff_constants(0.3).c_delta == pytest.approx(
        oracles.CHERNOFF_C_03, abs=1e-15)


def test_d_delta_formula():
    cc = chernoff_constants(0.5)
    assert cc.d_delta == pytest.approx(-0.5 + 1.5 * math.log(1.5), abs=1e-15)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.7])
def test_delta_domain(delta):
    with pytest.raises(ValidationError):
        chernoff_constants(delta)


def test_constants_bracket_chain_dense():
    """(5/13) d^2 <= d_d <= d^2/2 <= c_d <= d^2 across the whole range."""
    for delta in np.linspace(1e-6, 1.0 - 1e-6, 1000):
        cc = chernoff_constants(delta)
        d2 = delta * delta
        assert (5.0 / 13.0) * d2 - 1e-15 <= cc.d_delta <= d2 / 2.0
        assert d2 / 2.0 <= cc.c_delta <= d2


# ---------------------------------------------------------------------------
# sample-size formulas

def test_iid_sample_size_reference():
    assert required_sample_size("iid", 20, 0.75, 0.5) == oracles.IID_N_M20


def test_volume_sample_size_adds_block():
    assert required_sample_size("volume", 20, 0.75, 0.5) == oracles.VOLUME_N_M20


def test_repeated_dpp_sample_size_matches_iid_at_alpha_one():
    assert required_sample_size("repeated-dpp", 20, 0.75, 0.5) == oracles.IID_N_M20
    # its rate does not depend on the mixture weight
    assert required_sample_size("repeated-dpp", 20, 0.75, 0.5,
                                alpha=0.5) == oracles.IID_N_M20


def test_required_sample_size_unknown_tag():
    with pytest.raises(ValidationError):
        required_sample_size("bogus", 20, 0.75, 0.5)


def test_half_alpha_doubles_the_iid_count():
    full = required_sample_size("iid", 20, 0.75, 0.5)
    half = required_sample_size("iid", 20, 0.75, 0.5, alpha=0.5)
    assert abs(half - 2 * full) <= 1


def test_tiny_delta_needs_astronomical_n():
    assert required_sample_size("iid", 20, 1e-6, 0.5) > 10 ** 9


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 150), delta=st.floats(0.05, 0.9),
       eta=st.floats(0.01, 0.95), alpha=st.floats(0.1, 1.0))
def test_sample_size_monotonicity(m, delta, eta, alpha):
    def size(m, delta, eta, alpha):
        return required_sample_size("iid", m, delta, eta, alpha)

    n = size(m, delta, eta, alpha)
    assert size(m + 1, delta, eta, alpha) >= n
    assert size(m, delta, eta / 2.0, alpha) >= n
    assert size(m, delta, eta, alpha / 2.0) >= n
    assert size(m, min(delta * 1.1, 0.99), eta, alpha) <= n


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(SCHEME_TAGS), m=st.integers(1, 60),
       delta=st.floats(0.05, 0.95), eta=st.floats(1e-9, 0.95),
       alpha=st.floats(0.1, 1.0))
def test_required_sample_size_is_the_smallest_certified_n(scheme, m, delta,
                                                          eta, alpha):
    """At n = required_sample_size the tail bound is at most eta, and one
    point fewer (while n - 1 >= m) leaves it above eta."""
    n = required_sample_size(scheme, m, delta, eta, alpha)
    bound = stability_failure_bound(scheme, m, n, delta, alpha)
    assert bound.n == n
    assert bound.predicted_failure_prob <= eta
    if n - 1 >= m:
        below = stability_failure_bound(scheme, m, n - 1, delta, alpha)
        assert below.predicted_failure_prob > eta


# ---------------------------------------------------------------------------
# failure bounds

def _dpp_failure(m, n, delta):
    return stability_failure_bound("repeated-dpp", m, n,
                                   delta).predicted_failure_prob


def test_dpp_failure_reference_value():
    got = _dpp_failure(10, 10, 0.75)
    assert got == pytest.approx(oracles.DPP_FAILURE_M10_NEQM, abs=1e-12)
    assert round(got, 3) == 6.680


def test_dpp_failure_decreases_in_n():
    vals = [_dpp_failure(10, n, 0.75) for n in range(10, 60, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dpp_failure_needs_n_at_least_m():
    with pytest.raises(ValidationError):
        _dpp_failure(10, 9, 0.75)


def test_stability_failure_bound_iid_formula():
    b = stability_failure_bound("iid", 20, 183, 0.75)
    want = 20.0 * math.exp(-oracles.CHERNOFF_C_THREEQ * 183 / 20.0)
    assert b.predicted_failure_prob == pytest.approx(want, abs=1e-12)
    assert b.predicted_failure_prob <= 0.5
    assert not b.conjecture_dependent
    assert b.beta == 1.0


def test_stability_failure_bound_volume_shifts_by_m():
    vol = stability_failure_bound("volume", 20, 203, 0.75)
    iid = stability_failure_bound("iid", 20, 183, 0.75)
    assert vol.predicted_failure_prob == pytest.approx(
        iid.predicted_failure_prob, rel=1e-12)


def test_stability_failure_bound_dpp_is_conjectural():
    b = stability_failure_bound("repeated-dpp", 10, 10, 0.75)
    assert b.conjecture_dependent
    assert b.predicted_failure_prob == pytest.approx(
        oracles.DPP_FAILURE_M10_NEQM, abs=1e-12)


def test_stability_failure_bound_validations():
    with pytest.raises(ValidationError):
        stability_failure_bound("bogus", 10, 20, 0.75)
    with pytest.raises(ValidationError):
        stability_failure_bound("iid", 10, 9, 0.75)


def test_theory_bound_certifies_eta():
    for scheme in SCHEME_TAGS:
        n = required_sample_size(scheme, 20, 0.75, 0.5)
        tb = stability_failure_bound(scheme, 20, n, 0.75)
        assert tb.predicted_failure_prob <= 0.5
        assert tb.conjecture_dependent == (scheme == "repeated-dpp")


def test_beta_tracks_alpha():
    b = stability_failure_bound("iid", 10, 40, 0.75, alpha=0.5)
    assert b.beta == pytest.approx(1.0 + (2.0 - 1.0) * 10.0 / 40.0, abs=1e-15)


# ---------------------------------------------------------------------------
# quasi-optimality and mixed designs

def test_quasi_optimality_hand_value():
    got = quasi_optimality_constant(5, 10, 1.0, 0.5, 0.5, 0)
    assert got == pytest.approx(17.0, abs=1e-12)


def test_quasi_optimality_xi_one_is_larger():
    base = quasi_optimality_constant(5, 20, 0.8, 0.5, 0.5, 0)
    assert quasi_optimality_constant(5, 20, 0.8, 0.5, 0.5, 1) > base > 1.0


def test_quasi_optimality_validations():
    with pytest.raises(ValidationError):
        quasi_optimality_constant(5, 5, 1.0, 0.5, 0.5, 0)
    with pytest.raises(ValidationError):
        quasi_optimality_constant(5, 10, 1.0, 0.5, 0.5, 2)


def test_mixed_stability_bound_hand_values():
    threshold, failure = mixed_stability_bound(4, 8, 2, 0.75, 1.0)
    assert threshold == pytest.approx(0.25, abs=1e-15)
    assert failure == pytest.approx(
        4.0 * math.exp(-2.0 * oracles.CHERNOFF_C_THREEQ), abs=1e-12)


def test_mixed_stability_bound_validations():
    with pytest.raises(ValidationError):
        mixed_stability_bound(4, 7, 2, 0.75, 1.0)
    with pytest.raises(ValidationError):
        mixed_stability_bound(4, 8, 0, 0.75, 1.0)
    with pytest.raises(ValidationError):
        mixed_stability_bound(4, 8, 2, 0.75, 0.5)


# ---------------------------------------------------------------------------
# the weight constant K

@pytest.mark.parametrize("family,m", [("legendre", 4), ("hermite", 6)])
def test_k_constant_christoffel_weight_is_m(family, m):
    b = make_basis(family, m)
    assert k_constant(b, Weight(1.0)) == pytest.approx(
        float(m), abs=1e-10)


def test_k_constant_unit_weight_legendre():
    b = make_basis("legendre", 2)
    assert k_constant(b) == pytest.approx(4.0, abs=1e-10)


def test_k_constant_mixture_bounded_by_alpha_inverse_m():
    b = make_basis("legendre", 5)
    got = k_constant(b, Weight(0.3))
    assert float(5) <= got <= 5.0 / 0.3 + 1e-9

