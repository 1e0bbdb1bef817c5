"""Random designs: i.i.d., Christoffel, projection DPP, volume, repeated,
conditioned."""

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from dppls.bases import HermiteBasis, LegendreBasis, make_basis
from dppls.errors import (ConditioningFailureError, EmptyDesignError,
                          UnderdeterminedDesignError, ValidationError)
from dppls.lsq import empirical_gram
from dppls.measures import UniformInterval
from dppls.samplers import (SCHEMES, MixtureWeight, _sample_dpp_sequential,
                            canonical_scheme, draw_design, make_weight,
                            replicate_stream, sample_christoffel,
                            sample_conditioned, sample_dpp,
                            sample_mixture_point, sample_repeated_dpp,
                            sample_volume, scheme_weight)

import mc
import oracles


# ---------------------------------------------------------------------------
# RNG streams

def test_replicate_stream_reproducible():
    a = replicate_stream(42, 3, 7).random(5)
    b = replicate_stream(42, 3, 7).random(5)
    assert np.array_equal(a, b)


def test_replicate_stream_distinct_replicates_and_keys():
    base = replicate_stream(42, 3, 7).random(5)
    assert not np.array_equal(base, replicate_stream(42, 4, 7).random(5))
    assert not np.array_equal(base, replicate_stream(42, 3, 8).random(5))
    assert not np.array_equal(base, replicate_stream(43, 3, 7).random(5))


# ---------------------------------------------------------------------------
# weight functions

def test_unit_weight_is_one():
    b = make_basis("legendre", 3)
    w = make_weight("unit")
    assert w.evaluate(b, [-0.5, 0.0, 0.5]).tolist() == [1.0, 1.0, 1.0]


def test_christoffel_weight_matches_density():
    b = make_basis("legendre", 3)
    w = make_weight("christoffel")
    xs = np.array([-0.8, 0.1, 0.6])
    assert np.array_equal(w.evaluate(b, xs), b.christoffel(xs))


def test_mixture_weight_formula():
    b = make_basis("legendre", 3)
    w = make_weight("mixture", alpha=0.25)
    xs = np.array([-0.8, 0.1, 0.6])
    want = 0.25 * b.christoffel(xs) + 0.75
    assert np.allclose(w.evaluate(b, xs), want, atol=1e-15)


def test_christoffel_kind_with_partial_alpha_becomes_mixture():
    assert make_weight("christoffel", alpha=0.5).kind == "mixture"
    assert make_weight("christoffel", alpha=1.0).kind == "christoffel"


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5])
def test_mixture_alpha_domain(alpha):
    with pytest.raises(ValidationError):
        make_weight("mixture", alpha=alpha)


def test_unknown_weight_kind():
    with pytest.raises(ValidationError):
        make_weight("bogus")


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0])
def test_mixture_weight_has_unit_mass(alpha):
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=alpha)
    rule = b.measure.gauss_quadrature(b.m + 1)
    mass = rule.integrate(lambda x: w.evaluate(b, x))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_mixture_h_sampler_cache_does_not_outlive_its_basis():
    """Fresh bases on disjoint intervals, one weight: every draw lands in
    the interval of the basis it was drawn for, even when a collected
    basis's address is reused."""
    w = MixtureWeight(0.5)
    rng = replicate_stream(56, 0)
    for t in range(20):
        b = LegendreBasis(3, UniformInterval(10.0 * t, 10.0 * t + 1.0))
        xs = np.array([sample_mixture_point(w, b, rng) for _ in range(20)])
        assert np.all((xs >= b.measure.a) & (xs <= b.measure.b)), t
        del b


# ---------------------------------------------------------------------------
# Christoffel sampling

def test_christoffel_draws_match_quadrature_cdf():
    xs = mc.christoffel_points("legendre", 5, 10_000, seed=21)
    stat = kstest(xs, oracles.christoffel_cdf("legendre", 5)).statistic
    assert stat < 0.02


def test_christoffel_m1_is_mu():
    b = make_basis("legendre", 1)
    rng = replicate_stream(22, 0)
    xs = np.array([sample_christoffel(b, rng) for _ in range(5_000)])
    assert kstest(xs, oracles.uniform_cdf).pvalue > 0.001


def test_christoffel_pwc_is_mu():
    b = make_basis("pwc", 4)
    rng = replicate_stream(23, 0)
    xs = np.array([sample_christoffel(b, rng) for _ in range(5_000)])
    assert kstest(xs, lambda q: oracles.uniform_cdf(q, 0.0, 1.0)).pvalue > 0.001


# ---------------------------------------------------------------------------
# projection DPP

def test_dpp_pwc_one_point_per_cell():
    b = make_basis("pwc", 4)
    for rep in range(200):
        d = sample_dpp(b, replicate_stream(24, rep))
        assert sorted(b.cell_index(d.points)) == [0, 1, 2, 3]


def test_dpp_m1_is_christoffel_law():
    b = make_basis("legendre", 1)
    rng = replicate_stream(25, 0)
    xs = np.array([sample_dpp(b, rng).points[0] for _ in range(4_000)])
    assert kstest(xs, oracles.uniform_cdf).pvalue > 0.001


def test_dpp_first_coordinate_law_legendre():
    xs = mc.dpp_first_coords("legendre", 3, 4_000, seed=26)
    stat = kstest(xs, oracles.christoffel_cdf("legendre", 3)).statistic
    assert stat < 0.02


@pytest.mark.parametrize("family", ["legendre", "hermite"])
def test_dpp_pooled_coordinate_marginal_m8(family):
    """The joint law is exchangeable, so every coordinate is marginally
    nu_m; pooling all coordinates of 1e4 draws sharpens the test."""
    xs = mc.dpp_all_coords(family, 8, 10_000, seed=27)
    assert kstest(xs, oracles.christoffel_cdf(family, 8)).pvalue > 0.001


# same features as the shipped bases; being subclasses, they are drawn by
# the sequential sampler, the reference for the matrix models

class _SeqHermite(HermiteBasis):
    pass


class _SeqLegendre(LegendreBasis):
    pass


def test_dpp_subclass_takes_sequential_path():
    a = sample_dpp(_SeqHermite(4), replicate_stream(57, 0))
    b = _sample_dpp_sequential(HermiteBasis(4), replicate_stream(57, 0))
    c = sample_dpp(HermiteBasis(4), replicate_stream(57, 0))
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def _lambda_min_and_gap(basis, seed, total):
    lam = np.empty(total)
    gap = np.empty(total)
    for rep in range(total):
        d = sample_dpp(basis, replicate_stream(seed, rep))
        lam[rep] = empirical_gram(d, basis).lambda_min
        gap[rep] = np.diff(np.sort(d.points)).min()
    return lam, gap


@pytest.mark.parametrize("exact, sequential", [(HermiteBasis, _SeqHermite),
                                               (LegendreBasis, _SeqLegendre)])
def test_dpp_exact_matches_sequential_reference(exact, sequential):
    """Two routes to the same law: the matrix-model draw against the
    sequential sampler, on lambda_min(G) and on the smallest gap."""
    lam_e, gap_e = _lambda_min_and_gap(exact(5), 58, 1500)
    lam_s, gap_s = _lambda_min_and_gap(sequential(5), 59, 1500)
    assert ks_2samp(lam_e, lam_s).pvalue > 0.001
    assert ks_2samp(gap_e, gap_s).pvalue > 0.001


def test_dpp_hermite_m1_is_gaussian():
    b = make_basis("hermite", 1)
    rng = replicate_stream(60, 0)
    xs = np.array([sample_dpp(b, rng).points[0] for _ in range(4_000)])
    assert kstest(xs, oracles.gaussian_cdf).pvalue > 0.001


def test_dpp_hermite_coordinates_exchangeable():
    b = make_basis("hermite", 5)
    rng = replicate_stream(61, 0)
    pts = np.array([sample_dpp(b, rng).points for _ in range(4_000)])
    assert ks_2samp(pts[:, 0], pts[:, -1]).pvalue > 0.001


def test_dpp_legendre_on_shifted_interval():
    b = LegendreBasis(3, UniformInterval(0.0, 2.0))
    rng = replicate_stream(62, 0)
    xs = np.concatenate([sample_dpp(b, rng).points for _ in range(3_000)])
    assert np.all((xs >= 0.0) & (xs <= 2.0))
    cdf = oracles.christoffel_cdf("legendre", 3)
    assert kstest(xs - 1.0, cdf).pvalue > 0.001


def test_dpp_pwc_one_point_per_cell_on_shifted_interval():
    b = make_basis("pwc", 5, UniformInterval(-3.0, 4.0))
    for rep in range(200):
        d = sample_dpp(b, replicate_stream(63, rep))
        assert sorted(b.cell_index(d.points)) == [0, 1, 2, 3, 4]


def test_dpp_weights_are_christoffel_values():
    b = make_basis("legendre", 4)
    d = sample_dpp(b, replicate_stream(28, 0))
    assert np.array_equal(d.weights, b.christoffel(d.points))


# ---------------------------------------------------------------------------
# volume sampling

def test_volume_needs_n_at_least_m():
    b = make_basis("legendre", 3)
    with pytest.raises(UnderdeterminedDesignError):
        sample_volume(b, make_weight("christoffel"), 2, replicate_stream(29, 0))


def test_volume_at_n_equal_m_matches_dpp_marginal():
    dpp = mc.dpp_all_coords("legendre", 3, 3_000, seed=30)
    vol = mc.volume_coord("legendre", 3, 3, 3_000, seed=31, weight_kind="christoffel")
    assert ks_2samp(dpp, vol).pvalue > 0.001


def test_volume_unit_weight_coordinate_marginal():
    xs = mc.volume_coord("legendre", 3, 6, 10_000, seed=32, weight_kind="unit")
    cdf = oracles.volume_coordinate_cdf("legendre", 3, 6, base="mu")
    assert kstest(xs, cdf).statistic < 0.02


def test_volume_christoffel_coordinate_marginal_collapses():
    """With the Christoffel filler the mixture marginal is nu_m itself."""
    xs = mc.volume_coord("legendre", 3, 6, 6_000, seed=33, weight_kind="christoffel")
    assert kstest(xs, oracles.christoffel_cdf("legendre", 3)).pvalue > 0.001


def test_volume_coordinates_exchangeable():
    first = mc.volume_coord("legendre", 3, 6, 4_000, seed=34, coord=0)
    last = mc.volume_coord("legendre", 3, 6, 4_000, seed=35, coord=5)
    assert ks_2samp(first, last).pvalue > 0.001


def test_volume_weights_follow_weight_function():
    b = make_basis("legendre", 3)
    w = make_weight("unit")
    d = sample_volume(b, w, 6, replicate_stream(36, 0))
    assert d.n == 6
    assert d.weights.tolist() == [1.0] * 6


# ---------------------------------------------------------------------------
# repeated DPP

def test_repeated_dpp_blocks_cover_cells():
    b = make_basis("pwc", 4)
    d = sample_repeated_dpp(b, 8, replicate_stream(37, 0))
    assert sorted(b.cell_index(d.points[:4])) == [0, 1, 2, 3]
    assert sorted(b.cell_index(d.points[4:])) == [0, 1, 2, 3]


def test_repeated_dpp_truncates_to_n():
    b = make_basis("legendre", 3)
    d = sample_repeated_dpp(b, 4, replicate_stream(38, 0))
    assert d.n == 4
    assert d.attempts == 1
    assert np.array_equal(d.weights, b.christoffel(d.points))


def test_repeated_dpp_needs_positive_n():
    b = make_basis("legendre", 3)
    with pytest.raises(EmptyDesignError):
        sample_repeated_dpp(b, 0, replicate_stream(39, 0))


# ---------------------------------------------------------------------------
# conditioned sampling

def test_conditioned_pwc_accepts_first_attempt():
    b = make_basis("pwc", 4)
    d = sample_conditioned(lambda g: sample_dpp(b, g), b,
                           make_weight("christoffel"), 0.5,
                           rng=replicate_stream(40, 0))
    assert d.attempts == 1
    assert d.sampler_id.endswith("-cond")


def test_conditioned_zero_attempts_fails():
    b = make_basis("pwc", 4)
    with pytest.raises(ConditioningFailureError):
        sample_conditioned(lambda g: sample_dpp(b, g), b,
                           make_weight("christoffel"), 0.5, max_attempts=0,
                           rng=replicate_stream(41, 0))


def test_conditioned_reports_best_lambda_on_failure():
    b = make_basis("hermite", 5)
    with pytest.raises(ConditioningFailureError) as info:
        sample_conditioned(lambda g: sample_repeated_dpp(b, 5, g), b,
                           make_weight("christoffel"), 0.01, max_attempts=3,
                           rng=replicate_stream(42, 0))
    assert info.value.attempts == 3
    assert info.value.best_lambda_min < 0.99


def test_conditioned_mean_attempts_moderate():
    """Repeated-DPP designs at n = 2m reach the stability event quickly."""
    b = make_basis("hermite", 10)
    total = 0
    for rep in range(100):
        d = sample_conditioned(lambda g: sample_repeated_dpp(b, 20, g), b,
                               make_weight("christoffel"), 0.75,
                               rng=replicate_stream(43, rep))
        g = empirical_gram(d, b)
        assert g.lambda_min >= 0.25
        total += d.attempts
    assert total / 100 < 10.0


def test_conditioned_delta_domain():
    b = make_basis("pwc", 4)
    with pytest.raises(ValidationError):
        sample_conditioned(lambda g: sample_dpp(b, g), b,
                           make_weight("christoffel"), 1.5,
                           rng=replicate_stream(44, 0))


# ---------------------------------------------------------------------------
# mixture point sampling

def test_mixture_point_needs_mixture_weight():
    b = make_basis("legendre", 4)
    with pytest.raises(ValidationError):
        sample_mixture_point(make_weight("unit"), b, replicate_stream(45, 0))


def test_mixture_alpha_one_is_christoffel_law():
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=1.0)
    rng = replicate_stream(46, 0)
    mixed = np.array([sample_mixture_point(w, b, rng) for _ in range(4_000)])
    direct = np.array([sample_christoffel(b, replicate_stream(47, i))
                       for i in range(4_000)])
    assert ks_2samp(mixed, direct).pvalue > 0.001


def test_mixture_tiny_alpha_close_to_mu():
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=1e-9)
    rng = replicate_stream(48, 0)
    xs = np.array([sample_mixture_point(w, b, rng) for _ in range(10_000)])
    assert kstest(xs, oracles.uniform_cdf).statistic < 0.02


def test_mixture_half_alpha_cdf():
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=0.5)
    rng = replicate_stream(49, 0)
    xs = np.array([sample_mixture_point(w, b, rng) for _ in range(10_000)])
    assert kstest(xs, oracles.mixture_cdf("legendre", 4, 0.5)).statistic < 0.02


# ---------------------------------------------------------------------------
# scheme dispatch

def test_scheme_weight_kinds():
    assert scheme_weight("iid-mu").kind == "unit"
    assert scheme_weight("iid-christoffel").kind == "christoffel"
    assert scheme_weight("volume").kind == "christoffel"
    assert scheme_weight("volume", alpha=0.5).kind == "mixture"
    assert scheme_weight("repeated-dpp").kind == "christoffel"
    assert scheme_weight("repeated-dpp-cond").kind == "christoffel"
    with pytest.raises(ValidationError):
        scheme_weight("bogus")


def test_canonical_scheme_alias():
    assert canonical_scheme("volume-rescaled") == "volume"
    assert canonical_scheme("volume") == "volume"
    assert canonical_scheme("iid-mu") == "iid-mu"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_draw_design_weights_match_scheme(scheme):
    b = make_basis("legendre", 3)
    d = draw_design(scheme, b, 6, replicate_stream(50, 0))
    w = scheme_weight(scheme)
    assert d.n == 6
    assert np.array_equal(d.weights, w.evaluate(b, d.points))


def test_draw_design_iid_mu_unit_weights():
    b = make_basis("hermite", 4)
    d = draw_design("iid-mu", b, 5, replicate_stream(51, 0))
    assert d.weights.tolist() == [1.0] * 5


def test_draw_design_accepts_volume_alias():
    b = make_basis("legendre", 3)
    a = draw_design("volume-rescaled", b, 6, replicate_stream(52, 0))
    c = draw_design("volume", b, 6, replicate_stream(52, 0))
    assert np.array_equal(a.points, c.points)


def test_draw_design_unknown_scheme():
    b = make_basis("legendre", 3)
    with pytest.raises(ValidationError):
        draw_design("bogus", b, 6, replicate_stream(53, 0))


def test_draw_design_rejects_empty():
    b = make_basis("legendre", 3)
    with pytest.raises(EmptyDesignError):
        draw_design("iid-mu", b, 0, replicate_stream(54, 0))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_draw_design_bit_reproducible(scheme):
    b = make_basis("legendre", 3)
    a = draw_design(scheme, b, 6, replicate_stream(55, 9))
    c = draw_design(scheme, b, 6, replicate_stream(55, 9))
    assert np.array_equal(a.points, c.points)
    assert np.array_equal(a.weights, c.weights)
