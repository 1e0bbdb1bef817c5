"""Reference measures, Gauss rules, and the grid inverse-CDF sampler."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from dppls.errors import (EmptyDesignError, NegativeDensityError,
                          NotADensityError, UnsupportedOrderError)
from dppls.measures import (DEFAULT_MAX_QUAD_ORDER, StandardGaussian,
                            UniformInterval, build_density_sampler,
                            max_quad_order)

import oracles

UNIFORM = UniformInterval(-1.0, 1.0)
GAUSSIAN = StandardGaussian()


# ---------------------------------------------------------------------------
# densities

def test_uniform_density_inside_support():
    assert UNIFORM.density(0.0) == 0.5


def test_uniform_density_outside_support():
    assert UNIFORM.density(2.0) == 0.0


def test_gaussian_density_at_zero():
    assert GAUSSIAN.density(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


# ---------------------------------------------------------------------------
# i.i.d. sampling

def test_uniform_sample_mean():
    rng = np.random.default_rng(7)
    xs = UNIFORM.sample(rng, 10_000)
    sigma = math.sqrt(1.0 / 3.0)
    assert abs(xs.mean()) < 3.0 * sigma / math.sqrt(10_000)


def test_gaussian_sample_variance():
    rng = np.random.default_rng(7)
    xs = GAUSSIAN.sample(rng, 10_000)
    assert xs.var() == pytest.approx(1.0, rel=0.05)


def test_sample_iid_deterministic():
    a = UNIFORM.sample(np.random.default_rng(123), 50)
    b = UNIFORM.sample(np.random.default_rng(123), 50)
    assert np.array_equal(a, b)


def test_sample_iid_rejects_empty():
    with pytest.raises(EmptyDesignError):
        UNIFORM.sample(np.random.default_rng(0), 0)


# ---------------------------------------------------------------------------
# Gauss rules

def test_gaussian_order_one_rule():
    rule = GAUSSIAN.gauss_quadrature(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [1.0]


def test_gaussian_second_moment_exact():
    rule = GAUSSIAN.gauss_quadrature(2)
    assert rule.integrate(lambda x: x * x) == pytest.approx(1.0, abs=1e-14)


def test_uniform_second_moment_exact():
    rule = UNIFORM.gauss_quadrature(2)
    assert rule.integrate(lambda x: x * x) == pytest.approx(1.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5, 12, 40])
def test_rule_weights_sum_to_one(order):
    for measure in (UNIFORM, GAUSSIAN):
        rule = measure.gauss_quadrature(order)
        assert abs(rule.weights.sum() - 1.0) < 1e-12


def _uniform_moment(k):
    return 0.0 if k % 2 else 1.0 / (k + 1)


def _gaussian_moment(k):
    if k % 2:
        return 0.0
    out = 1.0
    for j in range(1, k, 2):
        out *= j
    return out


@pytest.mark.parametrize("order", [2, 5, 9])
def test_monomial_exactness_up_to_degree(order):
    """Gauss rules integrate x^k exactly for k <= 2*order - 1.

    Odd moments vanish by cancellation of terms as large as sum w|x|^k,
    so the tolerance scales with that magnitude, not with the result.
    """
    for measure, moment in ((UNIFORM, _uniform_moment), (GAUSSIAN, _gaussian_moment)):
        rule = measure.gauss_quadrature(order)
        for k in range(2 * order):
            got = rule.integrate(lambda x, k=k: x ** k)
            scale = rule.integrate(lambda x, k=k: np.abs(x) ** k)
            assert got == pytest.approx(moment(k), abs=1e-13 * scale + 1e-13)


@pytest.mark.parametrize("order", [31, 64, 128])
@pytest.mark.parametrize("kind", ["hermite", "legendre"])
def test_weights_accurate_relative_to_themselves(kind, order):
    """Every Gauss weight, tail weights far below the largest included,
    matches a 40-digit reference to a relative 1e-10.

    mpmath's rules are for exp(-x^2) on the line and for dx on [-1, 1];
    the probability versions scale the Hermite nodes by sqrt(2) and divide
    its weights by sqrt(pi), and halve the Legendre weights.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xs, ws = mpmath.gauss_quadrature(order, kind)
        if kind == "hermite":
            measure = GAUSSIAN
            xs = [x * mpmath.sqrt(2) for x in xs]
            ws = [w / mpmath.sqrt(mpmath.pi) for w in ws]
        else:
            measure = UNIFORM
            ws = [w / 2 for w in ws]
        want_x = np.array([float(x) for x in xs])
        want_w = np.array([float(w) for w in ws])
    order_by = np.argsort(want_x)
    rule = measure.gauss_quadrature(order)
    assert rule.nodes == pytest.approx(want_x[order_by], abs=1e-12)
    assert rule.weights == pytest.approx(want_w[order_by], rel=1e-10, abs=0)


def test_high_order_weights_are_a_probability_vector(monkeypatch):
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "2048")
    for measure in (UNIFORM, GAUSSIAN):
        w = measure.gauss_quadrature(2048).weights
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_order_above_cap_rejected():
    with pytest.raises(UnsupportedOrderError):
        UNIFORM.gauss_quadrature(DEFAULT_MAX_QUAD_ORDER + 1)


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "700")
    assert max_quad_order() == 700
    rule = UNIFORM.gauss_quadrature(600)
    assert rule.order == 600
    monkeypatch.delenv("DPPLS_MAX_QUAD_ORDER")
    assert max_quad_order() == DEFAULT_MAX_QUAD_ORDER


# ---------------------------------------------------------------------------
# grid inverse-CDF sampler

def test_flat_density_matches_uniform_cdf():
    sampler = build_density_sampler(lambda x: np.ones_like(x), UNIFORM, 1e-8)
    rng = np.random.default_rng(11)
    xs = np.array([sampler.sample(rng) for _ in range(10_000)])
    stat = kstest(xs, oracles.uniform_cdf).statistic
    assert stat < 0.02


def test_cubic_density_matches_closed_form_cdf():
    sampler = build_density_sampler(lambda x: 3.0 * np.asarray(x) ** 2, UNIFORM, 1e-8)
    rng = np.random.default_rng(12)
    xs = np.array([sampler.sample(rng) for _ in range(10_000)])
    stat = kstest(xs, lambda q: (np.asarray(q) ** 3 + 1.0) / 2.0).statistic
    assert stat < 0.02


def test_negative_density_rejected():
    with pytest.raises(NegativeDensityError):
        build_density_sampler(lambda x: -np.ones_like(x), UNIFORM, 1e-8)


def test_wrong_mass_rejected():
    with pytest.raises(NotADensityError):
        build_density_sampler(lambda x: 2.0 * np.ones_like(x), UNIFORM, 1e-8)


def test_flat_density_indistinguishable_from_iid():
    """Two-sample KS between the grid sampler with g = 1 and direct
    i.i.d. draws, at the 0.1% level."""
    sampler = build_density_sampler(lambda x: np.ones_like(x), UNIFORM, 1e-8)
    rng = np.random.default_rng(13)
    grid_draws = np.array([sampler.sample(rng) for _ in range(10_000)])
    direct = UNIFORM.sample(np.random.default_rng(14), 10_000)
    assert ks_2samp(grid_draws, direct).pvalue > 0.001


def test_grid_sampler_deterministic():
    sampler = build_density_sampler(lambda x: np.ones_like(x), UNIFORM, 1e-8)
    a = [sampler.sample(np.random.default_rng(5)) for _ in range(20)]
    b = [sampler.sample(np.random.default_rng(5)) for _ in range(20)]
    assert a == b


def test_gaussian_grid_sampler_cdf_accessible():
    """The sampler's own CDF agrees with the target CDF it was built from."""
    sampler = build_density_sampler(lambda x: np.ones_like(x), GAUSSIAN, 1e-8)
    qs = np.array([-2.0, -0.5, 0.0, 0.7, 1.9])
    assert np.allclose(sampler.cdf(qs), oracles.gaussian_cdf(qs), atol=1e-6)
