"""Empirical Grams, weighted least squares, exact-norm error evaluation,
and estimator averaging."""

import math

import numpy as np
import pytest

from dppls import samplers
from dppls.bases import HermiteBasis, make_basis
from dppls.errors import (EmptyAggregateError, QuadratureAccuracyError,
                          SingularDesignError, ValidationError)
from dppls.experiments import TARGETS
from dppls.lsq import (ErrorEvaluator, averaged_estimator, empirical_gram,
                       empirical_seminorm, weighted_gram, weighted_lsq_fit,
                       weighted_lsq_fits)
from dppls.samplers import (DesignSample, Weight, draw_design,
                            replicate_stream, sample_dpp)

import mc
import oracles

INV_QUAD = TARGETS["inv-quad"].evaluator


def _design(points, basis, alpha=1.0):
    points = np.asarray(points, dtype=float)
    phi = basis.feature_matrix(points)
    return DesignSample(points, Weight(alpha).evaluate(phi), phi,
                        "fixed")


# ---------------------------------------------------------------------------
# empirical Gram

def test_pwc_dpp_gram_is_identity_exactly():
    b = make_basis("pwc", 4)
    d = sample_dpp(b, replicate_stream(60, 0))
    g = empirical_gram(d, b)
    assert np.array_equal(g.matrix, np.eye(4))
    assert g.lambda_min == 1.0


@pytest.mark.parametrize("m", [5, 20, 50])
def test_stacked_weighted_gram_is_each_gram_bit_for_bit(m):
    """One weighted_gram over a (k, n, m) stack of designs gives each
    design's Gram matrix as the 2-D call does, at n from m to 10m."""
    b = make_basis("hermite", m)
    for n in (m, 3 * m + 1, 10 * m):
        k = 9
        phi = b.feature_matrix(replicate_stream(94, m, n).standard_normal(k * n))
        w = samplers.Weight(1.0).evaluate(phi)
        phi, w = phi.reshape(k, n, m), w.reshape(k, n)
        stacked = weighted_gram(phi, w)
        assert stacked.shape == (k, m, m)
        for i in range(k):
            assert stacked[i].tobytes() == weighted_gram(phi[i], w[i]).tobytes()


def test_rank_one_gram_trace_and_top_eigenvalue():
    b = make_basis("legendre", 3)
    d = _design([0.3], b)
    g = empirical_gram(d, b)
    assert np.trace(g.matrix) == pytest.approx(3.0, abs=1e-12)
    assert g.lambda_max == pytest.approx(3.0, abs=1e-9)
    assert g.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_christoffel_weighting_fixes_trace_at_m():
    b = make_basis("legendre", 5)
    pts = replicate_stream(61, 0).uniform(-1.0, 1.0, size=10)
    g = empirical_gram(_design(pts, b), b)
    assert np.trace(g.matrix) == pytest.approx(5.0, abs=1e-12)
    assert g.lambda_max <= 5.0 + 1e-10


def test_gram_and_fit_reject_features_of_another_dimension():
    d = _design([-0.5, 0.0, 0.5], make_basis("legendre", 3))
    b = make_basis("legendre", 2)
    with pytest.raises(ValidationError):
        empirical_gram(d, b)
    with pytest.raises(ValidationError):
        weighted_lsq_fit(np.ones(3), d, b)


@pytest.mark.parametrize("scheme, rows", [
    ("iid-mu", [10]), ("iid-christoffel", [10]), ("volume", [10]),
    ("repeated-dpp", [10]), ("repeated-dpp-cond", [10])])
def test_features_evaluated_once_per_drawn_block(monkeypatch, scheme, rows):
    """One feature evaluation per design, over its n final points (a
    repeated design's cut-off points are never evaluated), one per
    conditioning attempt, and none in the Gram matrix or the fit."""
    b = make_basis("hermite", 4)
    samplers._nu_sampler(b)
    calls = []
    evaluate = HermiteBasis.feature_matrix

    def counted(self, xs):
        calls.append(len(xs))
        return evaluate(self, xs)

    monkeypatch.setattr(HermiteBasis, "feature_matrix", counted)
    d = draw_design(scheme, b, 10, replicate_stream(78, len(scheme)))
    assert calls == rows * d.attempts
    calls.clear()
    empirical_gram(d, b)
    weighted_lsq_fit(np.cos(d.points), d, b)
    assert calls == []


def test_iid_christoffel_gram_mean_is_identity():
    mean, se = mc.gram_mean_stats("legendre", 3, 200, 1000, seed=62)
    assert np.all(np.abs(mean - np.eye(3)) <= 3.0 * se + 1e-12)


# ---------------------------------------------------------------------------
# weighted least squares

def test_fit_recovers_in_space_function():
    b = make_basis("legendre", 3)
    d = draw_design("iid-christoffel", b, 50, replicate_stream(63, 0))
    fvals = b.feature_matrix(d.points)[:, 2]
    fit = weighted_lsq_fit(fvals, d, b)
    assert np.allclose(fit.coefficients, [0.0, 0.0, 1.0], atol=1e-10)


def test_fit_interpolates_when_n_equals_m():
    b = make_basis("legendre", 4)
    d = _design([-0.9, -0.3, 0.3, 0.9], b)
    fvals = np.sin(2.0 * d.points)
    fit = weighted_lsq_fit(fvals, d, b)
    fitted = b.feature_matrix(d.points) @ fit.coefficients
    assert np.allclose(fitted, fvals, rtol=0.0, atol=1e-9 * np.abs(fvals).max())


def test_fit_metadata_copied_from_design():
    b = make_basis("legendre", 3)
    d = draw_design("volume", b, 6, replicate_stream(64, 0))
    fit = weighted_lsq_fit(np.cos(d.points), d, b)
    assert (fit.n, fit.m) == (6, 3)
    assert fit.sampler_id == d.sampler_id
    assert fit.attempts == d.attempts


def test_fit_length_mismatch():
    b = make_basis("legendre", 3)
    d = draw_design("iid-mu", b, 6, replicate_stream(65, 0))
    with pytest.raises(ValidationError):
        weighted_lsq_fit(np.zeros(5), d, b)


def test_fit_rejects_singular_design():
    b = make_basis("pwc", 4)
    d = _design([0.05, 0.1, 0.15, 0.2], b, alpha=0.0)
    with pytest.raises(SingularDesignError) as info:
        weighted_lsq_fit(np.ones(4), d, b)
    assert info.value.lambda_min <= 1e-12


@pytest.mark.parametrize("family", ["legendre", "hermite", "pwc"])
@pytest.mark.parametrize("scheme", ["volume", "iid-christoffel"])
def test_fit_lambda_min_is_gram_lambda_min(family, scheme):
    """The fit's lambda_min is empirical_gram's, bit for bit."""
    b = make_basis(family, 5)
    d = draw_design(scheme, b, 30, replicate_stream(76, len(family), len(scheme)))
    fit = weighted_lsq_fit(np.cos(d.points), d, b)
    assert fit.lambda_min == empirical_gram(d, b).lambda_min


def test_stacked_fits_mask_failed_and_singular_rows():
    """One stack holding a good design, a non-finite one and an exactly
    singular one: the singular R does not stop the solve, the good row is
    its single fit bit for bit, the others read NaN coefficients, and
    lambda_min is NaN for the non-finite row and 0 for the singular one."""
    b = make_basis("pwc", 4)
    good = draw_design("volume", b, 8, replicate_stream(79, 0))
    hole = _design([0.05, 0.1, 0.15, 0.2, 0.6, 0.7, 0.8, 0.9], b, alpha=0.0)
    f = np.cos(good.points)
    phi = np.stack([good.features, good.features, hole.features])
    w = np.stack([good.weights, good.weights, hole.weights])
    phi[1, 2, 0] = np.nan
    coef, lam = weighted_lsq_fits(np.stack([f, f, f]), w, phi)
    fit = weighted_lsq_fit(f, good, b)
    assert coef[0].tobytes() == fit.coefficients.tobytes()
    assert lam[0] == fit.lambda_min
    assert np.isnan(coef[1:]).all()
    assert np.isnan(lam[1]) and lam[2] == 0.0


def test_stacked_fits_below_m_points_read_zero():
    b = make_basis("legendre", 4)
    d = draw_design("iid-mu", b, 2, replicate_stream(80, 0))
    coef, lam = weighted_lsq_fits(np.ones((1, 2)), d.weights[None],
                                  d.features[None])
    assert lam.tolist() == [0.0] and np.isnan(coef).all()


def test_fit_with_fewer_points_than_features_is_singular():
    b = make_basis("legendre", 4)
    d = draw_design("iid-mu", b, 2, replicate_stream(77, 0))
    with pytest.raises(SingularDesignError) as info:
        weighted_lsq_fit(np.ones(2), d, b)
    assert info.value.lambda_min == 0.0


# ---------------------------------------------------------------------------
# empirical seminorm

def test_seminorm_of_zero_function():
    b = make_basis("legendre", 3)
    d = draw_design("iid-mu", b, 8, replicate_stream(66, 0))
    assert empirical_seminorm(np.zeros(8), d) == 0.0


def test_seminorm_squared_is_gram_quadratic_form():
    b = make_basis("legendre", 3)
    d = draw_design("volume", b, 6, replicate_stream(67, 0))
    a = np.array([0.4, -1.1, 0.25])
    fvals = b.feature_matrix(d.points) @ a
    g = empirical_gram(d, b)
    assert empirical_seminorm(fvals, d) ** 2 == pytest.approx(
        float(a @ g.matrix @ a), abs=1e-12)


def test_seminorm_length_mismatch():
    b = make_basis("legendre", 3)
    d = draw_design("iid-mu", b, 6, replicate_stream(68, 0))
    with pytest.raises(ValidationError):
        empirical_seminorm(np.zeros(7), d)


def test_seminorm_squared_unbiased_for_l2_norm():
    """f(x) = x on the uniform interval has ||f||^2 = 1/3; the weighted
    empirical mean square is unbiased for it under i.i.d. nu_m designs."""
    sq = mc.seminorm_squares("legendre", 3, 20, 10_000, seed=69)
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - 1.0 / 3.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# best approximation and exact errors

def test_best_approximation_of_basis_function():
    b = make_basis("legendre", 5)
    f = lambda xs: oracles.legendre_row(np.atleast_1d(xs), 5)[:, 3]
    coefs = ErrorEvaluator(f, b).best_coefficients
    assert np.allclose(coefs, np.eye(5)[3], atol=1e-12)


def test_best_approximation_even_target_kills_odd_coefficients():
    coefs = ErrorEvaluator(INV_QUAD, make_basis("legendre", 6)).best_coefficients
    assert np.all(np.abs(coefs[1::2]) < 1e-12)
    assert np.all(np.abs(coefs[0::2]) > 1e-4)


def test_hermite_even_target_parity(quad_cap_2048):
    ev = ErrorEvaluator(INV_QUAD, make_basis("hermite", 6))
    assert np.all(np.abs(ev.best_coefficients[1::2]) < 1e-12)


@pytest.mark.parametrize("m", sorted(oracles.BEST_REL_HERMITE))
def test_hermite_best_relative_error_matches_oracle(m, quad_cap_2048):
    ev = ErrorEvaluator(INV_QUAD, make_basis("hermite", m))
    assert ev.best_rel_error == pytest.approx(oracles.BEST_REL_HERMITE[m],
                                              abs=1e-8)


def _certified_rule(m):
    """The trapezoid rule that certifies the Hermite m evaluator."""
    rule = ErrorEvaluator(INV_QUAD, make_basis("hermite", m)).rule
    assert rule.order == rule.nodes.size <= 2048
    return rule


@pytest.mark.parametrize("m", sorted(oracles.BEST_REL_HERMITE))
def test_certified_trapezoid_even_moments(m, quad_cap_2048):
    """E[x^2k] = (2k - 1)!! for k <= m on the certified rule."""
    rule = _certified_rule(m)
    for k in range(m + 1):
        assert rule.integrate(rule.nodes ** (2 * k)) == pytest.approx(
            math.prod(range(1, 2 * k, 2)), rel=1e-12)


@pytest.mark.parametrize("m", sorted(oracles.BEST_REL_HERMITE))
def test_certified_trapezoid_keeps_features_orthonormal(m, quad_cap_2048):
    """Phi^T W Phi = I, which `_residual_norm`'s direct integral of the
    residual relies on, and the mean of the target in closed form."""
    rule = _certified_rule(m)
    phi = make_basis("hermite", m).feature_matrix(rule.nodes)
    gram = phi.T @ (rule.weights[:, None] * phi)
    assert np.abs(gram - np.eye(m)).max() <= 1e-12
    assert rule.integrate(INV_QUAD) == pytest.approx(
        oracles.gauss_invquad_mean_closed_form(), rel=1e-12)


def test_hermite_target_norm_matches_closed_form(quad_cap_2048):
    ev = ErrorEvaluator(INV_QUAD, make_basis("hermite", 6))
    assert ev.f_norm == pytest.approx(math.sqrt(oracles.GAUSS_INVQUAD_NORM2),
                                      abs=1e-10)


def test_error_evaluator_rejects_default_cap_for_gaussian_target(monkeypatch):
    """m = 10 certifies on a 577-node trapezoid rule, above a cap of 512."""
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "512")
    with pytest.raises(QuadratureAccuracyError):
        ErrorEvaluator(INV_QUAD, make_basis("hermite", 10))


def test_gaussian_cap_counts_trapezoid_nodes(monkeypatch):
    """The cap bounds the node count: m = 10 certifies at a cap of 577
    and not at 576, and a cap that admits one rule only cannot certify."""
    basis = make_basis("hermite", 10)
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "577")
    assert ErrorEvaluator(INV_QUAD, basis).rule.order == 577
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "576")
    with pytest.raises(QuadratureAccuracyError, match="not converged"):
        ErrorEvaluator(INV_QUAD, basis)
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "100")
    with pytest.raises(QuadratureAccuracyError, match="no room"):
        ErrorEvaluator(INV_QUAD, basis)


def test_error_evaluator_exact_for_target_in_space():
    """f = phi_1 lies in V_m: its best error, and the error of the exact
    coefficients, are 0 without a sqrt(eps) cancellation floor."""
    b = make_basis("legendre", 4)
    f = lambda xs: oracles.legendre_row(np.atleast_1d(xs), 4)[:, 1]
    ev = ErrorEvaluator(f, b)
    assert ev.best_error <= 1e-12
    assert ev.abs_error(np.eye(4)[1]) <= 1e-12


def test_l2_error_zero_coefficients_gives_target_norm(quad_cap_2048):
    b = make_basis("hermite", 6)
    err = ErrorEvaluator(INV_QUAD, b).abs_error(np.zeros(6))
    assert err == pytest.approx(math.sqrt(oracles.GAUSS_INVQUAD_NORM2),
                                abs=1e-10)


def test_l2_error_length_mismatch():
    with pytest.raises(ValidationError):
        ErrorEvaluator(INV_QUAD, make_basis("legendre", 4)).abs_error(np.zeros(3))


def test_error_split_agrees_with_direct_norm():
    """Two routes to ||f - phi c||: the residual integrated on the
    evaluator's certified rule, and the best-error plus
    coefficient-distance split in ErrorEvaluator."""
    b = make_basis("legendre", 6)
    ev = ErrorEvaluator(INV_QUAD, b)
    c = ev.best_coefficients + np.linspace(-0.05, 0.08, 6)
    r = INV_QUAD(ev.rule.nodes) - b.feature_matrix(ev.rule.nodes) @ c
    direct = math.sqrt(ev.rule.integrate(r * r))
    assert ev.abs_error(c) == pytest.approx(direct, rel=1e-8)
    assert ev.rel_error(c) == pytest.approx(direct / ev.f_norm, rel=1e-8)


def test_rel_errors_rows_are_rel_error():
    ev = ErrorEvaluator(INV_QUAD, make_basis("legendre", 6))
    C = ev.best_coefficients + replicate_stream(81, 0).normal(size=(9, 6))
    assert ev.rel_errors(C).tolist() == [ev.rel_error(c) for c in C]
    with pytest.raises(ValidationError):
        ev.rel_errors(C[:, :5])


def test_projection_contracts_empirical_seminorm():
    b = make_basis("legendre", 3)
    d = draw_design("volume", b, 8, replicate_stream(70, 0))
    fvals = replicate_stream(70, 1).normal(size=8)
    fit = weighted_lsq_fit(fvals, d, b)
    fitted = b.feature_matrix(d.points) @ fit.coefficients
    assert empirical_seminorm(fitted, d) <= empirical_seminorm(fvals, d) + 1e-12


# ---------------------------------------------------------------------------
# averaging independent estimators

@pytest.fixture(scope="module")
def volume_coefs_10k():
    return mc.volume_coefficients("hermite", 5, 12, 10_000, seed=71)


def test_average_of_single_fit_is_identity():
    b = make_basis("legendre", 3)
    d = draw_design("volume", b, 6, replicate_stream(72, 0))
    fit = weighted_lsq_fit(np.cos(d.points), d, b)
    assert np.array_equal(averaged_estimator([fit]), fit.coefficients)


def test_average_of_copies_is_the_copy():
    b = make_basis("legendre", 3)
    d = draw_design("volume", b, 6, replicate_stream(73, 0))
    fit = weighted_lsq_fit(np.cos(d.points), d, b)
    assert np.allclose(averaged_estimator([fit] * 7), fit.coefficients,
                       atol=1e-15)


def test_average_of_nothing():
    with pytest.raises(EmptyAggregateError):
        averaged_estimator([])


def test_average_rejects_mixed_dimensions():
    fits = []
    for m in (3, 4):
        b = make_basis("legendre", m)
        d = draw_design("volume", b, 8, replicate_stream(74, m))
        fits.append(weighted_lsq_fit(np.cos(d.points), d, b))
    with pytest.raises(ValidationError):
        averaged_estimator(fits)


def test_averaged_volume_estimator_near_best(volume_coefs_10k, quad_cap_2048):
    """The volume-design fit is unbiased for the best coefficients, so the
    mean of r replicates lands within a few standard errors."""
    coefs = volume_coefs_10k[:1000]
    ev = ErrorEvaluator(INV_QUAD, make_basis("hermite", 5))
    se = coefs.std(axis=0, ddof=1) / math.sqrt(len(coefs))
    gap = np.abs(coefs.mean(axis=0) - ev.best_coefficients)
    assert np.all(gap <= 4.0 * se)


def test_volume_fit_unbiasedness_z_scores(volume_coefs_10k, quad_cap_2048):
    ev = ErrorEvaluator(INV_QUAD, make_basis("hermite", 5))
    se = volume_coefs_10k.std(axis=0, ddof=1) / math.sqrt(len(volume_coefs_10k))
    z = np.abs(volume_coefs_10k.mean(axis=0) - ev.best_coefficients) / se
    assert np.all(z < 4.0)


def test_volume_gram_inverse_trace_mean():
    """E tr((G^w)^-1) = mn/(n-m+1) for volume designs."""
    traces = mc.volume_trace_inv("hermite", 5, 10, 10_000, seed=75)
    se = traces.std(ddof=1) / math.sqrt(traces.size)
    assert abs(traces.mean() - oracles.TR_INV_GRAM(5, 10)) <= 3.0 * se


def test_volume_rms_error_near_one_fifth(quad_cap_2048):
    """m = 10, n = 2m Gaussian fits: the volume-design relative-error RMS
    sits near 0.20. The law's RMS is about 0.226, inside the band but
    0.004 below its upper edge, while a thousand-replicate RMS spreads by
    about 0.006 from seed to seed; twenty thousand replicates bring that
    spread to about 0.0013, so the band edge is three spreads away."""
    errs = mc.rel_errors("hermite", 10, 20, "volume", 20_000, seed=1)
    rms = math.sqrt(float(np.mean(errs * errs)))
    assert rms == pytest.approx(0.20, rel=0.15)
