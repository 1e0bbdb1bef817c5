"""Random designs: i.i.d., Christoffel, projection DPP, volume, repeated,
conditioned."""

import pickle

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import ks_2samp, kstest

from dppls.bases import (HermiteBasis, LegendreBasis, PiecewiseConstantBasis,
                         make_basis)
from dppls.errors import (ConditioningFailureError, EmptyDesignError,
                          SamplerFailureError, UnderdeterminedDesignError,
                          ValidationError)
from dppls import measures, samplers
from dppls.experiments import TARGETS
from dppls.lsq import ErrorEvaluator, _rule_for, empirical_gram
from dppls.measures import UniformInterval
from dppls.samplers import (SCHEMES, Weight, _sample_dpp_sequential,
                            canonical_scheme, draw_design, draw_designs,
                            make_weight, replicate_stream, replicate_streams,
                            sample_christoffel, sample_conditioned,
                            sample_dpp, sample_repeated_dpp, sample_volume,
                            scheme_weight)

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


def _seed_sequence_stream(seed, replicate, *key):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate, *key))
    return np.random.Generator(np.random.PCG64(ss))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5,
                                  2**200 + 9])
@pytest.mark.parametrize("key", [(), (10, 20, 3), (2**33, 5), (901,)], ids=str)
def test_replicate_streams_are_seed_sequence_streams(seed, key):
    """Each stream is numpy's SeedSequence route bit for bit, in its PCG64
    state and its first draws: single-, multi-word and over-pool-size
    seeds and keys, and non-contiguous replicate lists at k = 1, 8 and
    256."""
    for replicates in ([2**32 - 1], [0, 3, 1, 7, 2**31, 5, 2**32 - 2, 4],
                       list(range(1023, -1, -4))):
        streams = replicate_streams(seed, replicates, *key)
        assert len(streams) == len(replicates)
        for r, gen in zip(replicates, streams):
            ref = _seed_sequence_stream(seed, r, *key)
            assert gen.bit_generator.state == ref.bit_generator.state
            assert gen.random(3).tobytes() == ref.random(3).tobytes()
    assert (replicate_stream(seed, 6, *key).random(3).tobytes()
            == _seed_sequence_stream(seed, 6, *key).random(3).tobytes())


def test_replicate_streams_reject_what_seed_sequence_rejects():
    with pytest.raises(ValueError) as ours:
        replicate_streams(-1, [0])
    with pytest.raises(ValueError) as numpys:
        np.random.SeedSequence(-1, spawn_key=(0,))
    assert str(ours.value) == str(numpys.value)
    with pytest.raises(ValueError):
        replicate_streams(1, [0], 4, -3)
    for replicate in (-1, 2**32):
        with pytest.raises(ValueError):
            replicate_streams(1, [0, replicate])


def test_replicate_stream_pickles_to_the_same_draws():
    gen = replicate_stream(7, 3, 11)
    gen.random(4)
    copy = pickle.loads(pickle.dumps(gen))
    assert copy.random(5).tobytes() == gen.random(5).tobytes()


# ---------------------------------------------------------------------------
# weight functions

def test_unit_weight_is_one():
    b = make_basis("legendre", 3)
    w = make_weight("unit")
    phi = b.feature_matrix(np.array([-0.5, 0.0, 0.5]))
    assert w.evaluate(phi).tolist() == [1.0, 1.0, 1.0]


def test_christoffel_weight_matches_density():
    b = make_basis("legendre", 3)
    w = make_weight("christoffel")
    xs = np.array([-0.8, 0.1, 0.6])
    assert np.array_equal(w.evaluate(b.feature_matrix(xs)), b.christoffel(xs))


def test_mixture_weight_formula():
    b = make_basis("legendre", 3)
    w = make_weight("mixture", alpha=0.25)
    xs = np.array([-0.8, 0.1, 0.6])
    want = 0.25 * b.christoffel(xs) + 0.75
    assert np.allclose(w.evaluate(b.feature_matrix(xs)), want, atol=1e-15)


def test_christoffel_kind_with_partial_alpha_becomes_mixture():
    assert make_weight("christoffel", alpha=0.5).alpha == 0.5
    assert make_weight("christoffel", alpha=1.0).alpha == 1.0
    assert make_weight("unit").alpha == 0.0


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5])
def test_mixture_alpha_domain(alpha):
    with pytest.raises(ValidationError):
        make_weight("mixture", alpha=alpha)


@pytest.mark.parametrize("alpha", [-0.2, 1.5, float("nan")])
def test_weight_alpha_domain(alpha):
    with pytest.raises(ValidationError):
        Weight(alpha)


def test_unknown_weight_kind():
    with pytest.raises(ValidationError):
        make_weight("bogus")


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0])
def test_mixture_weight_has_unit_mass(alpha):
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=alpha)
    rule = b.measure.gauss_quadrature(b.m + 1)
    mass = rule.integrate(lambda x: w.evaluate(b.feature_matrix(x)))
    assert mass == pytest.approx(1.0, abs=1e-8)


def _iid_draws(w, b, rng, n):
    """n i.i.d. draws from nu = w mu on one stream: its numbers, then
    their points."""
    return samplers._iid_points(b, [samplers._iid_numbers(w, b, rng, n)])[0]


def _mixture_points(w, b, rng, count):
    """`count` single draws from nu = w mu, one call each."""
    return np.array([_iid_draws(w, b, rng, 1)[0] for _ in range(count)])


def test_mixture_h_sampler_cache_does_not_outlive_its_basis():
    """Fresh bases on disjoint intervals, one weight: every draw lands in
    the interval of the basis it was drawn for, even when a collected
    basis's address is reused."""
    w = Weight(0.5)
    rng = replicate_stream(56, 0)
    for t in range(20):
        b = LegendreBasis(3, UniformInterval(10.0 * t, 10.0 * t + 1.0))
        xs = _mixture_points(w, b, rng, 20)
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
    xs = sample_christoffel(b, replicate_stream(22, 0), 5_000)
    assert kstest(xs, oracles.uniform_cdf).pvalue > 0.001


def test_christoffel_pwc_is_mu():
    b = make_basis("pwc", 4)
    xs = sample_christoffel(b, replicate_stream(23, 0), 5_000)
    assert kstest(xs, lambda q: oracles.uniform_cdf(q, 0.0, 1.0)).pvalue > 0.001


@pytest.mark.parametrize("family, m", [("hermite", 7), ("legendre", 7),
                                       ("pwc", 5)])
def test_christoffel_single_draws_equal_one_batch(family, m):
    """One uniform per point: n single draws from a stream are the n-draw
    from the same stream, bit for bit."""
    b = make_basis(family, m)
    rng = replicate_stream(64, 0)
    single = [sample_christoffel(b, rng) for _ in range(257)]
    assert all(isinstance(x, float) for x in single)
    batch = sample_christoffel(b, replicate_stream(64, 0), 257)
    assert np.array_equal(np.array(single), batch)


@pytest.mark.parametrize("family, m", [("hermite", 10), ("hermite", 50),
                                       ("legendre", 20)])
def test_christoffel_batch_matches_quadrature_cdf(family, m):
    xs = sample_christoffel(make_basis(family, m), replicate_stream(65, m),
                            200_000)
    assert kstest(xs, oracles.christoffel_cdf(family, m)).pvalue > 0.001


@pytest.mark.parametrize("family, m", [("hermite", 10), ("hermite", 50),
                                       ("legendre", 20)])
def test_christoffel_batch_matches_dpp_marginal(family, m):
    """Grid-free reference: the one-point marginal of gamma_m is nu_m, and
    sample_dpp returns its exact matrix-model points in uniformly random
    order, so the first point is a nu_m draw."""
    xs = sample_christoffel(make_basis(family, m), replicate_stream(66, m),
                            20_000)
    ref = mc.dpp_first_coords(family, m, 20_000, seed=67)
    assert ks_2samp(xs, ref).pvalue > 0.001


# ---------------------------------------------------------------------------
# projection DPP

class _SeqPwc(PiecewiseConstantBasis):
    pass


def test_dpp_pwc_one_point_per_cell():
    """The matrix-model draw and, through a subclass, the sequential one."""
    for b in (make_basis("pwc", 4), _SeqPwc(4)):
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


class _RotatedLegendre(LegendreBasis):
    """Features phi Q with Q a fixed orthogonal matrix: the same span V_m,
    so the same gamma_m, with no feature ordered by degree."""

    def __init__(self, m, measure=None):
        super().__init__(m, measure)
        gauss = np.random.default_rng(70).standard_normal((m, m))
        self.rotation = np.linalg.qr(gauss)[0]

    def feature_matrix(self, xs):
        return super().feature_matrix(xs) @ self.rotation


class _DuplicateFeature(LegendreBasis):
    """Last feature a copy of the first: the features span only m - 1
    dimensions, so no m-th point has a nonzero residual."""

    def feature_matrix(self, xs):
        phi = super().feature_matrix(xs)
        phi[:, -1] = phi[:, 0]
        return phi


def test_dpp_subclass_takes_sequential_path():
    a = sample_dpp(_SeqHermite(4), replicate_stream(57, 0))
    b = _sample_dpp_sequential(HermiteBasis(4), replicate_stream(57, 0))
    c = sample_dpp(HermiteBasis(4), replicate_stream(57, 0))
    assert np.array_equal(a.points, b)
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
                                               (LegendreBasis, _SeqLegendre),
                                               (LegendreBasis, _RotatedLegendre)])
def test_dpp_exact_matches_sequential_reference(exact, sequential):
    """Two routes to the same law: the matrix-model draw against the
    sequential sampler, on lambda_min(G) and on the smallest gap."""
    lam_e, gap_e = _lambda_min_and_gap(exact(5), 58, 1500)
    lam_s, gap_s = _lambda_min_and_gap(sequential(5), 59, 1500)
    assert ks_2samp(lam_e, lam_s).pvalue > 0.001
    assert ks_2samp(gap_e, gap_s).pvalue > 0.001


def test_dpp_rank_deficient_basis_exhausts_proposal_budget():
    with pytest.raises(SamplerFailureError, match="step 4"):
        sample_dpp(_DuplicateFeature(4), replicate_stream(69, 0))


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


def _kernel_moments(basis, g):
    """Mean and variance of S = sum_i g(x_i) under gamma_m, from the kernel
    K(x, y) = phi(x) . phi(y) on a Gauss rule (composite for pwc):
    mean = int g K(x, x) dmu and
    variance = int g^2 K(x, x) dmu - int int g(x) g(y) K(x, y)^2 dmu dmu,
    where the double integral is sum_kl (int g phi_k phi_l dmu)^2."""
    rule = _rule_for(basis, 64)
    phi = basis.feature_matrix(rule.nodes)
    gw = g(rule.nodes) * rule.weights
    diag = (phi * phi).sum(axis=1)
    cross = phi.T @ (gw[:, None] * phi)
    mean = gw @ diag
    var = (gw * g(rule.nodes)) @ diag - (cross * cross).sum()
    return mean, var


@pytest.mark.parametrize("family", ["hermite", "legendre", "pwc"])
def test_dpp_kernel_moments_of_sum_of_squares(family):
    """Grid-free check of the exact gamma_m draws: the sample mean of
    S = sum_i x_i^2 over 2e4 draws sits within 4 standard errors of the
    kernel's mean, with the kernel's variance."""
    m, total = 10, 20_000
    mean, var = _kernel_moments(make_basis(family, m), np.square)
    pts = mc.dpp_all_coords(family, m, total, seed=80).reshape(total, m)
    z = ((pts * pts).sum(axis=1).mean() - mean) / np.sqrt(var / total)
    assert abs(z) < 4.0, z


def test_results_do_not_depend_on_tridiagonal_driver(monkeypatch,
                                                      quad_cap_2048):
    """The matrix models take their eigenvalues from
    `samplers._tridiagonal_eigvalsh` (numpy's dsyevd, which runs dsterf).
    On the models' own matrices, drawn as stacks of 200, the helper equals
    scipy's 'sterf' matrix by matrix and bit for bit, and 'stemr' differs
    by rounding only. The Gauss rules find their nodes by Newton's method;
    built on scipy's 'sterf' eigenvalues instead, with the same Christoffel
    weights, they move the Hermite m = 10 best error by rounding only and
    certify it at the same order."""

    def stemr(d, e):
        return eigvalsh_tridiagonal(d, e, lapack_driver="stemr")

    helper = samplers._tridiagonal_eigvalsh
    matrices = []

    def recording(diag, off):
        eig = helper(diag, off)
        matrices.append((diag, off, eig))
        return eig

    with monkeypatch.context() as patch:
        patch.setattr(samplers, "_tridiagonal_eigvalsh", recording)
        for family in ("hermite", "legendre"):
            for m in (2, 10, 50):
                basis = make_basis(family, m)
                draw_designs("repeated-dpp", basis, m,
                             [replicate_stream(81, m, rep) for rep in range(200)])
    assert len(matrices) == 6
    matrices = [row for stack in matrices for row in zip(*stack)]
    assert len(matrices) == 1200
    for diag, off, stacked in matrices:
        eig = helper(diag, off)
        sterf = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")
        assert eig.tobytes() == sterf.tobytes() == stacked.tobytes()
        assert np.all(np.abs(stemr(diag, off) - eig) <= 1e-12 * np.abs(eig).max())

    orders = []

    def sterf_rule(measure, order):
        orders.append(order)
        off = np.sqrt(np.arange(1, order, dtype=float))
        nodes = eigvalsh_tridiagonal(np.zeros(order), off, lapack_driver="sterf")
        _, _, total, shift = measures._recurrence(nodes, off)
        weights = np.ldexp(1.0 / total, -2 * shift)
        return measures.QuadratureRule(nodes, weights / weights.sum(), order)

    def best_rel_error():
        evaluator = ErrorEvaluator(TARGETS["inv-quad"].evaluator,
                                   HermiteBasis(10))
        return evaluator.best_rel_error, evaluator.rule.order

    best, order = best_rel_error()
    monkeypatch.setattr(measures.StandardGaussian, "gauss_quadrature",
                        sterf_rule)
    best_sterf, order_sterf = best_rel_error()
    assert orders[-1] == order_sterf == order
    assert best_sterf == pytest.approx(best, rel=1e-12)


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
    d = sample_conditioned(lambda g: sample_dpp(b, g), b, 0.5,
                           rng=replicate_stream(40, 0))
    assert d.attempts == 1
    assert d.sampler_id.endswith("-cond")


def test_conditioned_zero_attempts_fails():
    b = make_basis("pwc", 4)
    with pytest.raises(ConditioningFailureError):
        sample_conditioned(lambda g: sample_dpp(b, g), b, 0.5,
                           max_attempts=0, rng=replicate_stream(41, 0))


def test_conditioned_reports_best_lambda_on_failure():
    b = make_basis("hermite", 5)
    with pytest.raises(ConditioningFailureError) as info:
        sample_conditioned(lambda g: sample_repeated_dpp(b, 5, g), b,
                           0.01, max_attempts=3, rng=replicate_stream(42, 0))
    assert info.value.attempts == 3
    assert info.value.best_lambda_min < 0.99


def test_conditioned_mean_attempts_moderate():
    """Repeated-DPP designs at n = 2m reach the stability event quickly."""
    b = make_basis("hermite", 10)
    total = 0
    for rep in range(100):
        d = sample_conditioned(lambda g: sample_repeated_dpp(b, 20, g), b,
                               0.75, rng=replicate_stream(43, rep))
        g = empirical_gram(d, b)
        assert g.lambda_min >= 0.25
        total += d.attempts
    assert total / 100 < 10.0


def test_conditioned_delta_domain():
    b = make_basis("pwc", 4)
    with pytest.raises(ValidationError):
        sample_conditioned(lambda g: sample_dpp(b, g), b, 1.5,
                           rng=replicate_stream(44, 0))


# ---------------------------------------------------------------------------
# mixture point sampling

def test_mixture_alpha_one_is_christoffel_law():
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=1.0)
    rng = replicate_stream(46, 0)
    mixed = _mixture_points(w, b, rng, 4_000)
    direct = np.array([sample_christoffel(b, replicate_stream(47, i))
                       for i in range(4_000)])
    assert ks_2samp(mixed, direct).pvalue > 0.001


def test_mixture_tiny_alpha_close_to_mu():
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=1e-9)
    rng = replicate_stream(48, 0)
    xs = _mixture_points(w, b, rng, 10_000)
    assert kstest(xs, oracles.uniform_cdf).statistic < 0.02


def test_mixture_batch_cdf():
    """The batched mixture: branch uniforms, then a nu_m and a mu block."""
    b = make_basis("legendre", 6)
    xs = _iid_draws(Weight(0.3), b, replicate_stream(68, 0), 200_000)
    assert kstest(xs, oracles.mixture_cdf("legendre", 6, 0.3)).pvalue > 0.001


def test_mixture_half_alpha_cdf():
    b = make_basis("legendre", 4)
    w = make_weight("mixture", alpha=0.5)
    rng = replicate_stream(49, 0)
    xs = _mixture_points(w, b, rng, 10_000)
    assert kstest(xs, oracles.mixture_cdf("legendre", 4, 0.5)).statistic < 0.02


# ---------------------------------------------------------------------------
# scheme dispatch

def test_scheme_weight_kinds():
    assert scheme_weight("iid-mu").alpha == 0.0
    assert scheme_weight("iid-christoffel").alpha == 1.0
    assert scheme_weight("volume").alpha == 1.0
    assert scheme_weight("volume", alpha=0.5).alpha == 0.5
    assert scheme_weight("repeated-dpp").alpha == 1.0
    assert scheme_weight("repeated-dpp-cond").alpha == 1.0
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
    assert np.array_equal(d.weights, w.evaluate(b.feature_matrix(d.points)))


_FEATURE_BASES = {
    "hermite": lambda: make_basis("hermite", 4),
    "legendre": lambda: make_basis("legendre", 4),
    "pwc": lambda: make_basis("pwc", 4),
    "legendre-subclass": lambda: _SeqLegendre(4),
}


@pytest.mark.parametrize("family", sorted(_FEATURE_BASES))
@pytest.mark.parametrize("scheme, alpha", [(s, 1.0) for s in SCHEMES]
                         + [("volume", 0.3)])
def test_design_features_are_its_feature_rows(family, scheme, alpha):
    """The rows a sampler carries are phi at the design's points, bit for
    bit: the blocks, the cut to n and the volume permutation keep each
    row with its point."""
    b = _FEATURE_BASES[family]()
    d = draw_design(scheme, b, 10, replicate_stream(79, len(family)),
                    alpha=alpha)
    assert np.array_equal(d.features, b.feature_matrix(d.points))
    assert np.array_equal(d.weights,
                          scheme_weight(scheme, alpha).evaluate(d.features))


def test_design_rejects_features_without_one_row_per_point():
    pts = np.array([0.1, 0.2, 0.3])
    phi = make_basis("legendre", 2).feature_matrix(pts)
    with pytest.raises(ValidationError):
        samplers.DesignSample(pts, np.ones(3), phi[:2], "fixed")
    with pytest.raises(ValidationError):
        samplers.DesignSample(pts, np.ones(3), phi[:, 0], "fixed")


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


# ---------------------------------------------------------------------------
# block draws

@pytest.mark.parametrize("family", sorted(_FEATURE_BASES))
@pytest.mark.parametrize("scheme, alpha", [(s, 1.0) for s in SCHEMES[:4]]
                         + [("volume", 0.5)])
def test_block_rows_are_per_stream_designs(family, scheme, alpha):
    """Row i of draw_designs is draw_design on stream i, bit for bit, at
    n = m, m + 1 and 4m and in blocks of 1, 7 and 256 streams."""
    b = _FEATURE_BASES[family]()
    m = b.m
    for n in (m, m + 1, 4 * m):
        for k in (1, 7, 256):
            points, weights, phi = draw_designs(
                scheme, b, n, [replicate_stream(82, n, k, i) for i in range(k)],
                alpha=alpha)
            assert points.shape == weights.shape == (k, n)
            assert phi.shape == (k, n, m)
            for i in range(k):
                d = draw_design(scheme, b, n, replicate_stream(82, n, k, i),
                                alpha=alpha)
                assert points[i].tobytes() == d.points.tobytes()
                assert weights[i].tobytes() == d.weights.tobytes()
                assert phi[i].tobytes() == d.features.tobytes()


def test_block_failing_streams_leave_the_others(monkeypatch):
    """With four proposals per sequential step some draws fail: their
    rows are NaN and every other row is its stream's own design. A block
    in which every draw fails is all NaN."""
    monkeypatch.setattr(samplers, "DPP_PROPOSAL_BATCH", 2)
    monkeypatch.setattr(samplers, "DPP_PROPOSAL_BUDGET", 4)
    b = _SeqLegendre(4)
    points, weights, phi = draw_designs(
        "volume", b, 6, [replicate_stream(83, i) for i in range(20)])
    failed = 0
    for i in range(20):
        try:
            d = draw_design("volume", b, 6, replicate_stream(83, i))
        except SamplerFailureError:
            failed += 1
            assert np.isnan(points[i]).all() and np.isnan(weights[i]).all()
            assert np.isnan(phi[i]).all()
        else:
            assert points[i].tobytes() == d.points.tobytes()
            assert weights[i].tobytes() == d.weights.tobytes()
            assert phi[i].tobytes() == d.features.tobytes()
    assert 0 < failed < 20
    block = draw_designs("repeated-dpp", _DuplicateFeature(4), 5,
                         [replicate_stream(84, i) for i in range(3)])
    assert [a.shape for a in block] == [(3, 5), (3, 5), (3, 5, 4)]
    assert all(np.isnan(a).all() for a in block)


def test_block_rejects_conditioned_scheme():
    with pytest.raises(ValidationError):
        draw_designs("repeated-dpp-cond", make_basis("legendre", 3), 6,
                     [replicate_stream(85, 0)])
