"""Reference measures, their quadrature rules, and the grid inverse-CDF
sampler."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from dppls import measures
from dppls.bases import make_basis
from dppls.errors import (EmptyDesignError, NegativeDensityError,
                          NotADensityError, QuadratureAccuracyError,
                          UnsupportedOrderError)
from dppls.measures import (DEFAULT_MAX_QUAD_ORDER, GridDensitySampler,
                            ReferenceMeasure, StandardGaussian,
                            UniformInterval, build_density_sampler,
                            max_quad_order)
from dppls.samplers import _nu_sampler

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
# quadrature rules

def test_gaussian_has_no_gauss_rule():
    """The Gaussian measure's only rule is the trapezoid rule."""
    assert StandardGaussian.gauss_quadrature is ReferenceMeasure.gauss_quadrature
    with pytest.raises(NotImplementedError):
        GAUSSIAN.gauss_quadrature(2)


def test_uniform_second_moment_exact():
    rule = UNIFORM.gauss_quadrature(2)
    assert rule.integrate(lambda x: x * x) == pytest.approx(1.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5, 12, 40])
def test_rule_weights_sum_to_one(order):
    rule = UNIFORM.gauss_quadrature(order)
    assert abs(rule.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("order", [2, 5, 9])
def test_monomial_exactness_up_to_degree(order):
    """Gauss rules integrate x^k exactly for k <= 2*order - 1.

    Odd moments vanish by cancellation of terms as large as sum w|x|^k,
    so the tolerance scales with that magnitude, not with the result.
    """
    rule = UNIFORM.gauss_quadrature(order)
    for k in range(2 * order):
        got = rule.integrate(lambda x, k=k: x ** k)
        scale = rule.integrate(lambda x, k=k: np.abs(x) ** k)
        moment = 0.0 if k % 2 else 1.0 / (k + 1)
        assert got == pytest.approx(moment, abs=1e-13 * scale + 1e-13)


@pytest.mark.parametrize("order", [31, 64, 128], ids=lambda q: f"legendre-{q}")
def test_weights_accurate_relative_to_themselves(order):
    """Every Gauss node matches a 40-digit reference to 1e-12, and every
    weight, tail weights far below the largest included, to a relative
    1e-10.

    mpmath's rule is for dx on [-1, 1]; the probability version halves its
    weights.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xs, ws = mpmath.gauss_quadrature(order, "legendre")
        want_x = np.array([float(x) for x in xs])
        want_w = np.array([float(w / 2) for w in ws])
    order_by = np.argsort(want_x)
    rule = UNIFORM.gauss_quadrature(order)
    assert rule.nodes == pytest.approx(want_x[order_by], abs=1e-12)
    assert rule.weights == pytest.approx(want_w[order_by], rel=1e-10, abs=0)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 31, 64, 65, 128, 1024, 2048],
                         ids=lambda q: f"legendre-{q}")
def test_nodes_are_the_jacobi_eigenvalues(order, quad_cap_2048):
    """The Newton nodes are the Jacobi matrix's eigenvalues as LAPACK's
    'sterf' and 'stemr' compute them, to 1e-12 of the largest node."""
    from scipy.linalg import eigvalsh_tridiagonal
    nodes = UNIFORM.gauss_quadrature(order).nodes
    k = np.arange(1, order, dtype=float)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    for driver in ("sterf", "stemr"):
        want = eigvalsh_tridiagonal(np.zeros(order), off, lapack_driver=driver)
        assert np.abs(nodes - want).max() <= 1e-12 * np.abs(want).max(), driver


def test_unsettled_newton_raises_and_error_cell_fails(monkeypatch, tmp_path,
                                                      quad_cap_2048):
    """With one Newton step allowed no rule of order >= 2 settles: building
    one raises QuadratureAccuracyError, and an error-table cell on the
    Legendre basis, whose evaluator certifies on Gauss rules, writes its
    row with best at NaN and every replicate counted as failed."""
    from dppls import cli, experiments
    monkeypatch.setattr(measures, "NEWTON_ITERATIONS", 1)
    monkeypatch.setattr(experiments, "_evaluator_cache", {})
    measures._gauss_legendre.cache_clear()
    for order in (2, 64):
        with pytest.raises(QuadratureAccuracyError):
            UNIFORM.gauss_quadrature(order)
    out = tmp_path / "t.csv"
    schemes = ["iid-mu", "volume"]
    assert cli.main(["error-table", "--basis", "legendre", "--scheme", *schemes,
                     "--m", "10", "--n", "20", "--replicates", "3",
                     "--workers", "1", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["best"] == "nan"
    assert [row[f"{s}_failures"] for s in schemes] == ["3", "3"]


def test_grid_cell_rule_is_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(4)
    assert measures._GL_X.tobytes() == x.tobytes()
    assert measures._GL_W.tobytes() == w.tobytes()


def test_high_order_weights_are_a_probability_vector(monkeypatch):
    monkeypatch.setenv("DPPLS_MAX_QUAD_ORDER", "2048")
    w = UNIFORM.gauss_quadrature(2048).weights
    assert np.all(np.isfinite(w))
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("m, h", [(1, 0.5), (10, 0.0625), (50, 0.125)])
def test_trapezoid_rule_is_the_step_times_the_density(m, h):
    """Nodes jh out to the effective support plus the margin, weights h
    times the density, order the node count; the weights sum to 1 to
    spectral accuracy."""
    rule = GAUSSIAN.trapezoid_rule(h, m)
    half = GAUSSIAN.effective_support(m)[1] + measures.TRAPEZOID_MARGIN
    assert rule.order == rule.nodes.size and rule.order % 2 == 1
    assert np.array_equal(rule.nodes,
                          h * (np.arange(rule.order) - rule.order // 2))
    assert rule.nodes[-1] <= half < rule.nodes[-1] + h
    assert np.array_equal(rule.weights, h * GAUSSIAN.density(rule.nodes))
    assert abs(rule.weights.sum() - 1.0) < 1e-14


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
    sampler = build_density_sampler(lambda x: np.ones_like(x), UNIFORM)
    rng = np.random.default_rng(11)
    xs = np.array([sampler.sample(rng) for _ in range(10_000)])
    stat = kstest(xs, oracles.uniform_cdf).statistic
    assert stat < 0.02


def test_cubic_density_matches_closed_form_cdf():
    sampler = build_density_sampler(lambda x: 3.0 * np.asarray(x) ** 2, UNIFORM)
    rng = np.random.default_rng(12)
    xs = np.array([sampler.sample(rng) for _ in range(10_000)])
    stat = kstest(xs, lambda q: (np.asarray(q) ** 3 + 1.0) / 2.0).statistic
    assert stat < 0.02


def test_negative_density_rejected():
    with pytest.raises(NegativeDensityError):
        build_density_sampler(lambda x: -np.ones_like(x), UNIFORM)


def test_wrong_mass_rejected():
    with pytest.raises(NotADensityError):
        build_density_sampler(lambda x: 2.0 * np.ones_like(x), UNIFORM)


def test_flat_density_indistinguishable_from_iid():
    """Two-sample KS between the grid sampler with g = 1 and direct
    i.i.d. draws, at the 0.1% level."""
    sampler = build_density_sampler(lambda x: np.ones_like(x), UNIFORM)
    rng = np.random.default_rng(13)
    grid_draws = np.array([sampler.sample(rng) for _ in range(10_000)])
    direct = UNIFORM.sample(np.random.default_rng(14), 10_000)
    assert ks_2samp(grid_draws, direct).pvalue > 0.001


def test_refined_grid_nodes_are_np_unique_of_the_merged_nodes():
    """The pwc breakpoints fall on grid nodes, so the merge repeats them;
    the sort-and-mask dedup keeps what np.unique keeps."""
    basis = make_basis("pwc", 8)
    rng = np.random.default_rng(15)
    x = np.concatenate((np.linspace(0.0, 1.0, 2049), basis.cell_edges(),
                        rng.random(100), [-0.0, 0.0]))
    assert np.array_equal(measures._sorted_distinct(x), np.unique(x))
    nodes, _ = measures.refined_grid(basis.christoffel, basis.measure,
                                     breakpoints=basis.cell_edges())
    assert np.all(np.diff(nodes) > 0)


def test_grid_sampler_deterministic():
    sampler = build_density_sampler(lambda x: np.ones_like(x), UNIFORM)
    a = [sampler.sample(np.random.default_rng(5)) for _ in range(20)]
    b = [sampler.sample(np.random.default_rng(5)) for _ in range(20)]
    assert a == b


def test_gaussian_grid_sampler_cdf_accessible():
    """The sampler's tabulated CDF agrees at its nodes with the target CDF
    it was built from."""
    sampler = build_density_sampler(lambda x: np.ones_like(x), GAUSSIAN)
    want = oracles.gaussian_cdf(sampler.nodes)
    assert np.allclose(sampler.cum, want, atol=1e-6)


def _scipy_inverse(sampler):
    """The sampler's inverse CDF as scipy builds it: one PchipInterpolator
    per run of positive-mass cells, joined into one PPoly and clipped to
    the grid."""
    from scipy.interpolate import PchipInterpolator, PPoly

    cum, nodes = sampler.cum, sampler.nodes
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.diff(cum) > 0, [0]))))
    runs = [PchipInterpolator(cum[a:b + 1], nodes[a:b + 1])
            for a, b in zip(edges[::2], edges[1::2])]
    inverse = PPoly(np.concatenate([r.c for r in runs], axis=1),
                    np.concatenate([runs[0].x] + [r.x[1:] for r in runs[1:]]),
                    extrapolate=False)
    return lambda u: np.clip(inverse(u), nodes[0], nodes[-1]), len(runs)


class _GivenUniforms:
    """Stands in for a Generator whose uniforms are fixed in advance."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def _gapped_sampler():
    """Uniform density on three separate intervals of [-1, 1]."""
    def g(x):
        x = np.asarray(x)
        return 2.0 * ((x < -0.9) | (np.abs(x) < 0.2) | (x > 0.5))
    return build_density_sampler(g, UNIFORM,
                                 breakpoints=(-0.9, -0.2, 0.2, 0.5))


def _single_cell_runs_sampler():
    """Masses spread over six decades, with isolated positive cells, so
    that some runs have two knots and the end-slope guards fire."""
    masses = np.random.default_rng(90).lognormal(sigma=3.0, size=40)
    masses[[0, 2, 3, 7, 9, 20, 22, 39]] = 0.0
    return GridDensitySampler(np.linspace(-1.0, 1.0, 41), masses / masses.sum())


@pytest.mark.parametrize("build, min_runs", [
    (lambda: _nu_sampler(make_basis("hermite", 10)), 1),
    (lambda: _nu_sampler(make_basis("hermite", 50)), 1),
    (lambda: _nu_sampler(make_basis("legendre", 20)), 1),
    (lambda: _nu_sampler(make_basis("pwc", 7)), 1),
    (_gapped_sampler, 3),
    (_single_cell_runs_sampler, 5),
], ids=["hermite-10", "hermite-50", "legendre-20", "pwc-7", "gaps",
        "two-knot-runs"])
def test_inverse_cdf_matches_scipy_pchip_bit_for_bit(build, min_runs):
    """The numpy monotone cubic gives scipy's PCHIP values bit for bit at
    10^5 uniforms, at u = 0 and at every interior knot."""
    sampler = build()
    reference, runs = _scipy_inverse(sampler)
    assert runs >= min_runs
    knots = np.unique(sampler.cum[(sampler.cum > 0.0) & (sampler.cum < 1.0)])
    u = np.concatenate(([0.0], knots, np.random.default_rng(91).random(100_000)))
    got = sampler.sample(_GivenUniforms(u), u.size)
    assert got.tobytes() == reference(u).tobytes()


def test_inverse_cdf_scalar_draws_match_scipy_pchip():
    sampler = _single_cell_runs_sampler()
    reference, _ = _scipy_inverse(sampler)
    rng = np.random.default_rng(92)
    want = reference(np.random.default_rng(92).random(50))
    got = [sampler.sample(rng) for _ in range(50)]
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("build", [
    lambda: _nu_sampler(make_basis("hermite", 10)),
    lambda: _nu_sampler(make_basis("legendre", 20)),
    _gapped_sampler, _single_cell_runs_sampler,
], ids=["hermite-10", "legendre-20", "gaps", "two-knot-runs"])
def test_inverse_at_uniforms_equals_sample_on_them(build):
    """`inverse(u)` is `sample` on the same uniforms, bit for bit, and
    one call over a concatenation equals one call per part."""
    sampler = build()
    u = np.random.default_rng(93).random(1000)
    got = sampler.inverse(u)
    assert got.tobytes() == sampler.sample(_GivenUniforms(u), u.size).tobytes()
    parts = np.concatenate([sampler.inverse(p) for p in np.split(u, [1, 7, 500])])
    assert got.tobytes() == parts.tobytes()
    assert sampler.inverse(u[:0]).shape == (0,)
