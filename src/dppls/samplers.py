"""Random designs for weighted least squares: i.i.d. sampling from mu, from
the inverse Christoffel measure nu_m = w_m mu or from mixtures, draws of
the projection DPP gamma_m, generalized volume sampling gamma_n^nu,
repeated DPP designs, and rejection sampling conditioned on the stability
event lambda_min(G^w) >= 1 - delta.

gamma_m has two samplers. For exactly the shipped bases (HermiteBasis,
LegendreBasis, PiecewiseConstantBasis) it is a beta = 2 orthogonal
polynomial ensemble, or one uniform point per cell, and is drawn exactly
from its random tridiagonal matrix model. Every other basis, subclasses
included, goes through the sequential sampler, whose conditional densities
are tabulated on a grid and so are grid-approximate.
"""

import math

import numpy as np
from dataclasses import dataclass, replace
from scipy.linalg import eigvalsh_tridiagonal

from .bases import (HermiteBasis, LegendreBasis, PiecewiseConstantBasis,
                    empty_rotation, extend_rotation)
from .errors import (ConditioningFailureError, DegeneratePointError,
                     EmptyDesignError, SamplerFailureError,
                     UnderdeterminedDesignError, ValidationError)
from .measures import GridDensitySampler, build_density_sampler, refined_grid

# mass tolerance for the data-dependent DPP conditional densities; looser
# than the 1e-8 used for static densities because the integrand changes at
# every step
CONDITIONAL_MASS_TOL = 1e-6
STATIC_MASS_TOL = 1e-8
MAX_LOCAL_RESAMPLES = 16


# ---------------------------------------------------------------------------
# weight functions

class WeightFunction:
    """Weight w in the least-squares functional; the sampling measure is
    nu = w mu."""

    kind = "abstract"

    def evaluate(self, basis, xs):
        raise NotImplementedError


class UnitWeight(WeightFunction):
    """w = 1: plain i.i.d. sampling from mu."""

    kind = "unit"

    def evaluate(self, basis, xs):
        return np.ones(np.atleast_1d(np.asarray(xs, dtype=float)).size)


class ChristoffelWeight(WeightFunction):
    """w = w_m: the optimal sampling density nu_m = w_m mu."""

    kind = "christoffel"

    def evaluate(self, basis, xs):
        return basis.christoffel(xs)


class MixtureWeight(WeightFunction):
    """w = alpha w_m + (1 - alpha): the mixture alpha nu_m + (1 - alpha) mu."""

    kind = "mixture"

    def __init__(self, alpha):
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValidationError(f"mixture weight needs alpha in (0, 1], got {alpha}")
        self.alpha = alpha

    def evaluate(self, basis, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return self.alpha * basis.christoffel(xs) + (1.0 - self.alpha)


def make_weight(kind, alpha=1.0):
    """Weight function by name; 'christoffel' with alpha < 1 becomes the
    mixture alpha nu_m + (1 - alpha) mu."""
    if kind == "unit":
        return UnitWeight()
    if kind == "christoffel":
        if alpha < 1.0:
            return MixtureWeight(alpha)
        return ChristoffelWeight()
    if kind == "mixture":
        return MixtureWeight(alpha)
    raise ValidationError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# design container

@dataclass(frozen=True)
class DesignSample:
    """An ordered design x_1..x_n with the weight values w(x_i), the
    sampler that produced it, the integer seed when one was supplied, and
    the number of rejection attempts consumed."""

    points: np.ndarray
    weights: np.ndarray
    sampler_id: str
    seed: object = None
    attempts: int = 1

    def __post_init__(self):
        if len(self.points) < 1:
            raise EmptyDesignError("a design needs at least one point")
        if len(self.points) != len(self.weights):
            raise ValidationError("points and weights lengths differ")

    @property
    def n(self):
        return len(self.points)


def as_rng(rng):
    """Accept either an integer seed or a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


def replicate_stream(seed, replicate, *key):
    """Independent RNG stream for one Monte Carlo replicate, derived
    deterministically from (seed, replicate index) so that results do not
    depend on how replicates are scheduled across workers. Extra integer
    key parts decorrelate streams across experiment cells sharing a
    seed."""
    spawn = (int(replicate),) + tuple(int(k) for k in key)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn)
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# per-basis tabulation shared by the Christoffel and DPP samplers

class _Tabulation:
    """Fixed grid with per-cell Gauss points, feature values and feature
    norms, precomputed once per basis. Conditional DPP densities are then
    tabulated with one matrix-vector product per step."""

    def __init__(self, basis):
        m = basis.m
        measure = basis.measure
        support = measure.effective_support(m)
        breaks = basis.cell_edges() if isinstance(basis, PiecewiseConstantBasis) else None
        # refine against w_m so regions carrying Christoffel mass get
        # resolution; conditional densities live under the same envelope
        self.nodes, _ = refined_grid(basis.christoffel, measure,
                                     support=support, breakpoints=breaks)
        lo, hi = self.nodes[:-1], self.nodes[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        from .measures import _GL_W, _GL_X  # same cell rule as the grid builder
        gx = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        gw = (np.broadcast_to(_GL_W, (half.size, _GL_W.size)) * half[:, None]).ravel()
        self.gauss_x = gx
        self.gauss_w = gw * measure.density(gx)
        self.feat = basis.feature_matrix(gx)
        self.norms2 = (self.feat * self.feat).sum(axis=1)
        self._n_cells = half.size

    def cell_masses(self, values):
        """Integrate a density (tabulated at the Gauss points) per cell."""
        return (values * self.gauss_w).reshape(self._n_cells, 4).sum(axis=1)


def _tabulation(basis):
    tab = getattr(basis, "_dppls_tab", None)
    if tab is None:
        tab = _Tabulation(basis)
        basis._dppls_tab = tab
    return tab


def _feature_samplers(basis):
    """One GridDensitySampler per density phi_i^2 mu (lazy, cached)."""
    samplers = getattr(basis, "_dppls_feature_samplers", None)
    if samplers is None:
        support = basis.measure.effective_support(basis.m)
        breaks = basis.cell_edges() if isinstance(basis, PiecewiseConstantBasis) else None
        samplers = []
        for i in range(basis.m):
            g = _FeatureSquared(basis, i)
            samplers.append(build_density_sampler(
                g, basis.measure, STATIC_MASS_TOL,
                support=support, breakpoints=breaks))
        basis._dppls_feature_samplers = samplers
    return samplers


class _FeatureSquared:
    """phi_i(x)^2 as a plain callable (picklable, unlike a lambda)."""

    def __init__(self, basis, i):
        self.basis = basis
        self.i = i

    def __call__(self, x):
        return self.basis.feature_matrix(np.asarray(x, dtype=float))[:, self.i] ** 2


# ---------------------------------------------------------------------------
# samplers

def sample_christoffel(basis, rng):
    """One draw from nu_m = w_m mu, realized as the uniform mixture of the
    densities phi_i^2 mu: pick a feature index uniformly, then invert the
    CDF of that single density."""
    gen, _ = as_rng(rng)
    samplers = _feature_samplers(basis)
    i = int(gen.integers(basis.m))
    return samplers[i].sample(gen)


def sample_mixture_point(w, basis, rng):
    """Bernoulli(alpha) branch between nu_m and mu."""
    if w.kind != "mixture":
        raise ValidationError("sample_mixture_point needs a Mixture weight")
    gen, _ = as_rng(rng)
    if gen.random() < w.alpha:
        return sample_christoffel(basis, gen)
    return float(basis.measure.sample(gen, 1)[0])


def _sample_from_weight(w, basis, rng):
    """One draw from nu = w mu."""
    if w.kind == "unit":
        return float(basis.measure.sample(rng, 1)[0])
    if w.kind == "christoffel":
        return sample_christoffel(basis, rng)
    return sample_mixture_point(w, basis, rng)


def _hermite_ensemble(basis, gen):
    """Eigenvalues of the beta = 2 Hermite matrix model (Dumitriu and
    Edelman 2002): diagonal i.i.d. N(0, 1), off-diagonal sqrt(chi^2_{2k}/2)
    for k = m-1, ..., 1. Their law is gamma_m for weight exp(-x^2/2)."""
    m = basis.m
    diag = gen.standard_normal(m)
    # chi^2_{2k} / 2 is Gamma(k, 1)
    off = np.sqrt(gen.standard_gamma(np.arange(m - 1, 0, -1, dtype=float)))
    return eigvalsh_tridiagonal(diag, off)


def _legendre_ensemble(basis, gen):
    """Eigenvalues of the Killip-Nenciu Jacobi matrix model (IMRN 2004,
    Theorem 2) at beta = 2, a = b = 0, mapped from [-2, 2] onto the
    measure's interval. Their law is gamma_m for the uniform weight."""
    m = basis.m
    k = np.arange(2 * m - 1, dtype=float)
    even = k % 2 == 0
    s = np.where(even, m - k / 2, (2 * m - k + 1) / 2)
    t = np.where(even, m - k / 2, (2 * m - k - 1) / 2)
    # alpha_i sits at index i + 2 for i = -2..2m-1; alpha_{-2} only ever
    # multiplies 1 + alpha_{-1} = 0
    alpha = np.zeros(2 * m + 2)
    alpha[1] = alpha[-1] = -1.0
    alpha[2:-1] = 2.0 * gen.beta(t, s) - 1.0
    odd = alpha[1::2]            # alpha_{2j-1}, j = 0..m
    cur = alpha[2::2]            # alpha_{2j},   j = 0..m-1
    prev = alpha[0:-2:2]         # alpha_{2j-2}, j = 0..m-1
    diag = (1.0 - odd[:-1]) * cur - (1.0 + odd[:-1]) * prev
    off = np.sqrt((1.0 - odd[:-2]) * (1.0 - cur[:-1] ** 2) * (1.0 + odd[1:-1]))
    eig = 0.5 * eigvalsh_tridiagonal(diag, off)
    a, b = basis.measure.a, basis.measure.b
    return np.clip(0.5 * (a + b) + 0.5 * (b - a) * eig, a, b)


def _pwc_ensemble(basis, gen):
    """One uniform point in each of the m cells."""
    m = basis.m
    a, b = basis.measure.a, basis.measure.b
    return a + (b - a) * (np.arange(m) + gen.random(m)) / m


# matched on the exact type: a subclass may change the features, and with
# them the law, so it keeps the sequential sampler
_EXACT_DPP = {
    HermiteBasis: _hermite_ensemble,
    LegendreBasis: _legendre_ensemble,
    PiecewiseConstantBasis: _pwc_ensemble,
}


def sample_dpp(basis, rng):
    """Draw of m points from the projection DPP gamma_m.

    For exactly HermiteBasis, LegendreBasis and PiecewiseConstantBasis the
    draw is exact: the eigenvalues of the family's random tridiagonal
    matrix model (one uniform point per cell for piecewise constants), in
    a uniformly random order. Any other basis, subclasses included, uses
    the grid-approximate sequential sampler `_sample_dpp_sequential`.
    """
    ensemble = _EXACT_DPP.get(type(basis))
    if ensemble is None:
        return _sample_dpp_sequential(basis, rng)
    gen, seed = as_rng(rng)
    # the eigenvalues come out sorted; repeated designs keep a prefix
    pts = ensemble(basis, gen)[gen.permutation(basis.m)]
    return DesignSample(pts, basis.christoffel(pts), "dpp", seed)


def _sample_dpp_sequential(basis, rng):
    """Draw of m points from the projection DPP gamma_m for any basis.

    Sequential factorization: x_1 ~ nu_m, then x_k follows the conditional
    density p_k(x) = ||phi(x) - P_{W_{k-1}} phi(x)||^2 / (m - k + 1) w.r.t.
    mu, where W_{k-1} is the span of the features of the previous points.
    The running residual is updated with one rotated basis vector per step.
    Each conditional is sampled through its tabulation on a fixed grid, so
    the draw is exact only up to that grid's resolution.
    """
    gen, seed = as_rng(rng)
    m = basis.m
    tab = _tabulation(basis)

    x1 = sample_christoffel(basis, gen)
    state = extend_rotation(empty_rotation(m), basis, x1)
    points = [x1]
    resid2 = np.maximum(tab.norms2 - (tab.feat @ state.vectors[0]) ** 2, 0.0)

    for k in range(2, m + 1):
        masses = tab.cell_masses(resid2) / (m - k + 1)
        step = GridDensitySampler(tab.nodes, masses, CONDITIONAL_MASS_TOL)
        for _ in range(MAX_LOCAL_RESAMPLES):
            x = step.sample(gen)
            try:
                state = extend_rotation(state, basis, x)
            except DegeneratePointError:
                continue
            break
        else:
            raise SamplerFailureError(
                f"{MAX_LOCAL_RESAMPLES} consecutive degenerate points at step {k}")
        points.append(x)
        resid2 = np.maximum(resid2 - (tab.feat @ state.vectors[-1]) ** 2, 0.0)

    pts = np.asarray(points)
    return DesignSample(pts, basis.christoffel(pts), "dpp", seed)


def sample_volume(basis, w, n, rng):
    """Exact draw from the generalized volume distribution gamma_n^nu with
    nu = w mu: one gamma_m draw, n - m i.i.d. draws from nu, and a uniform
    random permutation of the concatenation. With w = w_m this is the
    volume-rescaled distribution gamma_n^{nu_m}."""
    gen, seed = as_rng(rng)
    m = basis.m
    if n < m:
        raise UnderdeterminedDesignError(f"volume sampling needs n >= m, got n={n}, m={m}")
    core = sample_dpp(basis, gen).points
    extra = np.array([_sample_from_weight(w, basis, gen) for _ in range(n - m)])
    pts = np.concatenate((core, extra))[gen.permutation(n)]
    return DesignSample(pts, w.evaluate(basis, pts), "volume", seed)


def sample_repeated_dpp(basis, n, rng):
    """ceil(n/m) independent gamma_m draws, keeping the first n points;
    weights are taken from w_m."""
    gen, seed = as_rng(rng)
    if n < 1:
        raise EmptyDesignError("need n >= 1")
    m = basis.m
    r = math.ceil(n / m)
    pts = np.concatenate([sample_dpp(basis, gen).points for _ in range(r)])[:n]
    return DesignSample(pts, basis.christoffel(pts), "repeated-dpp", seed)


def sample_conditioned(inner, basis, w, delta, max_attempts=1000, rng=None):
    """Redraw whole designs from `inner` until the stability event
    lambda_min(G^w) >= 1 - delta holds; the attempt count is recorded on
    the returned sample.

    `inner` is a callable rng -> DesignSample. On exhaustion a
    ConditioningFailureError carrying the best lambda_min is raised.
    """
    from .lsq import empirical_gram  # local import, lsq depends on this module

    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    gen, seed = as_rng(rng)
    best = -np.inf
    for attempt in range(1, int(max_attempts) + 1):
        design = inner(gen)
        lam = empirical_gram(design, basis, weight=w).lambda_min
        if lam >= 1.0 - delta:
            return replace(design, sampler_id=design.sampler_id + "-cond",
                           seed=seed if seed is not None else design.seed,
                           attempts=attempt)
        best = max(best, lam)
    raise ConditioningFailureError(max_attempts, best)


SCHEMES = ("iid-mu", "iid-christoffel", "volume", "repeated-dpp", "repeated-dpp-cond")


def canonical_scheme(scheme):
    """Map the 'volume-rescaled' alias onto the canonical 'volume' id."""
    return "volume" if scheme == "volume-rescaled" else scheme


def scheme_weight(scheme, alpha=1.0):
    """The weight function each sampling scheme pairs with."""
    if scheme == "iid-mu":
        return UnitWeight()
    if scheme in ("iid-christoffel", "repeated-dpp", "repeated-dpp-cond"):
        return ChristoffelWeight()
    if scheme == "volume":
        return make_weight("christoffel", alpha)
    raise ValidationError(f"unknown scheme {scheme!r}")


def draw_design(scheme, basis, n, rng, *, alpha=1.0, delta=0.75,
                max_attempts=1000):
    """Draw one design under a named scheme.

    Schemes: 'iid-mu', 'iid-christoffel', 'volume' (alias
    'volume-rescaled'), 'repeated-dpp', 'repeated-dpp-cond'. Passing an
    integer for `rng` seeds a fresh stream and records it on the sample,
    so the same call regenerates the design bit for bit.
    """
    if scheme == "volume-rescaled":
        scheme = "volume"
    gen, seed = as_rng(rng)
    if n < 1:
        raise EmptyDesignError("need n >= 1")

    if scheme == "iid-mu":
        pts = basis.measure.sample(gen, n)
        design = DesignSample(pts, np.ones(n), "iid-mu", seed)
    elif scheme == "iid-christoffel":
        pts = np.array([sample_christoffel(basis, gen) for _ in range(n)])
        design = DesignSample(pts, basis.christoffel(pts), "iid-christoffel", seed)
    elif scheme == "volume":
        w = scheme_weight("volume", alpha)
        design = replace(sample_volume(basis, w, n, gen), seed=seed)
    elif scheme == "repeated-dpp":
        design = replace(sample_repeated_dpp(basis, n, gen), seed=seed)
    elif scheme == "repeated-dpp-cond":
        w = ChristoffelWeight()
        design = sample_conditioned(
            lambda g: sample_repeated_dpp(basis, n, g), basis, w,
            delta, max_attempts, gen)
        design = replace(design, sampler_id="repeated-dpp-cond", seed=seed)
    else:
        raise ValidationError(f"unknown scheme {scheme!r}")
    return design
