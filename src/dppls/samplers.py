"""Random designs for weighted least squares: i.i.d. sampling from mu, from
the inverse Christoffel measure nu_m = w_m mu or from mixtures, draws of
the projection DPP gamma_m, generalized volume sampling gamma_n^nu,
repeated DPP designs, and rejection sampling conditioned on the stability
event lambda_min(G^w) >= 1 - delta.

nu_m is drawn through one inverse CDF per basis, tabulated on a refined
grid and built once: a design's i.i.d. nu_m points come from one batched
call, with one uniform per point. The same sampler serves i.i.d.
Christoffel designs, the extra points of volume designs, the nu_m branch
of mixtures and the proposals of the sequential DPP sampler.

gamma_m has two samplers. For exactly the shipped bases (HermiteBasis,
LegendreBasis, PiecewiseConstantBasis) it is a beta = 2 orthogonal
polynomial ensemble, or one uniform point per cell, and is drawn exactly
from its random tridiagonal matrix model. Every other basis, subclasses
included, goes through the sequential sampler, which draws each
conditional by rejection from nu_m and so is exact up to the nu_m
tabulation.
"""

import math

import numpy as np
from dataclasses import dataclass, replace

from .bases import (HermiteBasis, LegendreBasis, PiecewiseConstantBasis,
                    empty_rotation, extend_rotation)
from .errors import (ConditioningFailureError, DegeneratePointError,
                     EmptyDesignError, SamplerFailureError,
                     UnderdeterminedDesignError, ValidationError)
# GridDensitySampler and refined_grid are unused here but stay importable:
# the benchmark's tracer wraps them, with build_density_sampler, under this
# module
from .measures import (GridDensitySampler, build_density_sampler,  # noqa: F401
                       refined_grid)

STATIC_MASS_TOL = 1e-8
# nu_m proposals per batch and per step of the sequential DPP sampler; step
# k accepts a proposal with probability (m - k + 1) / m, so the last step
# of an m-point draw exhausts the budget with probability about
# exp(-budget / m)
DPP_PROPOSAL_BATCH = 32
DPP_PROPOSAL_BUDGET = 1 << 14


# ---------------------------------------------------------------------------
# weight functions

class Weight:
    """w = alpha w_m + (1 - alpha) in the least-squares functional, alpha
    in [0, 1]; the sampling measure nu = w mu is the mixture
    alpha nu_m + (1 - alpha) mu. alpha = 1 is the optimal density nu_m and
    alpha = 0 is mu itself."""

    def __init__(self, alpha):
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"weight needs alpha in [0, 1], got {alpha}")
        self.alpha = alpha

    def evaluate(self, basis, xs):
        """w at the points; alpha = 0 evaluates no features."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self.alpha == 0.0:
            return np.ones(xs.size)
        if self.alpha == 1.0:
            return basis.christoffel(xs)
        return self.alpha * basis.christoffel(xs) + (1.0 - self.alpha)


def make_weight(kind, alpha=1.0):
    """Weight by name: 'unit' is w = 1; 'christoffel' and 'mixture' are
    alpha w_m + (1 - alpha) with alpha in (0, 1]."""
    if kind == "unit":
        return Weight(0.0)
    if kind not in ("christoffel", "mixture"):
        raise ValidationError(f"unknown weight kind {kind!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"{kind} weight needs alpha in (0, 1], got {alpha}")
    return Weight(alpha)


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
# per-basis nu_m sampler shared by the Christoffel and DPP samplers

def _nu_sampler(basis):
    """The inverse-CDF sampler of nu_m = w_m mu, built once per basis on a
    grid refined against w_m."""
    nu = getattr(basis, "_dppls_nu", None)
    if nu is None:
        breaks = basis.cell_edges() if isinstance(basis, PiecewiseConstantBasis) else None
        nu = build_density_sampler(basis.christoffel, basis.measure, STATIC_MASS_TOL,
                                   support=basis.measure.effective_support(basis.m),
                                   breakpoints=breaks)
        basis._dppls_nu = nu
    return nu


# ---------------------------------------------------------------------------
# samplers

def sample_christoffel(basis, rng, n=None):
    """Draws from nu_m = w_m mu through the basis's one tabulated inverse
    CDF: a float when n is None, else an array of n draws. Each draw takes
    one uniform, so n single draws from a stream equal one n-draw."""
    gen, _ = as_rng(rng)
    return _nu_sampler(basis).sample(gen, n)


def _sample_from_weight(w, basis, gen, n):
    """n i.i.d. draws from nu = w mu. A mixture, 0 < alpha < 1, takes n
    branch uniforms, then draws its nu_m block and its mu block."""
    if n == 0:
        return np.empty(0)
    if w.alpha == 0.0:
        return basis.measure.sample(gen, n)
    if w.alpha == 1.0:
        return sample_christoffel(basis, gen, n)
    pick = gen.random(n) < w.alpha
    k = int(pick.sum())
    pts = np.empty(n)
    pts[pick] = _sample_from_weight(Weight(1.0), basis, gen, k)
    pts[~pick] = _sample_from_weight(Weight(0.0), basis, gen, n - k)
    return pts


def _tridiagonal_eigvalsh(diag, off):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with this
    diagonal and off-diagonal, by LAPACK dsyevd on the dense lower
    triangle. Its reduction leaves a tridiagonal matrix as it is, so it
    runs dsterf on the input itself, in numpy and without scipy."""
    m = diag.size
    a = np.zeros((m, m))
    a.flat[::m + 1] = diag
    a.flat[m::m + 1] = off
    return np.linalg.eigvalsh(a)


def _hermite_ensemble(basis, gen):
    """Eigenvalues of the beta = 2 Hermite matrix model (Dumitriu and
    Edelman 2002): diagonal i.i.d. N(0, 1), off-diagonal sqrt(chi^2_{2k}/2)
    for k = m-1, ..., 1. Their law is gamma_m for weight exp(-x^2/2)."""
    m = basis.m
    diag = gen.standard_normal(m)
    # chi^2_{2k} / 2 is Gamma(k, 1)
    off = np.sqrt(gen.standard_gamma(np.arange(m - 1, 0, -1, dtype=float)))
    return _tridiagonal_eigvalsh(diag, off)


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
    eig = 0.5 * _tridiagonal_eigvalsh(diag, off)
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
    the sequential sampler `_sample_dpp_sequential`, which draws by
    rejection from nu_m and is exact up to the nu_m tabulation.
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

    Chain rule: x_k follows the density
    p_k(x) = ||phi(x) - P_{W_{k-1}} phi(x)||^2 / (m - k + 1) w.r.t. mu,
    where W_{k-1} is the span of the features of the previous points.
    p_k is at most m / (m - k + 1) times the density of nu_m, so x_k is
    drawn by rejection: nu_m proposals, accepted with probability
    ||phi(x) - P_{W_{k-1}} phi(x)||^2 / ||phi(x)||^2, about m H_m proposals
    per draw. The draw is exact up to the nu_m tabulation. A step that
    accepts no point within DPP_PROPOSAL_BUDGET proposals raises
    SamplerFailureError.
    """
    gen, seed = as_rng(rng)
    state = empty_rotation(basis.m)
    points = []
    for _ in range(basis.m):
        x, state = _next_dpp_point(basis, state, gen)
        points.append(x)
    pts = np.asarray(points)
    return DesignSample(pts, basis.christoffel(pts), "dpp", seed)


def _next_dpp_point(basis, state, gen):
    """One chain-rule step: the accepted point and the frame extended by
    it. A point whose feature residual collapses is passed over."""
    nu = _nu_sampler(basis)
    for _ in range(DPP_PROPOSAL_BUDGET // DPP_PROPOSAL_BATCH):
        xs = nu.sample(gen, DPP_PROPOSAL_BATCH)
        u = gen.random(DPP_PROPOSAL_BATCH)
        phi = basis.feature_matrix(xs)
        norms2 = (phi * phi).sum(axis=1)
        proj = phi @ state.vectors.T
        resid2 = norms2 - (proj * proj).sum(axis=1)
        for x in xs[u * norms2 < resid2].tolist():
            try:
                return x, extend_rotation(state, basis, x)
            except DegeneratePointError:
                pass
    raise SamplerFailureError(
        f"no point accepted in {DPP_PROPOSAL_BUDGET} proposals at step {state.k + 1}")


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
    extra = _sample_from_weight(w, basis, gen, n - m)
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


def sample_conditioned(inner, basis, delta, max_attempts=1000, rng=None):
    """Redraw whole designs from `inner` until the stability event
    lambda_min(G^w) >= 1 - delta holds, with w the weights each design
    carries; the attempt count is recorded on the returned sample.

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
        lam = empirical_gram(design, basis).lambda_min
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
        return Weight(0.0)
    if scheme in ("iid-christoffel", "repeated-dpp", "repeated-dpp-cond"):
        return Weight(1.0)
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
    scheme = canonical_scheme(scheme)
    gen, seed = as_rng(rng)
    if n < 1:
        raise EmptyDesignError("need n >= 1")

    if scheme in ("iid-mu", "iid-christoffel"):
        w = scheme_weight(scheme)
        pts = _sample_from_weight(w, basis, gen, n)
        design = DesignSample(pts, w.evaluate(basis, pts), scheme, seed)
    elif scheme == "volume":
        w = scheme_weight("volume", alpha)
        design = replace(sample_volume(basis, w, n, gen), seed=seed)
    elif scheme == "repeated-dpp":
        design = replace(sample_repeated_dpp(basis, n, gen), seed=seed)
    elif scheme == "repeated-dpp-cond":
        design = sample_conditioned(
            lambda g: sample_repeated_dpp(basis, n, g), basis,
            delta, max_attempts, gen)
        design = replace(design, sampler_id="repeated-dpp-cond", seed=seed)
    else:
        raise ValidationError(f"unknown scheme {scheme!r}")
    return design
