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

Every sampler works in two steps. The numbers step takes one stream's
random numbers in a fixed order: per gamma_m draw the matrix model's
normals, gammas or betas (or the sequential sampler's points) and the
permutation of its eigenvalues, then the i.i.d. draws (branch uniforms,
nu_m uniforms, mu draws), then a volume design's final permutation. No
number depends on a computed value. The transform step then runs once
for any number of streams: one stacked tridiagonal eigvalsh, one nu_m
inverse over all uniforms, one feature evaluation over all points and
one weight evaluation, each a function of its own row only. So
`draw_designs` over k streams gives row by row, bit for bit, what
`draw_design` gives on each stream, and `draw_design`, `sample_dpp`,
`sample_volume` and `sample_repeated_dpp` are its k = 1 case. Every
design carries its feature rows phi(x_i), and its weights are read once
from them.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from dataclasses import dataclass

from .bases import (HermiteBasis, LegendreBasis, PiecewiseConstantBasis,
                    christoffel_rows, empty_rotation, extend_rotation)
from .errors import (ConditioningFailureError, DegeneratePointError,
                     DpplsError, EmptyDesignError, SamplerFailureError,
                     UnderdeterminedDesignError, ValidationError)
from .lsq import weighted_gram
# GridDensitySampler and refined_grid are unused here but stay importable:
# the benchmark's tracer wraps them, with build_density_sampler, under this
# module
from .measures import (GridDensitySampler, build_density_sampler,  # noqa: F401
                       refined_grid)

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

    def evaluate(self, phi):
        """w at the points whose feature rows are phi, shape (n, m);
        alpha = 0 reads only the row count."""
        if self.alpha == 0.0:
            return np.ones(len(phi))
        if self.alpha == 1.0:
            return christoffel_rows(phi)
        return self.alpha * christoffel_rows(phi) + (1.0 - self.alpha)


# ---------------------------------------------------------------------------
# design container

@dataclass(frozen=True)
class DesignSample:
    """An ordered design x_1..x_n with the weight values w(x_i), the
    feature rows phi(x_i) (shape (n, m), evaluated once by the sampler
    for the Gram matrix and the fit), the sampler that produced it, the
    integer seed when one was supplied, and the number of rejection
    attempts consumed."""

    points: np.ndarray
    weights: np.ndarray
    features: np.ndarray
    sampler_id: str
    seed: object = None
    attempts: int = 1

    def __post_init__(self):
        if len(self.points) < 1:
            raise EmptyDesignError("a design needs at least one point")
        if len(self.points) != len(self.weights):
            raise ValidationError("points and weights lengths differ")
        if np.ndim(self.features) != 2 or len(self.features) != len(self.points):
            raise ValidationError("features need one row per point")

    @property
    def n(self):
        return len(self.points)


def as_rng(rng):
    """Accept either an integer seed or a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


# ---------------------------------------------------------------------------
# replicate streams: numpy's SeedSequence hash, computed for a whole block

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value):
    """SeedSequence's uint32 words of a non-negative int, least first."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=64)
def _seed_pool(seed):
    """SeedSequence(seed, spawn_key=...)'s pool after the seed's words,
    and its hash constant there. The pool is SeedSequence(seed)'s own,
    since the spawn key's words come after the seed's. Filling the pool
    takes 4 hashmix steps, mixing it 12, and each seed word past the
    fourth 4 more."""
    pool = np.random.SeedSequence(seed).pool
    words = max(1, -(-seed.bit_length() // 32))
    steps = _POOL * _POOL + _POOL * max(0, words - _POOL)
    return pool, _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32


def _hash_constants(hc, mult, count):
    """SeedSequence's hash constant before and after each of `count`
    steps from hc, as uint32 arrays, and the constant after the last."""
    before, after = [], []
    for _ in range(count):
        before.append(hc)
        hc = hc * mult & _MASK32
        after.append(hc)
    return (np.array(before, dtype=np.uint32), np.array(after, dtype=np.uint32),
            hc)


@lru_cache(maxsize=256)
def _spawn_mixing(hc, key):
    """From hash constant hc on: the replicate word's hashmix constants,
    then per key word the (4,) row _MIX_R * hashmix(word) that enters the
    pool."""
    before, after, hc = _hash_constants(hc, _MULT_A, _POOL)
    key_rows = []
    for word in (w for k in key for w in _uint32_words(k)):
        pre, post, hc = _hash_constants(hc, _MULT_A, _POOL)
        h = (np.uint32(word) ^ pre) * post
        key_rows.append((h ^ (h >> np.uint32(16))) * np.uint32(_MIX_R))
    return before, after, key_rows


@lru_cache(maxsize=None)
def _state_mixing():
    """generate_state's constants for 8 uint32 words from a 4-word pool,
    and the uint32 constants of the mix."""
    before, after, _ = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    return before, after, np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)


@lru_cache(maxsize=None)
def _state_words_class():
    """The ISeedSequence that hands PCG64 one stream's precomputed seed
    words; defined on first use, so that importing dppls does not import
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds PCG64's four uint64 seed words only")
            return self.words.copy()

        def __reduce__(self):
            return _state_words, (self.words,)

    return StateWords


def _state_words(words):
    return _state_words_class()(words)


def replicate_streams(seed, replicates, *key):
    """One RNG stream per replicate index, derived deterministically from
    (seed, replicate, *key) so that results do not depend on how
    replicates are scheduled across workers; extra integer key parts
    decorrelate streams across experiment cells sharing a seed.

    Stream i is Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(replicates[i], *key)))) bit for bit, without building a
    SeedSequence: its documented uint32 hash runs once for the block on a
    (k, 4) pool. The pool after the seed's words is cached per seed; the
    replicate word and then each key word are mixed in, and the pool's 8
    output words seed PCG64. Replicate indices must lie in [0, 2^32);
    the seed and key parts may be any non-negative int.
    """
    pool, hc = _seed_pool(int(seed))
    reps = np.asarray(replicates, dtype=np.int64)
    if (reps >> 32).any():
        raise ValueError("replicate indices must lie in [0, 2**32)")
    before, after, key_rows = _spawn_mixing(hc, tuple(int(k) for k in key))
    out_before, out_after, mix_l, mix_r, shift = _state_mixing()
    h = reps.astype(np.uint32)[:, None] ^ before
    h *= after
    h ^= h >> shift
    pool = pool * mix_l - mix_r * h
    pool ^= pool >> shift
    for row in key_rows:
        pool *= mix_l
        pool -= row
        pool ^= pool >> shift
    state = np.concatenate((pool, pool), axis=1)
    state ^= out_before
    state *= out_after
    state ^= state >> shift
    generator, pcg64 = np.random.Generator, np.random.PCG64
    seed_words = _state_words_class()
    return [generator(pcg64(seed_words(words)))
            for words in state.view("<u8").astype(np.uint64)]


def replicate_stream(seed, replicate, *key):
    """replicate_streams for one replicate index."""
    return replicate_streams(seed, (replicate,), *key)[0]


# ---------------------------------------------------------------------------
# per-basis nu_m sampler shared by the Christoffel and DPP samplers

def _nu_sampler(basis):
    """The inverse-CDF sampler of nu_m = w_m mu, built once per basis on a
    grid refined against w_m."""
    nu = getattr(basis, "_dppls_nu", None)
    if nu is None:
        breaks = basis.cell_edges() if isinstance(basis, PiecewiseConstantBasis) else None
        nu = build_density_sampler(basis.christoffel, basis.measure,
                                   support=basis.measure.effective_support(basis.m),
                                   breakpoints=breaks)
        basis._dppls_nu = nu
    return nu


# ---------------------------------------------------------------------------
# samplers: per-stream numbers, then one transform per block

def sample_christoffel(basis, rng, n=None):
    """Draws from nu_m = w_m mu through the basis's one tabulated inverse
    CDF: a float when n is None, else an array of n draws. Each draw takes
    one uniform, so n single draws from a stream equal one n-draw."""
    gen, _ = as_rng(rng)
    return _nu_sampler(basis).sample(gen, n)


def _iid_numbers(w, basis, gen, n):
    """The numbers of n i.i.d. draws from nu = w mu: which points come from
    nu_m, their uniforms in order, and the mu draws of the others. A
    mixture, 0 < alpha < 1, takes n branch uniforms first; alpha = 1
    draws no mu block and alpha = 0 no uniforms."""
    if w.alpha == 1.0:
        return None, gen.random(n), None
    if w.alpha == 0.0:
        return None, None, basis.measure.sample(gen, n)
    pick = gen.random(n) < w.alpha
    k = int(np.count_nonzero(pick))
    u = gen.random(k)
    return pick, u, basis.measure.sample(gen, n - k) if k < n else np.empty(0)


def _iid_points(basis, numbers):
    """The (k, n) points of k streams' `_iid_numbers` (of one weight), with
    all their nu_m uniforms inverted in one call."""
    picks, us, mus = zip(*numbers)
    if us[0] is None:
        return np.array(mus)
    nu = _nu_sampler(basis).inverse(us[0] if len(us) == 1 else np.concatenate(us))
    if picks[0] is None:
        return nu.reshape(len(us), -1)
    pick = np.array(picks)
    pts = np.empty(pick.shape)
    pts[pick] = nu
    pts[~pick] = np.concatenate(mus)
    return pts


def _tridiagonal_eigvalsh(diag, off):
    """Ascending eigenvalues of the symmetric tridiagonal matrices with
    these diagonals (k, m) and off-diagonals (k, m - 1), or of one such
    matrix, by LAPACK dsyevd on each dense lower triangle. Its reduction
    leaves a tridiagonal matrix as it is, so it runs dsterf on the input
    itself and gives scipy's eigvalsh_tridiagonal with the 'sterf' driver
    bit for bit; a stack is solved matrix by matrix."""
    m = diag.shape[-1]
    a = np.zeros(diag.shape + (m,))
    flat = a.reshape(-1, m * m)
    flat[:, ::m + 1] = diag
    flat[:, m::m + 1] = off
    return np.linalg.eigvalsh(a)


@lru_cache(maxsize=None)
def _hermite_gamma_shapes(m):
    """The Gamma shapes k = m-1, ..., 1 of the off-diagonal, read-only, as
    they are shared by every draw at this m."""
    k = np.arange(m - 1, 0, -1, dtype=float)
    k.flags.writeable = False
    return k


def _hermite_numbers(basis, gen):
    """The beta = 2 Hermite matrix model (Dumitriu and Edelman 2002):
    diagonal i.i.d. N(0, 1), off-diagonal sqrt(chi^2_{2k}/2) for
    k = m-1, ..., 1. Their eigenvalues have law gamma_m for weight
    exp(-x^2/2)."""
    m = basis.m
    diag = gen.standard_normal(m)
    # chi^2_{2k} / 2 is Gamma(k, 1)
    return diag, gen.standard_gamma(_hermite_gamma_shapes(m))


def _hermite_eigenvalues(basis, diag, gamma):
    return _tridiagonal_eigvalsh(diag, np.sqrt(gamma))


@lru_cache(maxsize=None)
def _legendre_beta_parameters(m):
    """The Beta(t, s) parameters of alpha_0..alpha_{2m-2}, read-only, as
    they are shared by every draw at this m."""
    k = np.arange(2 * m - 1, dtype=float)
    even = k % 2 == 0
    s = np.where(even, m - k / 2, (2 * m - k + 1) / 2)
    t = np.where(even, m - k / 2, (2 * m - k - 1) / 2)
    s.flags.writeable = t.flags.writeable = False
    return t, s


def _legendre_numbers(basis, gen):
    """The Killip-Nenciu Jacobi matrix model (IMRN 2004, Theorem 2) at
    beta = 2, a = b = 0: Beta-distributed Verblunsky coefficients. Their
    eigenvalues, mapped from [-2, 2] onto the measure's interval, have law
    gamma_m for the uniform weight."""
    t, s = _legendre_beta_parameters(basis.m)
    return (gen.beta(t, s),)


def _legendre_eigenvalues(basis, beta):
    k, m = len(beta), basis.m
    # per draw, alpha_i sits at column i + 2 for i = -2..2m-1; alpha_{-2}
    # only ever multiplies 1 + alpha_{-1} = 0. The rows lie end to end,
    # with two spare zeros, so each step below is one 1-D operation over
    # the stack; the last of each row's m + 1 results straddles two rows
    # and is dropped
    alpha = np.zeros(k * (2 * m + 2) + 2)
    rows = alpha[:-2].reshape(k, 2 * m + 2)
    rows[:, 1] = rows[:, -1] = -1.0
    rows[:, 2:-1] = 2.0 * beta - 1.0
    prev, odd = alpha[0::2], alpha[1::2]   # alpha_{2j-2}, alpha_{2j-1}
    cur = prev[1:]                         # alpha_{2j}
    down = 1.0 - odd[:-1]
    diag = down * cur - (1.0 + odd[:-1]) * prev[:-1]
    off = np.sqrt(down * (1.0 - cur ** 2) * (1.0 + odd[1:]))
    eig = 0.5 * _tridiagonal_eigvalsh(diag.reshape(k, m + 1)[:, :m],
                                      off.reshape(k, m + 1)[:, :m - 1])
    a, b = basis.measure.a, basis.measure.b
    return np.clip(0.5 * (a + b) + 0.5 * (b - a) * eig, a, b)


def _pwc_numbers(basis, gen):
    """One uniform point in each of the m cells."""
    return (gen.random(basis.m),)


def _pwc_eigenvalues(basis, u):
    a, b = basis.measure.a, basis.measure.b
    return a + (b - a) * (np.arange(basis.m) + u) / basis.m


# (numbers, eigenvalues) per family: one draw's random numbers from its
# stream, then the sorted points of a (K, ...) stack of them. Matched on
# the exact type: a subclass may change the features, and with them the
# law, so it keeps the sequential sampler
_EXACT_DPP = {
    HermiteBasis: (_hermite_numbers, _hermite_eigenvalues),
    LegendreBasis: (_legendre_numbers, _legendre_eigenvalues),
    PiecewiseConstantBasis: (_pwc_numbers, _pwc_eigenvalues),
}


def _dpp_numbers(basis, gen):
    """One gamma_m draw's numbers: the matrix model's and the permutation
    that orders its eigenvalues, or the points of the sequential sampler
    for a basis without a model."""
    model = _EXACT_DPP.get(type(basis))
    if model is None:
        return (_sample_dpp_sequential(basis, gen),)
    return model[0](basis, gen) + (gen.permutation(basis.m),)


def _dpp_points(basis, numbers):
    """The (K, m) points of K gamma_m draws from their stacked numbers: one
    eigenvalue call for the stack, each row then in its drawn order."""
    model = _EXACT_DPP.get(type(basis))
    if model is None:
        return numbers[0]
    *model_numbers, perm = numbers
    eig = model[1](basis, *model_numbers)
    # the eigenvalues come out sorted; repeated designs keep a prefix
    return _rows_permuted(eig, perm)


def _rows_permuted(a, perm):
    """Row i of `a` (k, n) in the order of row i of `perm`."""
    return a[np.arange(len(a))[:, None], perm]


def _sample_dpp_sequential(basis, rng):
    """The m points of a projection DPP gamma_m draw for any basis.

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
    gen, _ = as_rng(rng)
    state = empty_rotation(basis.m)
    points = []
    for _ in range(basis.m):
        x, state = _next_dpp_point(basis, state, gen)
        points.append(x)
    return np.asarray(points)


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


class _Layout(NamedTuple):
    """How an n-point design is drawn: `draws` gamma_m draws, i.i.d. draws
    from `weight` mu for the points they leave, the first n points kept
    and, for volume designs, a uniformly random permutation of them."""

    n: int
    draws: int
    weight: Weight
    permute: bool = False

    def numbers(self, basis, gen):
        """One stream's random numbers, in the order its design takes
        them."""
        dpp = [_dpp_numbers(basis, gen) for _ in range(self.draws)]
        extra = self.n - self.draws * basis.m
        iid = _iid_numbers(self.weight, basis, gen, extra) if extra > 0 else None
        return dpp, iid, gen.permutation(self.n) if self.permute else None

    def transform(self, basis, numbers):
        """The points (k, n), weights (k n,) and feature rows (k n, m) of k
        streams' numbers, each step one call for the whole stack."""
        k, m = len(numbers), basis.m
        dpp, iid, perms = zip(*numbers)
        extra = self.n - self.draws * m
        if extra > 0:
            pts = _iid_points(basis, iid)
        if self.draws:
            stacked = [np.array(c) for c in zip(*(d for draws in dpp for d in draws))]
            drawn = _dpp_points(basis, stacked).reshape(k, self.draws * m)
            pts = np.concatenate((drawn, pts), axis=1) if extra > 0 else drawn[:, :self.n]
        if self.permute:
            pts = _rows_permuted(pts, np.array(perms))
        phi = basis.feature_matrix(pts.ravel())
        return pts, self.weight.evaluate(phi), phi

    def design(self, basis, rng, sampler_id):
        """The design of one stream, the k = 1 case of the block."""
        gen, seed = as_rng(rng)
        pts, w, phi = self.transform(basis, [self.numbers(basis, gen)])
        return DesignSample(pts[0], w, phi, sampler_id, seed)


def _layout(scheme, basis, n, w):
    """The _Layout of an n-point design under an unconditioned scheme with
    weight w."""
    m = basis.m
    if n < 1:
        raise EmptyDesignError("need n >= 1")
    if scheme in ("iid-mu", "iid-christoffel"):
        return _Layout(n, 0, w)
    if scheme == "volume":
        if n < m:
            raise UnderdeterminedDesignError(
                f"volume sampling needs n >= m, got n={n}, m={m}")
        return _Layout(n, 1, w, permute=True)
    if scheme == "repeated-dpp":
        return _Layout(n, math.ceil(n / m), w)
    raise ValidationError(f"no unconditioned scheme {scheme!r}")


def sample_dpp(basis, rng):
    """Draw of m points from the projection DPP gamma_m.

    For exactly HermiteBasis, LegendreBasis and PiecewiseConstantBasis the
    draw is exact: the eigenvalues of the family's random tridiagonal
    matrix model (one uniform point per cell for piecewise constants), in
    a uniformly random order. Any other basis, subclasses included, uses
    the sequential sampler `_sample_dpp_sequential`, which draws by
    rejection from nu_m and is exact up to the nu_m tabulation.
    """
    return _Layout(basis.m, 1, Weight(1.0)).design(basis, rng, "dpp")


def sample_volume(basis, w, n, rng):
    """Exact draw from the generalized volume distribution gamma_n^nu with
    nu = w mu: one gamma_m draw, n - m i.i.d. draws from nu, and a uniform
    random permutation of the concatenation. With w = w_m this is the
    volume-rescaled distribution gamma_n^{nu_m}."""
    return _layout("volume", basis, n, w).design(basis, rng, "volume")


def sample_repeated_dpp(basis, n, rng):
    """ceil(n/m) independent gamma_m draws, keeping the first n points;
    weights are taken from w_m."""
    return _layout("repeated-dpp", basis, n, Weight(1.0)).design(
        basis, rng, "repeated-dpp")


def sample_conditioned(basis, n, delta, max_attempts=1000, rng=None):
    """Redraw n-point repeated-dpp designs until the stability event
    lambda_min(G^w) >= 1 - delta holds, with w = w_m; the attempt count
    is recorded on the returned sample. Attempt k is the k-th
    sample_repeated_dpp draw of the stream, and lambda_min is
    empirical_gram's, bit for bit.

    On exhaustion a ConditioningFailureError carrying the best lambda_min
    is raised.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    gen, seed = as_rng(rng)
    layout = _layout("repeated-dpp", basis, n, Weight(1.0))
    best = -np.inf
    for attempt in range(1, int(max_attempts) + 1):
        pts, w, phi = layout.transform(basis, [layout.numbers(basis, gen)])
        lam = float(np.linalg.eigvalsh(weighted_gram(phi, w))[0])
        if lam >= 1.0 - delta:
            return DesignSample(pts[0], w, phi, "repeated-dpp-cond", seed,
                                attempt)
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
        if not 0.0 < alpha <= 1.0:
            raise ValidationError(
                f"volume weight needs alpha in (0, 1], got {alpha}")
        return Weight(alpha)
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
    if scheme == "repeated-dpp-cond":
        return sample_conditioned(basis, n, delta, max_attempts, rng)
    return _layout(scheme, basis, n, scheme_weight(scheme, alpha)).design(
        basis, rng, scheme)


def draw_designs(scheme, basis, n, gens, *, alpha=1.0):
    """One design per stream under an unconditioned scheme, stacked:
    points (k, n), weights (k, n) and features (k, n, m).

    Each stream's random numbers are drawn first, in the order
    `draw_design` takes them, and each transform then runs once for the
    block, so row i equals draw_design(scheme, basis, n, gens[i],
    alpha=alpha) bit for bit. A stream whose draw raises a DpplsError has
    NaN rows and leaves the other rows unchanged.
    """
    scheme = canonical_scheme(scheme)
    layout = _layout(scheme, basis, n, scheme_weight(scheme, alpha))
    numbers, ok = [], np.zeros(len(gens), dtype=bool)
    for i, gen in enumerate(gens):
        try:
            numbers.append(layout.numbers(basis, gen))
            ok[i] = True
        except DpplsError:
            pass
    block = ()
    if numbers:
        pts, w, phi = layout.transform(basis, numbers)
        block = pts, w.reshape(-1, n), phi.reshape(-1, n, basis.m)
        if ok.all():
            return block
    full = (np.full((len(gens), n), np.nan), np.full((len(gens), n), np.nan),
            np.full((len(gens), n, basis.m), np.nan))
    for rows, part in zip(full, block):
        rows[ok] = part
    return full
