"""Sample-size and stability-bound calculators from the matrix Chernoff
inequality.

All logarithms are natural. Bounds are raw tail bounds: they may exceed 1
and are reported as-is. Bounds that rest on the unproven concentration
property of the projection-process design are labeled conjecture-dependent
both here and in the CLI output.
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import ValidationError
from .samplers import make_weight

SCHEME_TAGS = ("iid", "volume", "repeated-dpp")


@dataclass(frozen=True)
class ChernoffConstants:
    """The two exponents governing lower and upper spectral tails."""

    delta: float
    c_delta: float
    d_delta: float

    def __post_init__(self):
        d = self.delta
        if not (d * d / 2.0 <= self.c_delta <= d * d):
            raise ValidationError("c_delta outside its bracket")
        if not ((5.0 / 13.0) * d * d - 1e-15 <= self.d_delta <= d * d / 2.0):
            raise ValidationError("d_delta outside its bracket")


@dataclass(frozen=True)
class TheoryBound:
    """A stability guarantee: with n points under the given scheme, the
    probability of lambda_min(G^w) dropping below 1-delta is at most
    predicted_failure_prob (raw, may exceed 1)."""

    scheme: str
    m: int
    n: int
    alpha: float
    eta: float
    beta: float
    predicted_failure_prob: float
    conjecture_dependent: bool = False

    def __post_init__(self):
        if not (0.0 <= self.predicted_failure_prob <= self.m):
            raise ValidationError("failure bound outside [0, m]")


def _check_delta(delta):
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0,1), got {delta}")
    return delta


def _check_prob(name, value):
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ValidationError(f"{name} must lie in (0,1), got {value}")
    return value


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"alpha must lie in (0,1], got {alpha}")
    return alpha


def _check_m(m):
    m = int(m)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    return m


def chernoff_constants(delta):
    """c_delta = delta + (1-delta)ln(1-delta) and
    d_delta = -delta + (1+delta)ln(1+delta)."""
    delta = _check_delta(delta)
    c = delta + (1.0 - delta) * math.log1p(-delta)
    d = -delta + (1.0 + delta) * math.log1p(delta)
    return ChernoffConstants(delta, c, d)


def iid_sample_size(m, delta, eta, alpha=1.0):
    """Points needed so that n i.i.d. draws from the alpha-mixture density
    keep lambda_min(G^w) >= 1-delta except with probability eta.

    ceil(c_delta^-1 alpha^-1 m ln(m/eta)); ln(m/eta) computed as
    ln m + ln(1/eta) so that tiny eta cannot overflow the ratio.
    """
    m = _check_m(m)
    delta = _check_delta(delta)
    eta = _check_prob("eta", eta)
    alpha = _check_alpha(alpha)
    c = chernoff_constants(delta).c_delta
    raw = (math.log(m) + math.log(1.0 / eta)) * m / (c * alpha)
    return math.ceil(raw)


def volume_sample_size(m, delta, eta, alpha=1.0):
    """Like iid_sample_size but for the volume-rescaled design, which
    spends m points on the projection block: m + the i.i.d. term."""
    return _check_m(m) + iid_sample_size(m, delta, eta, alpha)


def dpp_chernoff_failure(m, n, delta):
    """Tail bound m exp(-c_delta n / m) for the repeated projection
    design. Conjecture-dependent: assumes the unproven concentration
    property of the projection process, so treat the value as a
    prediction, not a guarantee."""
    m = _check_m(m)
    n = int(n)
    if n < m:
        raise ValidationError(f"need n >= m, got n={n}, m={m}")
    c = chernoff_constants(delta).c_delta
    return m * math.exp(-c * n / m)


def repeated_dpp_sample_size(m, delta, eta):
    """n with dpp_chernoff_failure(m, n, delta) <= eta
    (conjecture-dependent): ceil(c_delta^-1 m ln(m/eta))."""
    m = _check_m(m)
    delta = _check_delta(delta)
    eta = _check_prob("eta", eta)
    c = chernoff_constants(delta).c_delta
    return math.ceil((math.log(m) + math.log(1.0 / eta)) * m / c)


def stability_failure_bound(scheme, m, n, delta, alpha=1.0):
    """TheoryBound for a concrete (m, n): the raw Chernoff tail bound on
    P(lambda_min(G^w) < 1-delta) under the scheme."""
    m = _check_m(m)
    n = int(n)
    delta = _check_delta(delta)
    alpha = _check_alpha(alpha)
    if scheme not in SCHEME_TAGS:
        raise ValidationError(f"unknown scheme tag {scheme!r}")
    if n < m:
        raise ValidationError(f"need n >= m, got n={n}, m={m}")
    c = chernoff_constants(delta).c_delta
    conjectural = False
    if scheme == "iid":
        bound = m * math.exp(-c * alpha * n / m)
    elif scheme == "volume":
        bound = m * math.exp(-c * alpha * (n - m) / m)
    else:
        bound = dpp_chernoff_failure(m, n, delta)
        conjectural = True
    beta = 1.0 + (1.0 / alpha - 1.0) * m / n
    # the exponential factor is <= 1 for n >= m, so bound <= m already
    return TheoryBound(scheme, m, n, alpha, bound, beta, bound,
                       conjecture_dependent=conjectural)


def required_sample_size(scheme, m, delta, eta, alpha=1.0):
    """Dispatch to the per-scheme sample-size formula."""
    if scheme == "iid":
        return iid_sample_size(m, delta, eta, alpha)
    if scheme == "volume":
        return volume_sample_size(m, delta, eta, alpha)
    if scheme == "repeated-dpp":
        return repeated_dpp_sample_size(m, delta, eta)
    raise ValidationError(f"unknown scheme tag {scheme!r}")


def theory_bound(scheme, m, delta, eta, alpha=1.0):
    """TheoryBound at the smallest n the scheme's formula certifies for
    the target failure level eta."""
    eta = _check_prob("eta", eta)
    n = required_sample_size(scheme, m, delta, eta, alpha)
    bound = stability_failure_bound(scheme, m, n, delta, alpha)
    return TheoryBound(scheme, bound.m, n, bound.alpha, eta, bound.beta,
                       bound.predicted_failure_prob,
                       conjecture_dependent=bound.conjecture_dependent)


def k_constant(basis, w=None, grid=100_000):
    """Grid estimate of K_w = sup_x w(x)^-1 ||phi(x)||_2^2 over the
    effective support.

    A maximum over grid points never exceeds the true sup, so the value
    is a grid lower bound. K enters the sample-size formulas only through
    a log-free prefactor; crude accuracy is enough.
    """
    grid = int(grid)
    if grid < 2:
        raise ValidationError(f"need grid >= 2, got {grid}")
    if w is None:
        w = make_weight("unit")
    lo, hi = basis.measure.effective_support(basis.m)
    xs = np.linspace(lo, hi, grid)
    phi = basis.feature_matrix(xs)
    norms2 = np.einsum("ij,ij->i", phi, phi)
    return float(np.max(norms2 / w.evaluate(phi)))


def quasi_optimality_constant(m, n, alpha, delta, eta, xi):
    """Conditional quasi-optimality factor
    1 + (1-eta)^-1 (1-delta)^-2 (1-m/n)^-2 (m/n) alpha^-1
    (beta + xi m alpha^-1) with beta = 1 + (alpha^-1 - 1) m/n.

    Unverified parse: the displayed source of this constant contains a
    visibly misplaced parenthesis, so the grouping used here is a best
    reading, printed for orientation only.
    """
    m = _check_m(m)
    n = int(n)
    if n <= m:
        raise ValidationError(f"need n > m, got n={n}, m={m}")
    alpha = _check_alpha(alpha)
    delta = _check_delta(delta)
    eta = _check_prob("eta", eta)
    if xi not in (0, 1):
        raise ValidationError(f"xi must be 0 or 1, got {xi}")
    beta = 1.0 + (1.0 / alpha - 1.0) * m / n
    ratio = m / n
    return 1.0 + (beta + xi * m / alpha) * ratio / (
        alpha * (1.0 - eta) * (1.0 - delta) ** 2 * (1.0 - ratio) ** 2)


def mixed_stability_bound(m, n, r, delta, xi_m):
    """Conjecture-dependent tail bound for a design of r projection
    blocks plus n - r m i.i.d. points from a density with w <= xi_m w_m:
    P(lambda_min(G^w) < (1-delta) xi_m^-1 r m / n) <= m exp(-c_delta r).

    Returns (threshold, failure_bound). xi_m is supplied by the caller;
    for the unit-mixture weight with weight alpha on the inverse
    Christoffel density, xi_m = alpha + (1-alpha) m works whenever the
    constant function lies in V_m.
    """
    m = _check_m(m)
    n, r = int(n), int(r)
    delta = _check_delta(delta)
    xi_m = float(xi_m)
    if r < 1 or n < r * m:
        raise ValidationError(f"need r >= 1 and n >= r*m, got n={n}, r={r}")
    if xi_m < 1.0:
        raise ValidationError(f"xi_m must be >= 1, got {xi_m}")
    c = chernoff_constants(delta).c_delta
    threshold = (1.0 - delta) / xi_m * (r * m) / n
    return threshold, m * math.exp(-c * r)
