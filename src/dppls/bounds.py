"""Sample-size and stability-bound calculators from the matrix Chernoff
inequality.

Every stability guarantee here is one tail bound,

    P(lambda_min(G^w) < 1 - delta) <= m exp(-c_delta a (n - n0) / m),

with a per-scheme rate a and offset n0 (`_tail`): i.i.d. draws from the
alpha-mixture have a = alpha and n0 = 0, volume-rescaled designs spend
n0 = m points on their projection block, and repeated projection designs
have a = 1 and n0 = 0, but only under the unproven concentration property
of the projection process. Bounds resting on that property are labeled
conjecture-dependent both here and in the CLI output.

All logarithms are natural. Bounds are raw tail bounds: they may exceed 1
and are reported as-is.
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import ValidationError
from .samplers import Weight

SCHEME_TAGS = ("iid", "volume", "repeated-dpp")
K_GRID = 100_000


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
    beta: float
    predicted_failure_prob: float
    conjecture_dependent: bool = False

    def __post_init__(self):
        if not (0.0 <= self.predicted_failure_prob <= self.m):
            raise ValidationError("failure bound outside [0, m]")


def _check_open(name, value):
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


def _tail(scheme, m, alpha):
    """(a, n0, conjecture_dependent) of the scheme's Chernoff tail
    m exp(-c_delta a (n - n0) / m)."""
    if scheme == "iid":
        return alpha, 0, False
    if scheme == "volume":
        return alpha, m, False
    if scheme == "repeated-dpp":
        return 1.0, 0, True
    raise ValidationError(f"unknown scheme tag {scheme!r}")


def _beta(m, n, alpha):
    """beta = 1 + (alpha^-1 - 1) m / n."""
    return 1.0 + (1.0 / alpha - 1.0) * m / n


def chernoff_constants(delta):
    """c_delta = delta + (1-delta)ln(1-delta) and
    d_delta = -delta + (1+delta)ln(1+delta)."""
    delta = _check_open("delta", delta)
    c = delta + (1.0 - delta) * math.log1p(-delta)
    d = -delta + (1.0 + delta) * math.log1p(delta)
    return ChernoffConstants(delta, c, d)


def required_sample_size(scheme, m, delta, eta, alpha=1.0):
    """The smallest n whose tail bound under the scheme is at most eta:
    n0 + ceil(m ln(m/eta) / (c_delta a)), with ln(m/eta) computed as
    ln m + ln(1/eta) so that tiny eta cannot overflow the ratio."""
    m = _check_m(m)
    c = chernoff_constants(delta).c_delta
    eta = _check_open("eta", eta)
    a, n0, _ = _tail(scheme, m, _check_alpha(alpha))
    return n0 + math.ceil((math.log(m) + math.log(1.0 / eta)) * m / (c * a))


def stability_failure_bound(scheme, m, n, delta, alpha=1.0):
    """TheoryBound for a concrete (m, n): the raw Chernoff tail bound
    m exp(-c_delta a (n - n0) / m) on P(lambda_min(G^w) < 1-delta) under
    the scheme, with n >= m."""
    m = _check_m(m)
    n = int(n)
    c = chernoff_constants(delta).c_delta
    alpha = _check_alpha(alpha)
    a, n0, conjectural = _tail(scheme, m, alpha)
    if n < m:
        raise ValidationError(f"need n >= m, got n={n}, m={m}")
    # the exponential factor is <= 1 for n >= m, so bound <= m already
    bound = m * math.exp(-c * a * (n - n0) / m)
    return TheoryBound(scheme, m, n, alpha, _beta(m, n, alpha), bound,
                       conjecture_dependent=conjectural)


def k_constant(basis, w=None):
    """Grid estimate of K_w = sup_x w(x)^-1 ||phi(x)||_2^2 over K_GRID
    evenly spaced points of the effective support, with w = 1 by default.

    A maximum over grid points never exceeds the true sup, so the value
    is a grid lower bound. K enters the sample-size formulas only through
    a log-free prefactor; crude accuracy is enough.
    """
    if w is None:
        w = Weight(0.0)
    lo, hi = basis.measure.effective_support(basis.m)
    xs = np.linspace(lo, hi, K_GRID)
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
    delta = _check_open("delta", delta)
    eta = _check_open("eta", eta)
    if xi not in (0, 1):
        raise ValidationError(f"xi must be 0 or 1, got {xi}")
    ratio = m / n
    return 1.0 + (_beta(m, n, alpha) + xi * m / alpha) * ratio / (
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
    delta = _check_open("delta", delta)
    xi_m = float(xi_m)
    if r < 1 or n < r * m:
        raise ValidationError(f"need r >= 1 and n >= r*m, got n={n}, r={r}")
    if xi_m < 1.0:
        raise ValidationError(f"xi_m must be >= 1, got {xi_m}")
    c = chernoff_constants(delta).c_delta
    threshold = (1.0 - delta) / xi_m * (r * m) / n
    return threshold, m * math.exp(-c * r)
