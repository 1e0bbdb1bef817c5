"""Frozen reference values and independent helper routines for the tests.

Every constant here was computed by a route that does not touch the
package: scipy adaptive quadrature (`scipy.integrate.quad`) combined with
normalized three-term recurrences written out by hand, or closed forms.
The values are frozen; tests compare library output against them instead
of recomputing.  If a test ever disagrees with one of these numbers, the
presumption is that the library is wrong, not this file.

Helper functions in the second half rebuild small pieces of machinery
(feature rows, Christoffel CDFs) on top of numpy.polynomial so that
distributional tests have an oracle that shares no code with the package.
"""

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss, hermevander
from numpy.polynomial.legendre import legvander
from scipy.special import erfc
from scipy.stats import norm as _gaussian

# ---------------------------------------------------------------------------
# Target f(x) = 1/(1+2x^2) under the standard Gaussian.
#
# ||f||^2 and the mean were evaluated with scipy.integrate.quad on [-40, 40]
# at epsrel 1e-14; the mean also has the closed form
#   E[1/(1+2X^2)] = exp(1/4) * sqrt(pi) * erfc(1/2) / 2,
# which agrees with the quadrature to one ulp.

GAUSS_INVQUAD_NORM2 = 0.3864103401912618
GAUSS_INVQUAD_MEAN = 0.5456413607650471


def gauss_invquad_mean_closed_form():
    """Closed form of E[1/(1+2X^2)], X ~ N(0,1)."""
    return math.exp(0.25) * math.sqrt(math.pi) * erfc(0.5) / 2.0


# Relative best-approximation error ||f - P_{V_m} f|| / ||f|| for the
# normalized probabilists' Hermite family, from per-coefficient scipy
# quadrature of f*phi_k*pdf (limit=800, epsrel 1e-14) and the Pythagoras
# identity.  Two independent runs (different integration intervals and
# subdivision limits) agreed to 11 digits before freezing.

BEST_REL_HERMITE = {
    10: 0.13551260509925414,
    20: 0.05307439187233569,
    30: 0.025933880972999573,
    40: 0.014196890260092373,
    50: 0.008354509925570923,
}

# Reference values reproduced by the experiment drivers, as printed in the
# tables this package reimplements (two significant digits each).  The
# "best" entries disagree with BEST_REL_HERMITE by 3.7%..9.2%; the
# tolerance outcomes are asserted as found, not adjusted.

TABLE_BEST = {10: 1.3e-01, 20: 5.1e-02, 30: 2.5e-02, 40: 1.3e-02, 50: 8.0e-03}
TABLE_RMS_2M_M10 = {
    "iid-christoffel": 3.9e-01,
    "volume": 2.0e-01,
    "repeated-dpp": 1.8e-01,
    "repeated-dpp-cond": 1.6e-01,
}
TABLE_Q95_2M_M10 = {
    "iid-christoffel": 8.8e-01,
    "volume": 3.3e-01,
    "repeated-dpp": 2.6e-01,
    "repeated-dpp-cond": 2.1e-01,
}

# ---------------------------------------------------------------------------
# Chernoff constants and sample-size formulas: direct evaluation.

CHERNOFF_C_HALF = 0.5 + 0.5 * math.log(0.5)          # 0.15342640972002733
CHERNOFF_C_THREEQ = 0.75 + 0.25 * math.log(0.25)     # 0.40342640972002734
CHERNOFF_C_03 = 0.3 + 0.7 * math.log(0.7)            # 0.05032752638960732

IID_N_M20 = 183     # ceil(20 * ln 40 / c_{3/4})
VOLUME_N_M20 = 203  # m + the iid term
DPP_FAILURE_M10_NEQM = 10.0 * math.exp(-CHERNOFF_C_THREEQ)  # 6.6803...

# Monte Carlo identity targets.
TR_INV_GRAM = lambda m, n: m * n / (n - m + 1)  # noqa: E731  (=50/6 at 5,10)

# ---------------------------------------------------------------------------
# Independent feature rows.  numpy.polynomial supplies the unnormalized
# polynomials; normalization constants are applied explicitly.


def hermite_row(xs, m):
    """Normalized probabilists' Hermite features He_k/sqrt(k!), k < m."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    V = hermevander(xs, m - 1)
    scale = np.array([math.exp(-0.5 * math.lgamma(k + 1)) for k in range(m)])
    return V * scale


def legendre_row(xs, m):
    """Normalized Legendre features sqrt(2k+1)*P_k on [-1, 1], k < m."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    V = legvander(xs, m - 1)
    scale = np.sqrt(2.0 * np.arange(m) + 1.0)
    return V * scale


def hermite_gauss_rule(q):
    """(nodes, weights) of the q-point Gauss rule of the standard Gaussian
    measure: numpy's hermegauss, for the weight exp(-x^2/2), with its
    weights divided by sqrt(2 pi)."""
    nodes, weights = hermegauss(q)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def uniform_cdf(xs, lo=-1.0, hi=1.0):
    xs = np.asarray(xs, dtype=float)
    return np.clip((xs - lo) / (hi - lo), 0.0, 1.0)


def gaussian_cdf(xs):
    return _gaussian.cdf(xs)


def _grid(family, m):
    if family == "legendre":
        return np.linspace(-1.0, 1.0, 400_001)
    half = max(12.0, math.sqrt(4.0 * m + 2.0) + 4.0)
    return np.linspace(-half, half, 400_001)


def _mu_density(family, xs):
    if family == "legendre":
        return np.full_like(xs, 0.5)
    return _gaussian.pdf(xs)


def _w_m(family, xs, m):
    rows = legendre_row(xs, m) if family == "legendre" else hermite_row(xs, m)
    return (rows * rows).sum(axis=1) / m


def christoffel_cdf(family, m):
    """Vectorized CDF of w_m*mu on a dense trapezoid grid.

    Resolution 4e5 points puts the interpolation error far below the KS
    statistics it is compared against.
    """
    xs = _grid(family, m)
    dens = _w_m(family, xs, m) * _mu_density(family, xs)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(xs))])
    cdf /= cdf[-1]
    return lambda q: np.interp(q, xs, cdf)


def mixture_cdf(family, m, alpha):
    """CDF of alpha*(w_m mu) + (1-alpha)*mu."""
    chris = christoffel_cdf(family, m)
    if family == "legendre":
        base = uniform_cdf
    else:
        base = gaussian_cdf
    return lambda q: alpha * chris(q) + (1.0 - alpha) * base(np.asarray(q, dtype=float))


def volume_coordinate_cdf(family, m, n, base="mu"):
    """Single-coordinate CDF of an exchangeable volume design.

    The marginal is the mixture (m/n)*(w_m mu) + ((n-m)/n)*nu where nu is
    the i.i.d. filler law: mu itself for a unit weight, w_m*mu for the
    Christoffel weight (in which case the mixture collapses to w_m*mu).
    """
    chris = christoffel_cdf(family, m)
    if base == "christoffel":
        return chris
    if family == "legendre":
        tail = uniform_cdf
    else:
        tail = gaussian_cdf
    frac = m / n
    return lambda q: frac * chris(q) + (1.0 - frac) * tail(np.asarray(q, dtype=float))
