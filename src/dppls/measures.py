"""Reference probability measures on the line, quadrature rules, and a grid
based inverse-CDF sampler for densities g with respect to the measure.

The samplers tabulate one such density per basis, the inverse Christoffel
density w_m of nu_m = w_m mu; the DPP conditionals are drawn by rejection
from nu_m and need no table of their own. The inverse CDF is a monotone
piecewise cubic (PCHIP) built and evaluated in numpy.

The uniform measure has Gauss-Legendre rules, in numpy too: their nodes
come from Newton's method on the three-term recurrence, started at
Tricomi's values of the zeros, and their weights from the Christoffel
function of the same recurrence. A q-point Gauss rule integrates
polynomials up to degree 2q - 1 exactly. The Gaussian measure has a
trapezoid rule instead, exact for no polynomial degree but geometrically
convergent, as its step halves, for integrands analytic in a strip about
the real line. No path of the module imports scipy or numpy.polynomial.
"""

import os
import math

import numpy as np
from dataclasses import dataclass
from functools import lru_cache

from .errors import (EmptyDesignError, NegativeDensityError, NotADensityError,
                     QuadratureAccuracyError, UnsupportedOrderError,
                     ValidationError)

DEFAULT_MAX_QUAD_ORDER = 2048
# the Gaussian trapezoid rules reach this far beyond the effective
# support, past which every density it bounds is below eps of its peak
TRAPEZOID_MARGIN = 6.0
# Newton steps allowed for a Gauss rule's nodes; from Tricomi's values
# every rule up to order 16384 settles in at most four
NEWTON_ITERATIONS = 10
# the grid a density is tabulated on: GRID_CELLS uniform cells on its
# support, then up to GRID_REFINEMENTS rounds bisecting every cell heavier
# than GRID_MAX_CELL_MASS; its total mass must be 1 within GRID_MASS_TOL
GRID_CELLS = 2048
GRID_MAX_CELL_MASS = 1e-3
GRID_REFINEMENTS = 12
GRID_MASS_TOL = 1e-8

# fixed 4-point Gauss-Legendre rule used per grid cell when integrating
# densities; exact on each cell for polynomials up to degree 7. These are
# numpy.polynomial.legendre.leggauss(4) bit for bit, written out so that
# importing dppls does not load numpy.polynomial
_GL_X = np.array([-0.8611363115940526, -0.33998104358485626,
                  0.33998104358485626, 0.8611363115940526])
_GL_W = np.array([0.34785484513745357, 0.6521451548625464,
                  0.6521451548625464, 0.34785484513745357])


def max_quad_order():
    """Quadrature order cap, overridable via DPPLS_MAX_QUAD_ORDER."""
    raw = os.environ.get("DPPLS_MAX_QUAD_ORDER")
    if raw is None:
        return DEFAULT_MAX_QUAD_ORDER
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"DPPLS_MAX_QUAD_ORDER={raw!r} is not an integer") from exc
    if cap < 1:
        raise ValidationError("DPPLS_MAX_QUAD_ORDER must be >= 1")
    return cap


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule for a probability measure, with `order` nodes. A
    Gauss rule's weights sum to 1 and it integrates polynomials up to
    degree 2*order - 1 exactly; a trapezoid rule is exact for no degree,
    only spectrally accurate (StandardGaussian.trapezoid_rule)."""
    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, values_or_fn):
        vals = values_or_fn(self.nodes) if callable(values_or_fn) else values_or_fn
        return float(self.weights @ np.asarray(vals, dtype=float))


class ReferenceMeasure:
    """A 1-D probability measure with density and i.i.d. sampling.
    Concrete kinds: UniformInterval, with Gauss quadrature, and
    StandardGaussian, with a trapezoid rule."""

    def density(self, x):
        raise NotImplementedError

    def sample(self, rng, n):
        raise NotImplementedError

    def gauss_quadrature(self, order):
        raise NotImplementedError

    def effective_support(self, m=1):
        """Interval [lo, hi] carrying all but a negligible part of every
        density handled for a basis of dimension m."""
        raise NotImplementedError


class UniformInterval(ReferenceMeasure):
    """Uniform probability measure on [a, b]."""

    def __init__(self, a=-1.0, b=1.0):
        a, b = float(a), float(b)
        if not a < b:
            raise ValidationError(f"need a < b, got a={a}, b={b}")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"UniformInterval({self.a}, {self.b})"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def sample(self, rng, n):
        if n < 1:
            raise EmptyDesignError("need n >= 1 draws")
        return rng.uniform(self.a, self.b, size=n)

    def gauss_quadrature(self, order):
        nodes, weights = _gauss_legendre(_check_order(order))
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        return QuadratureRule(mid + half * nodes, weights, order)

    def effective_support(self, m=1):
        return (self.a, self.b)


class StandardGaussian(ReferenceMeasure):
    """Standard normal measure on the real line."""

    def __repr__(self):
        return "StandardGaussian()"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def sample(self, rng, n):
        if n < 1:
            raise EmptyDesignError("need n >= 1 draws")
        return rng.standard_normal(size=n)

    def trapezoid_rule(self, h, m=1):
        """Trapezoid rule with step h: nodes jh on [-L, L], L the effective
        support for dimension m plus TRAPEZOID_MARGIN, weights h times the
        density; `order` is the node count.

        For integrands analytic in the strip |Im x| < a, such as
        1 / (1 + 2 x^2) (a = 1 / sqrt(2)) times polynomials, the error
        falls like exp(-2 pi a / h) (Trefethen and Weideman, SIAM Rev. 56,
        2014), so a few hundred nodes reach double precision.
        """
        j = math.floor((self.effective_support(m)[1] + TRAPEZOID_MARGIN) / h)
        nodes = h * np.arange(-j, j + 1, dtype=float)
        return QuadratureRule(nodes, h * self.density(nodes), nodes.size)

    def effective_support(self, m=1):
        # all Hermite-weighted densities of degree < m are below 1e-12 of
        # their peak outside this radius
        r = max(12.0, math.sqrt(4.0 * m + 2.0) + 4.0)
        return (-r, r)


def _check_order(order):
    if order < 1:
        raise UnsupportedOrderError(f"quadrature order must be >= 1, got {order}")
    cap = max_quad_order()
    if order > cap:
        raise UnsupportedOrderError(f"quadrature order {order} exceeds cap {cap}")
    return int(order)


def _recurrence(x, offdiag):
    """Run the orthonormal recurrence b_k p_k = x p_{k-1} - b_{k-1} p_{k-2},
    p_0 = 1, at the points x over offdiag = (b_1, ..., b_j).

    Returns p_{j-1} and p_j times 2^-shift, sum_{k<=j} p_k^2 times
    4^-shift, and shift. The values are rescaled by powers of two as they
    grow, so they cannot overflow and the rescale itself is exact.
    """
    prev, cur = np.zeros_like(x), np.ones_like(x)
    total = np.ones_like(x)
    shift = np.zeros(x.shape, dtype=int)
    back = 0.0
    for b in offdiag:
        prev, cur = cur, (x * cur - back * prev) / b
        back = b
        total += cur * cur
        big = total > 2.0 ** 500
        if big.any():
            e = np.frexp(total[big])[1] // 2
            prev[big] = np.ldexp(prev[big], -e)
            cur[big] = np.ldexp(cur[big], -e)
            total[big] = np.ldexp(total[big], -2 * e)
            shift[big] += e
    return prev, cur, total, shift


@lru_cache(maxsize=64)
def _gauss_legendre(q):
    """Nodes and probability weights of the q-point Gauss rule of the
    uniform measure on [-1, 1], whose orthonormal polynomials
    p_k = sqrt(2k + 1) P_k satisfy the recurrence with coefficients
    b_k = k / sqrt(4k^2 - 1).

    The nodes are the zeros of p_q: an exact 0 for odd q, and the positive
    zeros, found by Newton's method from Tricomi's values (largest first)
    and mirrored. Settled, distinct and positive, the floor(q/2) values
    are all of p_q's positive zeros; otherwise the rule raises.

    Each weight is the Christoffel function at its node,
    1 / sum_{k<q} p_k(x)^2, from the recurrence run that found the nodes
    settled, normalized so that the weights sum to 1. Unlike squared first
    eigenvector components, which are accurate only relative to the
    largest weight, this keeps every weight accurate relative to itself,
    tail weights included.
    """
    k = np.arange(1, q + 1, dtype=float)
    b = k / np.sqrt(4.0 * k * k - 1.0)
    offdiag = b[:-1]
    back = offdiag[-1] if q > 1 else 0.0
    # Tricomi's values for the positive zeros of P_q, largest first
    j = np.arange(1, q // 2 + 1)
    tricomi = ((1.0 - 1.0 / (8.0 * q * q) + 1.0 / (8.0 * q ** 3))
               * np.cos(np.pi * (4 * j - 1) / (4 * q + 2)))
    x = np.concatenate((np.zeros(q % 2), tricomi[::-1]))
    # (1 - x^2) P_q' = q (P_{q-1} - x P_q), so that
    # p_q' = q (c p_{q-1} - x p_q) / (1 - x^2)
    c = math.sqrt((2.0 * q + 1.0) / (2.0 * q - 1.0))
    for _ in range(NEWTON_ITERATIONS):
        prev, cur, total, shift = _recurrence(x, offdiag)
        # one more step, with b_q, from p_{q-2} and p_{q-1} to p_q
        p = (x * cur - back * prev) / b[-1]
        step = p / (q * (c * cur - x * p) / ((1.0 - x) * (1.0 + x)))
        # settled: every step within 4 units in the last place of
        # max(node, 1), the rounding floor of the recurrence's p_q
        if np.all(np.abs(step) <= 4.0 * np.spacing(np.maximum(x, 1.0))):
            break
        x = x - step
    else:
        raise QuadratureAccuracyError(
            f"Newton's method did not settle the order-{q} Gauss nodes in "
            f"{NEWTON_ITERATIONS} steps")
    positive = x[q % 2:]
    if positive.size and not (positive[0] > 0.0
                              and np.all(positive[1:] > positive[:-1])):
        raise QuadratureAccuracyError(
            f"the order-{q} Gauss nodes are not {q // 2} distinct positive "
            f"zeros")
    w = np.ldexp(1.0 / total, -2 * shift)
    nodes = np.concatenate((-positive[::-1], x))
    weights = np.concatenate((w[q % 2:][::-1], w))
    weights /= weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class GridDensitySampler:
    """Inverse-CDF sampler for a density g with respect to a reference
    measure, tabulated on a grid.

    The cumulative masses are known at the grid nodes; within each run of
    positive-mass cells the inverse CDF is interpolated by a monotone
    piecewise cubic (PCHIP). Cells of zero mass are never selected, which
    keeps densities that vanish on whole intervals exact.
    """

    def __init__(self, nodes, cell_masses):
        nodes = np.asarray(nodes, dtype=float)
        cell_masses = np.asarray(cell_masses, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        if cell_masses.size != nodes.size - 1:
            raise ValidationError("need one mass per grid cell")
        if np.any(cell_masses < 0):
            raise NegativeDensityError("negative cell mass")

        total = float(cell_masses.sum())
        if not math.isfinite(total) or abs(total - 1.0) > GRID_MASS_TOL:
            raise NotADensityError(total, GRID_MASS_TOL)

        # drop numerically empty cells so flat CDF stretches cannot leak
        # samples into zero-density regions
        masses = cell_masses.copy()
        masses[masses < 1e-15 * total] = 0.0
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        cum /= cum[-1]
        cum[-1] = 1.0

        self.nodes = nodes
        self.cum = cum

        positive = masses > 0
        # maximal runs of consecutive positive-mass cells, each with its
        # own monotone cubic; a run ends at the CDF value where the next
        # begins, so the cubics join into one inverse on [0, 1]
        starts = np.flatnonzero(positive & ~np.concatenate(([False], positive[:-1])))
        ends = np.flatnonzero(positive & ~np.concatenate((positive[1:], [False])))
        runs = [_pchip_coefficients(cum[s:e + 2], nodes[s:e + 2])
                for s, e in zip(starts, ends)]
        # one contiguous array per power, lowest first, and the CDF values
        # that start the pieces; consecutive runs share their joining value
        self._coef = [np.concatenate(c) for c in zip(*runs)]
        self._breaks = np.concatenate([cum[s:e + 1] for s, e in zip(starts, ends)])

    def sample(self, rng, n=None):
        """Draw n samples (or one scalar if n is None) through the inverse
        CDF, one uniform per sample."""
        out = self.inverse(rng.random(1 if n is None else n))
        return float(out[0]) if n is None else out

    def inverse(self, u):
        """The inverse CDF at the uniforms u, a 1-D array; each value
        depends on its own uniform only, so one call over many designs'
        uniforms gives each design's draws bit for bit."""
        i = np.searchsorted(self._breaks[1:], u, side="right")
        s = u - self._breaks[i]
        c3, c2, c1, c0 = self._coef
        out, c2, c1, c0 = c3[i], c2[i], c1[i], c0[i]
        # out = c3 + c2 s + c1 s^2 + c0 (s^2 s) in place, summed in the
        # order of scipy's PPoly
        ss = s * s
        c2 *= s
        c1 *= ss
        ss *= s
        c0 *= ss
        out += c2
        out += c1
        out += c0
        np.maximum(out, self.nodes[0], out=out)
        np.minimum(out, self.nodes[-1], out=out)
        return out


def _pchip_end_slope(h0, h1, m0, m1):
    """Three-point end derivative with the shape-preserving guards."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """The monotone cubic through (x, y), x strictly increasing (Fritsch
    and Carlson 1980), as scipy's PchipInterpolator builds it: knot
    derivatives by the weighted harmonic mean of the adjacent slopes
    (Fritsch and Butland 1984; zero at a change of sign), three-point end
    derivatives, and a secant for two knots. Returns the per-piece
    coefficients of 1, s, s^2 and s^3 with s = u - x[k] on piece k."""
    h = np.diff(x)
    slope = np.diff(y) / h
    if x.size == 2:
        d = np.array([slope[0], slope[0]])
    else:
        d = np.zeros_like(y)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = ((np.sign(slope[1:]) != np.sign(slope[:-1]))
                | (slope[1:] == 0) | (slope[:-1] == 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w1 / slope[:-1] + w2 / slope[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / mean)
        d[0] = _pchip_end_slope(h[0], h[1], slope[0], slope[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], slope[-1], slope[-2])
    t = (d[:-1] + d[1:] - 2.0 * slope) / h
    return y[:-1], d[:-1], (slope - d[:-1]) / h - t, t / h


def _cell_masses(g, measure, nodes):
    """Mass of g*mu over each grid cell by 4-point Gauss-Legendre."""
    lo, hi = nodes[:-1], nodes[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = np.asarray(g(x.ravel()), dtype=float) * measure.density(x.ravel())
    vals = vals.reshape(x.shape)
    neg_floor = -1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    if np.any(vals < neg_floor):
        raise NegativeDensityError("density evaluated negatively on the grid")
    np.clip(vals, 0.0, None, out=vals)
    return (vals @ _GL_W) * half


def _sorted_distinct(x):
    """The distinct values of x in ascending order, for x without NaN: the
    nodes np.unique gives, without its first-call import of numpy.ma."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def refined_grid(g, measure, *, support=None, breakpoints=None):
    """Adaptive grid for tabulating the density g w.r.t. the measure.

    Starts from GRID_CELLS uniform cells on the support (plus any known
    ``breakpoints`` of g), then bisects cells heavier than
    GRID_MAX_CELL_MASS so that no single cell dominates the inverse CDF.
    Returns (nodes, cell_masses).
    """
    lo, hi = support if support is not None else measure.effective_support()
    nodes = np.linspace(lo, hi, GRID_CELLS + 1)
    if breakpoints is not None:
        pts = np.asarray(breakpoints, dtype=float)
        pts = pts[(pts > lo) & (pts < hi)]
        nodes = _sorted_distinct(np.concatenate((nodes, pts)))

    masses = _cell_masses(g, measure, nodes)
    for _ in range(GRID_REFINEMENTS):
        heavy = masses > GRID_MAX_CELL_MASS
        if not heavy.any():
            break
        extra = 0.5 * (nodes[:-1][heavy] + nodes[1:][heavy])
        nodes = _sorted_distinct(np.concatenate((nodes, extra)))
        masses = _cell_masses(g, measure, nodes)
    return nodes, masses


def build_density_sampler(g, measure, *, support=None, breakpoints=None):
    """Build a GridDensitySampler for the density g w.r.t. the measure.

    Parameters
    ----------
    g : callable
        Vectorized candidate density with respect to ``measure``; must
        integrate to 1 within GRID_MASS_TOL.
    measure : ReferenceMeasure
    support : (lo, hi), optional
        Interval to grid; defaults to the measure's effective support.
    breakpoints : array_like, optional
        Known breakpoints of g, added to the grid, see ``refined_grid``.
    """
    nodes, masses = refined_grid(g, measure, support=support,
                                 breakpoints=breakpoints)
    return GridDensitySampler(nodes, masses)
