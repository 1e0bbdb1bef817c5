"""Reference probability measures on the line, Gauss quadrature, and a grid
based inverse-CDF sampler for densities g with respect to the measure.

The samplers tabulate one such density per basis, the inverse Christoffel
density w_m of nu_m = w_m mu; the DPP conditionals are drawn by rejection
from nu_m and need no table of their own. The inverse CDF is a monotone
piecewise cubic (PCHIP) built and evaluated in numpy; scipy is imported
only when a Gauss rule is built.
"""

import os
import math

import numpy as np
from dataclasses import dataclass
from functools import lru_cache

from .errors import (EmptyDesignError, NegativeDensityError, NotADensityError,
                     UnsupportedOrderError, ValidationError)

DEFAULT_MAX_QUAD_ORDER = 2048
# LAPACK routine for the Gauss rules' tridiagonal eigenvalue problems,
# named so that results do not depend on the one scipy's 'auto' prefers;
# the samplers' matrix models reach the same dsterf through numpy's dsyevd
TRIDIAGONAL_DRIVER = "sterf"

# fixed 4-point Gauss-Legendre rule used per grid cell when integrating
# densities; exact on each cell for polynomials up to degree 7
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


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
    """Gauss rule for a probability measure: weights sum to 1 and the rule
    integrates polynomials up to degree 2*order - 1 exactly."""
    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, values_or_fn):
        vals = values_or_fn(self.nodes) if callable(values_or_fn) else values_or_fn
        return float(self.weights @ np.asarray(vals, dtype=float))


class ReferenceMeasure:
    """A 1-D probability measure with density, i.i.d. sampling and Gauss
    quadrature. Concrete kinds: UniformInterval, StandardGaussian."""

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
        nodes, weights = _gauss_jacobi_uniform(order)
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

    def gauss_quadrature(self, order):
        nodes, weights = _gauss_hermite_prob(order)
        return QuadratureRule(nodes, weights, order)

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


def _golub_welsch(offdiag):
    """Nodes and probability weights from a symmetric Jacobi matrix with
    zero diagonal (all our measures are symmetric).

    The nodes are the matrix's eigenvalues. Each weight is the Christoffel
    function at its node, 1 / sum_{k<q} p_k(x)^2, with p_k the orthonormal
    polynomials of the same three-term recurrence; the weights are then
    normalized to sum 1. Unlike squared first eigenvector components, which
    are accurate only relative to the largest weight, this keeps every
    weight accurate relative to itself, tail weights included. The
    recurrence is rescaled by powers of two as it grows, so it cannot
    overflow and the rescale itself is exact.
    """
    q = offdiag.size + 1
    if q == 1:
        nodes, weights = np.zeros(1), np.ones(1)
    else:
        # imported here, so that only the Gauss rules load scipy
        from scipy.linalg import eigvalsh_tridiagonal
        nodes = eigvalsh_tridiagonal(np.zeros(q), offdiag,
                                     lapack_driver=TRIDIAGONAL_DRIVER)
        prev, cur = np.zeros(q), np.ones(q)
        total = np.ones(q)
        shift = np.zeros(q, dtype=int)  # total is sum p_k^2 times 4^-shift
        back = 0.0
        for b in offdiag:
            prev, cur = cur, (nodes * cur - back * prev) / b
            back = b
            total += cur * cur
            big = total > 2.0 ** 500
            if big.any():
                e = np.frexp(total[big])[1] // 2
                prev[big] = np.ldexp(prev[big], -e)
                cur[big] = np.ldexp(cur[big], -e)
                total[big] = np.ldexp(total[big], -2 * e)
                shift[big] += e
        weights = np.ldexp(1.0 / total, -2 * shift)
        weights = weights / weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def _jacobi_uniform_cached(order):
    k = np.arange(1, order, dtype=float)
    return _golub_welsch(k / np.sqrt(4.0 * k * k - 1.0))


@lru_cache(maxsize=64)
def _hermite_prob_cached(order):
    k = np.arange(1, order, dtype=float)
    return _golub_welsch(np.sqrt(k))


def _gauss_jacobi_uniform(order):
    return _jacobi_uniform_cached(_check_order(order))


def _gauss_hermite_prob(order):
    return _hermite_prob_cached(_check_order(order))


class GridDensitySampler:
    """Inverse-CDF sampler for a density g with respect to a reference
    measure, tabulated on a grid.

    The cumulative masses are known at the grid nodes; within each run of
    positive-mass cells the inverse CDF is interpolated by a monotone
    piecewise cubic (PCHIP). Cells of zero mass are never selected, which
    keeps densities that vanish on whole intervals exact.
    """

    def __init__(self, nodes, cell_masses, tol):
        nodes = np.asarray(nodes, dtype=float)
        cell_masses = np.asarray(cell_masses, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        if cell_masses.size != nodes.size - 1:
            raise ValidationError("need one mass per grid cell")
        if np.any(cell_masses < 0):
            raise NegativeDensityError("negative cell mass")

        total = float(cell_masses.sum())
        if not math.isfinite(total) or abs(total - 1.0) > tol:
            raise NotADensityError(total, tol)

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
        scalar = n is None
        u = rng.random(1 if scalar else n)
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
        return float(out[0]) if scalar else out


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


def refined_grid(g, measure, *, support=None, initial_cells=2048,
                 max_cell_mass=1e-3, breakpoints=None, max_refinements=12):
    """Adaptive grid for tabulating the density g w.r.t. the measure.

    Starts from ``initial_cells`` uniform cells on the support (plus any
    known ``breakpoints`` of g), then bisects cells heavier than
    ``max_cell_mass`` so that no single cell dominates the inverse CDF.
    Returns (nodes, cell_masses).
    """
    lo, hi = support if support is not None else measure.effective_support()
    nodes = np.linspace(lo, hi, initial_cells + 1)
    if breakpoints is not None:
        pts = np.asarray(breakpoints, dtype=float)
        pts = pts[(pts > lo) & (pts < hi)]
        nodes = _sorted_distinct(np.concatenate((nodes, pts)))

    masses = _cell_masses(g, measure, nodes)
    for _ in range(max_refinements):
        heavy = masses > max_cell_mass
        if not heavy.any():
            break
        extra = 0.5 * (nodes[:-1][heavy] + nodes[1:][heavy])
        nodes = _sorted_distinct(np.concatenate((nodes, extra)))
        masses = _cell_masses(g, measure, nodes)
    return nodes, masses


def build_density_sampler(g, measure, tol=1e-8, *, support=None,
                          initial_cells=2048, max_cell_mass=1e-3,
                          breakpoints=None, max_refinements=12):
    """Build a GridDensitySampler for the density g w.r.t. the measure.

    Parameters
    ----------
    g : callable
        Vectorized candidate density with respect to ``measure``; must
        integrate to 1 within ``tol``.
    measure : ReferenceMeasure
    tol : float
        Mass-verification tolerance.
    support : (lo, hi), optional
        Interval to grid; defaults to the measure's effective support.
    initial_cells, max_cell_mass, breakpoints, max_refinements :
        Grid controls, see ``refined_grid``.
    """
    nodes, masses = refined_grid(
        g, measure, support=support, initial_cells=initial_cells,
        max_cell_mass=max_cell_mass, breakpoints=breakpoints,
        max_refinements=max_refinements)
    return GridDensitySampler(nodes, masses, tol)
