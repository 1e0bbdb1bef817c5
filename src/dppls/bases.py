"""Orthonormal feature maps phi: X -> R^m for the approximation space V_m,
the inverse Christoffel density w_m(x) = ||phi(x)||^2 / m, and the rotated
orthonormal frames used by the sequential DPP sampler.

Families: normalized Legendre (uniform measure), normalized probabilists'
Hermite (standard Gaussian), piecewise constant indicators (uniform).
"""

import math
from functools import lru_cache

import numpy as np
from dataclasses import dataclass

from .errors import DegeneratePointError, ValidationError
from .measures import StandardGaussian, UniformInterval

# residual norm^2 below 1e-12 * m means the candidate point is numerically
# inside the span of the current frame
DEGENERACY_THRESHOLD = 1e-12


class FeatureBasis:
    """Orthonormal basis of an m-dimensional space V_m in L^2_mu."""

    family = "abstract"

    def __init__(self, m, measure):
        if m < 1:
            raise ValidationError(f"basis dimension must be >= 1, got {m}")
        self.m = int(m)
        self.measure = measure

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, measure={self.measure!r})"

    def feature_matrix(self, xs):
        """Feature values phi(x) for an array of points, shape (len(xs), m)."""
        raise NotImplementedError

    def eval_features(self, x):
        """phi(x) at a single point, shape (m,)."""
        return self.feature_matrix(np.atleast_1d(np.asarray(x, dtype=float)))[0]

    def christoffel(self, xs):
        """w_m(x) = ||phi(x)||_2^2 / m, vectorized."""
        return christoffel_rows(
            self.feature_matrix(np.atleast_1d(np.asarray(xs, dtype=float))))


def christoffel_rows(phi):
    """w_m = ||phi(x)||_2^2 / m from the feature rows phi, shape (n, m)."""
    return (phi * phi).sum(axis=1) / phi.shape[1]


class LegendreBasis(FeatureBasis):
    """phi_k = sqrt(2k+1) P_k, orthonormal for the uniform measure (the
    interval is affinely mapped to [-1, 1])."""

    family = "legendre"

    def __init__(self, m, measure=None):
        measure = measure if measure is not None else UniformInterval(-1.0, 1.0)
        if not isinstance(measure, UniformInterval):
            raise ValidationError("Legendre basis requires a UniformInterval measure")
        super().__init__(m, measure)

    def feature_matrix(self, xs):
        xs = np.asarray(xs, dtype=float)
        a, b = self.measure.a, self.measure.b
        t = (2.0 * xs - a - b) / (b - a)
        out = np.empty((xs.size, self.m))
        out[:, 0] = 1.0
        if self.m > 1:
            out[:, 1] = t
        for k in range(1, self.m - 1):
            # standard three-term recurrence on P_k, normalized afterwards
            out[:, k + 1] = ((2 * k + 1) * t * out[:, k] - k * out[:, k - 1]) / (k + 1)
        out *= _legendre_norms(self.m)
        return out


@lru_cache(maxsize=None)
def _legendre_norms(m):
    """sqrt(2k + 1) for k < m, read-only, as every evaluation at this m
    shares them."""
    norms = np.sqrt(2.0 * np.arange(m) + 1.0)
    norms.flags.writeable = False
    return norms


class HermiteBasis(FeatureBasis):
    """phi_k = He_k / sqrt(k!), probabilists' Hermite polynomials normalized
    for the standard Gaussian.

    The recurrence runs directly on the normalized functions,
    phi_{k+1} = (x phi_k - sqrt(k) phi_{k-1}) / sqrt(k+1),
    so no factorial is ever formed and there is no overflow at large m.
    """

    family = "hermite"

    def __init__(self, m, measure=None):
        measure = measure if measure is not None else StandardGaussian()
        if not isinstance(measure, StandardGaussian):
            raise ValidationError("Hermite basis requires the StandardGaussian measure")
        super().__init__(m, measure)

    def feature_matrix(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty((xs.size, self.m))
        out[:, 0] = 1.0
        if self.m > 1:
            out[:, 1] = xs
        for k in range(1, self.m - 1):
            out[:, k + 1] = (xs * out[:, k] - math.sqrt(k) * out[:, k - 1]) / math.sqrt(k + 1)
        return out


class PiecewiseConstantBasis(FeatureBasis):
    """phi_j = sqrt(m) * indicator of the j-th of m equal cells of the
    interval; cells are half open, the last one closed at the right end."""

    family = "pwc"

    def __init__(self, m, measure=None):
        measure = measure if measure is not None else UniformInterval(0.0, 1.0)
        if not isinstance(measure, UniformInterval):
            raise ValidationError("piecewise-constant basis requires a UniformInterval measure")
        super().__init__(m, measure)

    def cell_edges(self):
        return np.linspace(self.measure.a, self.measure.b, self.m + 1)

    def cell_index(self, xs):
        """Owning cell of each point, -1 outside the interval."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.measure.a, self.measure.b
        t = (xs - a) / (b - a)
        idx = np.floor(t * self.m).astype(int)
        idx[t == 1.0] = self.m - 1
        idx[(t < 0.0) | (t > 1.0)] = -1
        return idx

    def feature_matrix(self, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        idx = self.cell_index(xs)
        out = np.zeros((xs.size, self.m))
        inside = idx >= 0
        out[np.flatnonzero(inside), idx[inside]] = math.sqrt(self.m)
        return out


@dataclass(frozen=True)
class RotatedBasisState:
    """Orthonormal frame v_1..v_k of the subspace W_k spanned by the
    features of the points conditioned on so far. Immutable; extension
    returns a new state."""

    vectors: np.ndarray  # shape (k, m)

    @property
    def k(self):
        return self.vectors.shape[0]

    @property
    def m(self):
        return self.vectors.shape[1]


def empty_rotation(m):
    """State with no conditioned points."""
    return RotatedBasisState(np.zeros((0, m)))


def extend_rotation(state, basis, x_new):
    """Append the normalized feature residual of x_new to the frame.

    One re-orthogonalization pass keeps the frame orthonormal to machine
    precision (twice-is-enough Gram-Schmidt). Raises DegeneratePointError
    when the residual collapses; the caller is expected to resample.
    """
    if state.k >= basis.m:
        raise ValidationError("rotation state already spans V_m")
    v = basis.eval_features(x_new)
    if state.k:
        v = v - state.vectors.T @ (state.vectors @ v)
        v = v - state.vectors.T @ (state.vectors @ v)
    norm2 = float(v @ v)
    if norm2 < DEGENERACY_THRESHOLD * basis.m:
        raise DegeneratePointError(
            f"feature residual at x={x_new!r} has norm^2 {norm2!r}")
    new = np.vstack((state.vectors, v / math.sqrt(norm2)))
    return RotatedBasisState(new)


BASIS_FAMILIES = {
    "legendre": LegendreBasis,
    "hermite": HermiteBasis,
    "pwc": PiecewiseConstantBasis,
}


def make_basis(family, m, measure=None):
    """Construct a basis by family name ('legendre', 'hermite', 'pwc')."""
    try:
        cls = BASIS_FAMILIES[family]
    except KeyError:
        raise ValidationError(f"unknown basis family {family!r}") from None
    return cls(m, measure)
