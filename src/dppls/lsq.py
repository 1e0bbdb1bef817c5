"""Empirical Gram matrices, weighted least-squares fitting, exact-norm
error evaluation through adaptive quadrature, and averaging of
independent estimators.

A fit factors the row-scaled design matrix A, rows (n w_i)^{-1/2}
phi_i^T, by a reduced QR and solves R c = Q^T b; it never forms the
normal equations. Its lambda_min, which decides whether a design is
singular, is the smallest eigenvalue of the Gram matrix G^w = A^T A as
`empirical_gram` computes it. Fits and errors run on stacks of designs
(`weighted_lsq_fits`, `ErrorEvaluator.rel_errors`), one row at a time
in effect; the single-design functions are their k = 1 case.
"""

import math

import numpy as np
from dataclasses import dataclass

from .bases import PiecewiseConstantBasis
from .errors import (EmptyAggregateError, NumericError,
                     QuadratureAccuracyError, SingularDesignError,
                     ValidationError)
from .measures import QuadratureRule, max_quad_order

# lambda_min at or below this declares the design unusable; below unit
# roundoff amplification for m <= 50
SINGULARITY_THRESHOLD = 1e-12
ADAPTIVE_RTOL = 1e-10


@dataclass(frozen=True)
class EmpiricalGram:
    """G^w = (1/n) sum_i w(x_i)^{-1} phi(x_i) phi(x_i)^T with its extreme
    eigenvalues."""

    matrix: np.ndarray
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class LsqFit:
    """Coefficients of the empirical projection plus diagnostics."""

    coefficients: np.ndarray
    lambda_min: float
    n: int
    m: int
    sampler_id: str
    attempts: int


def _features(design, basis):
    """The feature rows the design carries, checked against the basis."""
    if design.features.shape[1] != basis.m:
        raise ValidationError(
            f"design carries {design.features.shape[1]} features, basis has "
            f"m={basis.m}")
    return design.features


def weighted_gram(phi, w):
    """G^w = (1/n) sum_i w_i^{-1} phi_i phi_i^T, symmetrized, from feature
    rows phi (..., n, m) and weights w (..., n); a stack of designs gives
    the stack of their Gram matrices, each as it would be on its own."""
    if not (np.isfinite(phi).all() and np.isfinite(w).all()):
        raise NumericError("non-finite feature or weight values")
    G = (phi.swapaxes(-1, -2) * (1.0 / (w * w.shape[-1]))[..., None, :]) @ phi
    return 0.5 * (G + G.swapaxes(-1, -2))


def empirical_gram(design, basis):
    """Empirical Gram matrix of the design under the feature rows and
    weights it carries; eigenvalues from a symmetric eigensolver."""
    G = weighted_gram(_features(design, basis), design.weights)
    evals = np.linalg.eigvalsh(G)
    return EmpiricalGram(G, float(evals[0]), float(evals[-1]))


def weighted_lsq_fits(f_values, weights, features):
    """Weighted least-squares fits of a stack of k designs: f_values and
    weights (k, n), features (k, n, m). Returns the coefficients (k, m)
    and each design's lambda_min (k,), bit for bit empirical_gram's; it
    is 0 when n < m. Only rows with lambda_min > SINGULARITY_THRESHOLD
    are solved (by QR, see the module docstring); the others read NaN
    coefficients, and rows whose A is not finite also read lambda_min
    NaN. A row does not depend on the stack it is in.
    """
    f_values, weights, features = (np.asarray(a, dtype=float)
                                   for a in (f_values, weights, features))
    k, n, m = features.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(n * weights)
    A = features * scale[..., None]
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(weights).all(axis=1)
    lam = np.full(k, np.nan)
    coef = np.full((k, m), np.nan)
    if finite.any():
        lam[finite] = (np.linalg.eigvalsh(weighted_gram(features[finite],
                                                        weights[finite]))[:, 0]
                       if n >= m else 0.0)
    solve = finite & (lam > SINGULARITY_THRESHOLD)
    if solve.any():
        Q, R = np.linalg.qr(A[solve])
        b = (f_values[solve] * scale[solve])[..., None]
        coef[solve] = np.linalg.solve(R, Q.swapaxes(-1, -2) @ b)[..., 0]
    return coef, lam


def weighted_lsq_fit(f_values, design, basis):
    """Coefficients minimizing (1/n) sum_i w(x_i)^{-1} (f(x_i) - g(x_i))^2
    over g in V_m: weighted_lsq_fits for one design. Raises NumericError
    for non-finite features or weights and SingularDesignError when
    lambda_min(G^w) <= SINGULARITY_THRESHOLD.
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (design.n,):
        raise ValidationError("f_values length must match the design size")
    [coef], [lam] = weighted_lsq_fits(f_values[None], design.weights[None],
                                      _features(design, basis)[None])
    if math.isnan(lam):
        raise NumericError("non-finite feature or weight values")
    if lam <= SINGULARITY_THRESHOLD:
        raise SingularDesignError(float(lam))
    return LsqFit(coef, float(lam), design.n, basis.m,
                  design.sampler_id, design.attempts)


def empirical_seminorm(f_values, design):
    """The weighted empirical semi-norm
    ||f||_n = ((1/n) sum_i w(x_i)^{-1} f(x_i)^2)^{1/2}."""
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (design.n,):
        raise ValidationError("f_values length must match the design size")
    return math.sqrt(float(np.mean(f_values * f_values / design.weights)))


def averaged_estimator(fits):
    """Coefficient-wise mean of independent fits (all sharing m)."""
    fits = list(fits)
    if not fits:
        raise EmptyAggregateError("cannot average zero fits")
    m = fits[0].m
    if any(fit.m != m for fit in fits):
        raise ValidationError("fits mix different basis dimensions")
    return np.mean([fit.coefficients for fit in fits], axis=0)


# ---------------------------------------------------------------------------
# quadrature-backed exact norms

def _rule_for(basis, order):
    """Quadrature for integrals of (basis function) x (smooth target).

    Polynomial families use the measure's Gauss rule directly. The
    piecewise-constant family gets a composite per-cell Gauss rule, since
    a global rule cannot see the cell boundaries.
    """
    if not isinstance(basis, PiecewiseConstantBasis):
        return basis.measure.gauss_quadrature(order)
    per_cell = max(2, math.ceil(order / basis.m))
    t, u = np.polynomial.legendre.leggauss(per_cell)
    edges = basis.cell_edges()
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = np.broadcast_to(u / u.sum() / basis.m, (basis.m, per_cell)).ravel()
    return QuadratureRule(nodes, weights.copy(), order)


def _adaptive(values_at, basis, quad=None, rtol=ADAPTIVE_RTOL):
    """Evaluate `values_at(rule)` at doubling quadrature orders until the
    result moves by less than rtol (relative), starting from `quad` or
    from order max(64, 2m)."""
    order = quad.order if quad is not None else max(64, 2 * basis.m)
    order = max(order, basis.m + 1)
    cap = max_quad_order()
    if order > cap:
        raise QuadratureAccuracyError(
            f"starting order {order} already exceeds the cap {cap}")
    prev = np.asarray(values_at(_rule_for(basis, order)), dtype=float)
    last_change = None
    while True:
        order *= 2
        if order > cap:
            raise QuadratureAccuracyError(
                f"quadrature not converged below order cap {cap} "
                f"(last relative change {last_change:.3e}); raise the "
                f"DPPLS_MAX_QUAD_ORDER environment variable"
                if last_change is not None else
                f"order cap {cap} leaves no room to double from "
                f"order {order // 2}")
        cur = np.asarray(values_at(_rule_for(basis, order)), dtype=float)
        last_change = _change(prev, cur)
        if last_change < rtol:
            return cur
        prev = cur


def _change(a, b):
    num = float(np.linalg.norm(np.atleast_1d(a - b)))
    den = max(1.0, float(np.linalg.norm(np.atleast_1d(b))))
    return num / den


def _f_moments(f, basis, quad):
    """Adaptively converged [||f||^2, integral of f phi_0, ..., f phi_{m-1}].

    Only integrals linear in the features are certified; the certified
    rule comes back with f and the features on its nodes, so that
    `_residual_norm` can integrate (f - phi c)^2 on it directly.
    """
    keep = {}

    def values_at(rule):
        fvals = np.asarray(f(rule.nodes), dtype=float)
        feats = basis.feature_matrix(rule.nodes)
        keep.update(rule=rule, fvals=fvals, feats=feats)
        norm2 = float(rule.weights @ (fvals * fvals))
        return np.concatenate(([norm2], feats.T @ (rule.weights * fvals)))

    converged = _adaptive(values_at, basis, quad)
    return float(converged[0]), converged[1:], keep


def _residual_norm(keep, c):
    """||f - phi c|| on the rule certified by `_f_moments`.

    The residual is integrated directly rather than through the expansion
    ||f||^2 - 2 c.a + ||c||^2, which cancels to a floor of about sqrt(eps)
    ||f|| when f is close to phi c. (phi c)^2 has degree below twice the
    rule's order, so its part is exact; the cross term is the certified
    f-moment.
    """
    r = keep["fvals"] - keep["feats"] @ c
    return math.sqrt(float(keep["rule"].weights @ (r * r)))


class ErrorEvaluator:
    """Precomputed context for evaluating many fits of one target.

    Fixes a converged quadrature rule once, caches the best-approximation
    coefficients and the exact norms; per-fit relative errors then cost
    one vector difference.
    """

    def __init__(self, f, basis, quad=None):
        self.basis = basis
        self.f = f
        norm2, coefs, keep = _f_moments(f, basis, quad)
        self.rule = keep["rule"]
        self.f_norm = math.sqrt(norm2)
        self.best_coefficients = coefs
        self.best_error = _residual_norm(keep, coefs)
        self.best_rel_error = self.best_error / self.f_norm

    def rel_errors(self, coefficients):
        """||f - phi^T c|| / ||f|| for each row c of a (k, m) stack, from
        the error split ||f - phi c||^2 = ||f - Pf||^2 + ||a - c||^2."""
        C = np.asarray(coefficients, dtype=float)
        if C.ndim != 2 or C.shape[1:] != self.best_coefficients.shape:
            raise ValidationError("coefficient rows must have length m")
        d = self.best_coefficients - C
        return np.sqrt(self.best_error ** 2 + (d * d).sum(axis=1)) / self.f_norm

    def rel_error(self, coefficients):
        """||f - phi^T c|| / ||f||: rel_errors for one vector."""
        return float(self.rel_errors(np.asarray(coefficients, dtype=float)[None])[0])

    def abs_error(self, coefficients):
        """||f - phi^T c||."""
        return self.rel_error(coefficients) * self.f_norm

    def f_values(self, xs):
        return np.asarray(self.f(xs), dtype=float)
