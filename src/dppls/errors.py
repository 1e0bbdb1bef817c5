"""Exception types shared across the package.

Each class maps to one failure mode of the sampling / fitting pipeline so
callers can react selectively (resample, abort, report).
"""


class DpplsError(Exception):
    """Base class for all package errors."""


class ValidationError(DpplsError, ValueError):
    """Invalid configuration or argument (bad range, wrong pairing, ...)."""


class EmptyDesignError(ValidationError):
    """A design or sample of size zero was requested."""


class UnderdeterminedDesignError(ValidationError):
    """Fewer points than basis functions where n >= m is required."""


class UnsupportedOrderError(ValidationError):
    """Quadrature order outside the supported range."""


class NotADensityError(DpplsError):
    """Numerical mass of a candidate density deviates too much from 1."""

    def __init__(self, mass, tol):
        self.mass = float(mass)
        self.tol = float(tol)
        super().__init__(f"density mass {self.mass!r} deviates from 1 by more "
                         f"than tol={self.tol!r}")


class NegativeDensityError(DpplsError):
    """A candidate density evaluated negatively on the sampling grid."""


class DegeneratePointError(DpplsError):
    """A new point's feature residual collapsed; the caller must resample."""


class SamplerFailureError(DpplsError):
    """A sampler used up its proposal budget without accepting a point."""


class ConditioningFailureError(DpplsError):
    """Rejection sampling did not hit the stability event in time.

    Carries the best (largest) lambda_min seen across all attempts.
    """

    def __init__(self, attempts, best_lambda_min):
        self.attempts = int(attempts)
        self.best_lambda_min = float(best_lambda_min)
        super().__init__(f"no design satisfied the stability event after "
                         f"{self.attempts} attempts "
                         f"(best lambda_min={self.best_lambda_min!r})")


class SingularDesignError(DpplsError):
    """Empirical Gram matrix numerically singular; no fit is produced."""

    def __init__(self, lambda_min):
        self.lambda_min = float(lambda_min)
        super().__init__(f"singular design: lambda_min={self.lambda_min!r}")


class QuadratureAccuracyError(DpplsError):
    """Adaptive quadrature did not converge below the order cap."""


class NumericError(DpplsError):
    """Non-finite values encountered where finite numbers are required."""


class EmptyAggregateError(ValidationError):
    """An aggregate (mean of fits, ...) over an empty collection."""
