"""Weighted least-squares approximation of functions in L^2_mu from
random point evaluations.

The package provides reference measures with Gauss quadrature
(`measures`), orthonormal feature bases (`bases`), the random design
samplers built on the inverse Christoffel density and the projection
process (`samplers`), weighted least-squares fitting with exact-norm
error evaluation (`lsq`), matrix-Chernoff sample-size calculators
(`bounds`), and a seeded CSV experiment harness with a CLI
(`experiments`, `cli`).
"""

from .errors import (ConditioningFailureError, DegeneratePointError,
                     DpplsError, EmptyAggregateError, EmptyDesignError,
                     NegativeDensityError, NotADensityError, NumericError,
                     QuadratureAccuracyError, SamplerFailureError,
                     SingularDesignError, UnderdeterminedDesignError,
                     UnsupportedOrderError, ValidationError)
from .measures import (GridDensitySampler, QuadratureRule, ReferenceMeasure,
                       StandardGaussian, UniformInterval,
                       build_density_sampler, max_quad_order)
from .bases import (FeatureBasis, HermiteBasis, LegendreBasis,
                    PiecewiseConstantBasis, RotatedBasisState, empty_rotation,
                    extend_rotation, make_basis)
from .samplers import (DesignSample, SCHEMES, Weight, draw_design, make_weight,
                       replicate_stream, replicate_streams, sample_christoffel,
                       sample_conditioned, sample_dpp, sample_repeated_dpp,
                       sample_volume, scheme_weight)
from .lsq import (EmpiricalGram, ErrorEvaluator, LsqFit, averaged_estimator,
                  empirical_gram, empirical_seminorm, weighted_lsq_fit,
                  weighted_lsq_fits)
from .bounds import (ChernoffConstants, TheoryBound, chernoff_constants,
                     dpp_chernoff_failure, iid_sample_size, k_constant,
                     mixed_stability_bound, quasi_optimality_constant,
                     repeated_dpp_sample_size, required_sample_size,
                     stability_failure_bound, theory_bound,
                     volume_sample_size)
from .experiments import (ExperimentConfig, TargetFunction, TARGETS,
                          conjecture_check, dump_design, error_histogram,
                          error_table, minimal_stable_n, stability_map)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
