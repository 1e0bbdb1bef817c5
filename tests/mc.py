"""Process-pooled Monte Carlo loops shared by the statistical tests.

Each helper is a per-replicate function run through the experiment
harness's replicate runner (`experiments._run_replicates`), with the RNG
stream ``replicate_stream(seed, replicate, KEY)``. The runner hands a job
function a block of streams at a time, and `_each` applies the helper to
every stream of the block. Its output is therefore a pure function of
(parameters, seed) no matter how replicates are chunked across workers.
KEY is an arbitrary integer, distinct per helper, that keeps draws
uncorrelated between helpers sharing a seed.

Pools, bases and evaluators come from the harness as well
(`experiments._worker_pool`, `_get_basis`, `_get_evaluator`): a pool
lives for one helper call, and each worker builds a basis at most once
in it.
"""

import math
import os

import numpy as np

from dppls.experiments import (TARGETS, _get_basis, _get_evaluator,
                               _run_replicates, _worker_pool)
from dppls.lsq import empirical_gram, empirical_seminorm, weighted_lsq_fit
from dppls.samplers import (draw_design, make_weight, sample_christoffel,
                            sample_dpp, sample_volume)

_WORKERS = min(8, os.cpu_count() or 1)


def _each(fn, *args_and_streams):
    """The runner's block interface for a per-replicate function: one
    fn(*args, stream) per stream of the block, its last argument."""
    *args, streams = args_and_streams
    return [fn(*args, stream) for stream in streams]


def _replicates(fn, args, key, total, seed, workers):
    """[fn(*args, stream) for each of `total` replicate streams] on a pool
    opened for this call."""
    with _worker_pool(workers) as pool:
        [out] = _run_replicates([(_each, (fn, *args), (key,))], total, seed,
                                workers, pool)
    return out


# ---------------------------------------------------------------------------
# piecewise-constant projection draws: cell occupancy and Gram deviation

def _pwc_draw(m, gen):
    basis = _get_basis("pwc", m)
    design = sample_dpp(basis, gen)
    cells = np.sort(basis.cell_index(design.points))
    dev = np.abs(empirical_gram(design, basis).matrix - np.eye(m)).max()
    return not np.array_equal(cells, np.arange(m)), float(dev)


def pwc_dpp_summary(m, total, seed, workers=_WORKERS):
    """(draws missing a cell, max |G - I| entry) over `total` draws."""
    draws = _replicates(_pwc_draw, (m,), 901, total, seed, workers)
    return sum(bad for bad, _ in draws), max(dev for _, dev in draws)


# ---------------------------------------------------------------------------
# projection-DPP coordinate pools

def _dpp_points(family, m, gen):
    return sample_dpp(_get_basis(family, m), gen).points


def _dpp_first_coord(family, m, gen):
    return _dpp_points(family, m, gen)[0]


def dpp_first_coords(family, m, total, seed, workers=_WORKERS):
    return np.array(_replicates(_dpp_first_coord, (family, m), 902, total,
                                seed, workers))


def dpp_all_coords(family, m, total, seed, workers=_WORKERS):
    """All m coordinates of `total` draws pooled (the joint law is
    exchangeable, so each coordinate is marginally nu_m)."""
    return np.concatenate(_replicates(_dpp_points, (family, m), 903, total,
                                      seed, workers))


# ---------------------------------------------------------------------------
# volume designs: fits, inverse-Gram traces, coordinate pools

def _volume_coef(family, m, n, gen):
    basis = _get_basis(family, m)
    design = draw_design("volume", basis, n, gen)
    f = TARGETS["inv-quad"].evaluator
    return weighted_lsq_fit(f(design.points), design, basis).coefficients


def volume_coefficients(family, m, n, total, seed, workers=_WORKERS):
    return np.array(_replicates(_volume_coef, (family, m, n), 904, total,
                                seed, workers))


def _trace_inv(family, m, n, gen):
    basis = _get_basis(family, m)
    G = empirical_gram(draw_design("volume", basis, n, gen), basis).matrix
    return np.trace(np.linalg.inv(G))


def volume_trace_inv(family, m, n, total, seed, workers=_WORKERS):
    return np.array(_replicates(_trace_inv, (family, m, n), 905, total,
                                seed, workers))


def _volume_coord(family, m, n, weight_kind, coord, gen):
    basis = _get_basis(family, m)
    return sample_volume(basis, make_weight(weight_kind), n, gen).points[coord]


def volume_coord(family, m, n, total, seed, weight_kind="unit", coord=0,
                 workers=_WORKERS):
    """One fixed coordinate after the uniform permutation; its law is the
    single-coordinate marginal of the volume design."""
    return np.array(_replicates(_volume_coord, (family, m, n, weight_kind, coord),
                                906, total, seed, workers))


# ---------------------------------------------------------------------------
# i.i.d. Christoffel designs: Gram averages, seminorm replicates, pools

def _christoffel_gram(family, m, n, gen):
    basis = _get_basis(family, m)
    return empirical_gram(draw_design("iid-christoffel", basis, n, gen),
                          basis).matrix


def gram_mean_stats(family, m, n, total, seed, workers=_WORKERS):
    """(entrywise mean, entrywise standard error) of G^w over replicates."""
    grams = np.array(_replicates(_christoffel_gram, (family, m, n), 907,
                                 total, seed, workers))
    return grams.mean(axis=0), grams.std(axis=0) / math.sqrt(total)


def _seminorm_square(family, m, n, gen):
    design = draw_design("iid-christoffel", _get_basis(family, m), n, gen)
    return empirical_seminorm(design.points, design) ** 2


def seminorm_squares(family, m, n, total, seed, workers=_WORKERS):
    """||f||_n^2 replicates for f(x) = x under i.i.d. nu_m designs."""
    return np.array(_replicates(_seminorm_square, (family, m, n), 908, total,
                                seed, workers))


def _christoffel_point(family, m, gen):
    return sample_christoffel(_get_basis(family, m), gen)


def christoffel_points(family, m, total, seed, workers=_WORKERS):
    return np.array(_replicates(_christoffel_point, (family, m), 909, total,
                                seed, workers))


# ---------------------------------------------------------------------------
# direct relative-error replicates (bypasses the experiment drivers)

def _rel_error(family, m, n, scheme, gen):
    basis = _get_basis(family, m)
    ev = _get_evaluator(family, m, "inv-quad")
    design = draw_design(scheme, basis, n, gen)
    fit = weighted_lsq_fit(ev.f_values(design.points), design, basis)
    return ev.rel_error(fit.coefficients)


def rel_errors(family, m, n, scheme, total, seed, workers=_WORKERS):
    return np.array(_replicates(_rel_error, (family, m, n, scheme), 910, total,
                                seed, workers))
