"""Process-pooled Monte Carlo loops shared by the statistical tests.

Every helper derives one RNG stream per replicate through
``replicate_stream(seed, replicate, KEY)``, so its output is a pure
function of (parameters, seed) no matter how replicates are chunked
across workers. KEY is an arbitrary integer, distinct per helper, that
keeps draws uncorrelated between helpers sharing a seed.

Pools, bases and evaluators come from the experiment harness
(`experiments._worker_pool`, `_get_basis`, `_get_evaluator`): a pool
lives for one helper call, and each worker builds a basis at most once
in it.
"""

import math
import os

import numpy as np

from dppls.experiments import TARGETS, _get_basis, _get_evaluator, _worker_pool
from dppls.lsq import empirical_gram, empirical_seminorm, weighted_lsq_fit
from dppls.samplers import (draw_design, make_weight, replicate_stream,
                            sample_christoffel, sample_dpp, sample_volume)

_WORKERS = min(8, os.cpu_count() or 1)


def _ranges(total, pieces):
    step = math.ceil(total / pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run(fn, tasks, workers):
    with _worker_pool(workers) as pool:
        return list((map if pool is None else pool.map)(fn, tasks))


def _pooled_array(fn, payload, total, seed, workers):
    tasks = [payload + (lo, hi, seed) for lo, hi in _ranges(total, workers * 4)]
    return np.concatenate(_run(fn, tasks, workers))


# ---------------------------------------------------------------------------
# piecewise-constant projection draws: cell occupancy and Gram deviation

def _pwc_chunk(task):
    m, lo, hi, seed = task
    basis = _get_basis("pwc", m)
    expected = np.arange(m)
    bad = 0
    worst = 0.0
    eye = np.eye(m)
    for rep in range(lo, hi):
        design = sample_dpp(basis, replicate_stream(seed, rep, 901))
        cells = np.sort(basis.cell_index(design.points))
        if not np.array_equal(cells, expected):
            bad += 1
        dev = np.abs(empirical_gram(design, basis).matrix - eye).max()
        worst = max(worst, dev)
    return bad, worst


def pwc_dpp_summary(m, total, seed, workers=_WORKERS):
    """(draws missing a cell, max |G - I| entry) over `total` draws."""
    tasks = [(m, lo, hi, seed) for lo, hi in _ranges(total, workers * 4)]
    parts = _run(_pwc_chunk, tasks, workers)
    return sum(p[0] for p in parts), max(p[1] for p in parts)


# ---------------------------------------------------------------------------
# projection-DPP coordinate pools

def _first_coord_chunk(task):
    family, m, lo, hi, seed = task
    basis = _get_basis(family, m)
    return np.array([sample_dpp(basis, replicate_stream(seed, rep, 902)).points[0]
                     for rep in range(lo, hi)])


def dpp_first_coords(family, m, total, seed, workers=_WORKERS):
    return _pooled_array(_first_coord_chunk, (family, m), total, seed, workers)


def _all_coords_chunk(task):
    family, m, lo, hi, seed = task
    basis = _get_basis(family, m)
    return np.concatenate(
        [sample_dpp(basis, replicate_stream(seed, rep, 903)).points
         for rep in range(lo, hi)])


def dpp_all_coords(family, m, total, seed, workers=_WORKERS):
    """All m coordinates of `total` draws pooled (the joint law is
    exchangeable, so each coordinate is marginally nu_m)."""
    return _pooled_array(_all_coords_chunk, (family, m), total, seed, workers)


# ---------------------------------------------------------------------------
# volume designs: fits, inverse-Gram traces, coordinate pools

def _volume_coef_chunk(task):
    family, m, n, lo, hi, seed = task
    basis = _get_basis(family, m)
    f = TARGETS["inv-quad"].evaluator
    out = np.empty((hi - lo, m))
    for i, rep in enumerate(range(lo, hi)):
        design = draw_design("volume", basis, n, replicate_stream(seed, rep, 904))
        out[i] = weighted_lsq_fit(f(design.points), design, basis).coefficients
    return out


def volume_coefficients(family, m, n, total, seed, workers=_WORKERS):
    tasks = [(family, m, n, lo, hi, seed) for lo, hi in _ranges(total, workers * 4)]
    return np.vstack(_run(_volume_coef_chunk, tasks, workers))


def _trace_inv_chunk(task):
    family, m, n, lo, hi, seed = task
    basis = _get_basis(family, m)
    out = np.empty(hi - lo)
    for i, rep in enumerate(range(lo, hi)):
        design = draw_design("volume", basis, n, replicate_stream(seed, rep, 905))
        G = empirical_gram(design, basis).matrix
        out[i] = np.trace(np.linalg.inv(G))
    return out


def volume_trace_inv(family, m, n, total, seed, workers=_WORKERS):
    tasks = [(family, m, n, lo, hi, seed) for lo, hi in _ranges(total, workers * 4)]
    return np.concatenate(_run(_trace_inv_chunk, tasks, workers))


def _volume_coord_chunk(task):
    family, m, n, weight_kind, coord, lo, hi, seed = task
    basis = _get_basis(family, m)
    w = make_weight(weight_kind)
    return np.array(
        [sample_volume(basis, w, n, replicate_stream(seed, rep, 906)).points[coord]
         for rep in range(lo, hi)])


def volume_coord(family, m, n, total, seed, weight_kind="unit", coord=0,
                 workers=_WORKERS):
    """One fixed coordinate after the uniform permutation; its law is the
    single-coordinate marginal of the volume design."""
    tasks = [(family, m, n, weight_kind, coord, lo, hi, seed)
             for lo, hi in _ranges(total, workers * 4)]
    return np.concatenate(_run(_volume_coord_chunk, tasks, workers))


# ---------------------------------------------------------------------------
# i.i.d. Christoffel designs: Gram averages, seminorm replicates, pools

def _gram_sum_chunk(task):
    family, m, n, lo, hi, seed = task
    basis = _get_basis(family, m)
    s = np.zeros((m, m))
    s2 = np.zeros((m, m))
    for rep in range(lo, hi):
        design = draw_design("iid-christoffel", basis, n,
                             replicate_stream(seed, rep, 907))
        G = empirical_gram(design, basis).matrix
        s += G
        s2 += G * G
    return s, s2


def gram_mean_stats(family, m, n, total, seed, workers=_WORKERS):
    """(entrywise mean, entrywise standard error) of G^w over replicates."""
    tasks = [(family, m, n, lo, hi, seed) for lo, hi in _ranges(total, workers * 4)]
    parts = _run(_gram_sum_chunk, tasks, workers)
    s = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s / total
    var = np.maximum(s2 / total - mean * mean, 0.0)
    return mean, np.sqrt(var / total)


def _seminorm_chunk(task):
    family, m, n, lo, hi, seed = task
    basis = _get_basis(family, m)
    out = np.empty(hi - lo)
    for i, rep in enumerate(range(lo, hi)):
        design = draw_design("iid-christoffel", basis, n,
                             replicate_stream(seed, rep, 908))
        out[i] = empirical_seminorm(design.points, design) ** 2
    return out


def seminorm_squares(family, m, n, total, seed, workers=_WORKERS):
    """||f||_n^2 replicates for f(x) = x under i.i.d. nu_m designs."""
    tasks = [(family, m, n, lo, hi, seed) for lo, hi in _ranges(total, workers * 4)]
    return np.concatenate(_run(_seminorm_chunk, tasks, workers))


def _christoffel_chunk(task):
    family, m, lo, hi, seed = task
    basis = _get_basis(family, m)
    return np.array([sample_christoffel(basis, replicate_stream(seed, rep, 909))
                     for rep in range(lo, hi)])


def christoffel_points(family, m, total, seed, workers=_WORKERS):
    return _pooled_array(_christoffel_chunk, (family, m), total, seed, workers)


# ---------------------------------------------------------------------------
# direct relative-error replicates (bypasses the experiment drivers)

def _rel_error_chunk(task):
    family, m, n, scheme, lo, hi, seed = task
    basis = _get_basis(family, m)
    ev = _get_evaluator(family, m, "inv-quad")
    out = np.empty(hi - lo)
    for i, rep in enumerate(range(lo, hi)):
        design = draw_design(scheme, basis, n, replicate_stream(seed, rep, 910))
        fit = weighted_lsq_fit(ev.f_values(design.points), design, basis)
        out[i] = ev.rel_error(fit.coefficients)
    return out


def rel_errors(family, m, n, scheme, total, seed, workers=_WORKERS):
    tasks = [(family, m, n, scheme, lo, hi, seed)
             for lo, hi in _ranges(total, workers * 4)]
    return np.concatenate(_run(_rel_error_chunk, tasks, workers))
