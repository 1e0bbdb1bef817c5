"""Process-pooled Monte Carlo loops shared by the statistical tests.

Each helper is a job run through the experiment harness's replicate
runner (`experiments._run_replicates`), with the RNG stream
``replicate_stream(seed, replicate, KEY)``. The runner hands a job
function a block of streams at a time, and every job draws the whole
block at once: one `draw_designs` call, then one stacked fit, Gram
product or inverse over the stack. Row i of a block is the design that
stream i alone would draw, bit for bit, so a helper's output is a pure
function of (parameters, seed) no matter how replicates are chunked
across workers. KEY is an arbitrary integer, distinct per helper, that
keeps draws uncorrelated between helpers sharing a seed.

Relative errors come from the error-table job itself
(`experiments._error_block`), run through the same runner.

Pools and bases come from the harness as well (`experiments._worker_pool`,
`_get_basis`): a pool lives for one helper call, and each worker builds a
basis at most once in it.
"""

import math
import os

import numpy as np

from dppls.experiments import (TARGETS, ExperimentConfig, _error_block,
                               _get_basis, _run_replicates, _worker_pool)
from dppls.lsq import weighted_gram, weighted_lsq_fits
from dppls.samplers import Weight, _layout, draw_designs

_WORKERS = min(8, os.cpu_count() or 1)


def _blocks(job, args, key, total, seed, workers):
    """job(*args, streams)'s records, one per stream, for each of `total`
    replicate streams on a pool opened for this call."""
    with _worker_pool(workers) as pool:
        [out] = _run_replicates([(job, args, (key,))], total, seed, workers,
                                pool)
    return out


def _designs(scheme, family, m, n, streams):
    """(points, weights, features) of one n-point design per stream."""
    return draw_designs(scheme, _get_basis(family, m), n, streams)


# ---------------------------------------------------------------------------
# projection-DPP draws: at n = m the repeated-DPP scheme is one gamma_m
# draw per stream, so row i of the block is sample_dpp(basis, streams[i])
# bit for bit

def _pwc_block(m, streams):
    """(misses a cell, max |G - I| entry) per draw."""
    basis = _get_basis("pwc", m)
    pts, w, phi = _designs("repeated-dpp", "pwc", m, m, streams)
    cells = np.sort(basis.cell_index(pts), axis=1)
    dev = np.abs(weighted_gram(phi, w) - np.eye(m)).max(axis=(1, 2))
    return list(zip(np.any(cells != np.arange(m), axis=1).tolist(),
                    dev.tolist()))


def pwc_dpp_summary(m, total, seed, workers=_WORKERS):
    """(draws missing a cell, max |G - I| entry) over `total` draws."""
    draws = _blocks(_pwc_block, (m,), 901, total, seed, workers)
    return sum(bad for bad, _ in draws), max(dev for _, dev in draws)


def _dpp_points(family, m, streams):
    return list(_designs("repeated-dpp", family, m, m, streams)[0])


def _dpp_first_coord(family, m, streams):
    return _designs("repeated-dpp", family, m, m, streams)[0][:, 0].tolist()


def dpp_first_coords(family, m, total, seed, workers=_WORKERS):
    return np.array(_blocks(_dpp_first_coord, (family, m), 902, total,
                            seed, workers))


def dpp_all_coords(family, m, total, seed, workers=_WORKERS):
    """All m coordinates of `total` draws pooled (the joint law is
    exchangeable, so each coordinate is marginally nu_m)."""
    return np.concatenate(_blocks(_dpp_points, (family, m), 903, total,
                                  seed, workers))


# ---------------------------------------------------------------------------
# volume designs: fits, inverse-Gram traces, coordinate pools

def _volume_coef(family, m, n, streams):
    pts, w, phi = _designs("volume", family, m, n, streams)
    return list(weighted_lsq_fits(TARGETS["inv-quad"].evaluator(pts), w,
                                  phi)[0])


def volume_coefficients(family, m, n, total, seed, workers=_WORKERS):
    return np.array(_blocks(_volume_coef, (family, m, n), 904, total, seed,
                            workers))


def _trace_inv(family, m, n, streams):
    _, w, phi = _designs("volume", family, m, n, streams)
    return np.trace(np.linalg.inv(weighted_gram(phi, w)), axis1=1,
                    axis2=2).tolist()


def volume_trace_inv(family, m, n, total, seed, workers=_WORKERS):
    return np.array(_blocks(_trace_inv, (family, m, n), 905, total, seed,
                            workers))


def _volume_coord(family, m, n, alpha, coord, streams):
    # the volume layout itself: scheme_weight, and so draw_designs, does
    # not admit the alpha = 0 filler mu
    basis = _get_basis(family, m)
    layout = _layout("volume", basis, n, Weight(alpha))
    pts, _, _ = layout.transform(basis, [layout.numbers(basis, gen)
                                         for gen in streams])
    return pts[:, coord].tolist()


def volume_coord(family, m, n, total, seed, alpha=0.0, coord=0,
                 workers=_WORKERS):
    """One fixed coordinate after the uniform permutation, with extras
    from the alpha-mixture (alpha = 0 is mu); its law is the
    single-coordinate marginal of the volume design."""
    return np.array(_blocks(_volume_coord, (family, m, n, alpha, coord), 906,
                            total, seed, workers))


# ---------------------------------------------------------------------------
# i.i.d. Christoffel designs: Gram averages, seminorm replicates, pools

def _christoffel_gram(family, m, n, streams):
    _, w, phi = _designs("iid-christoffel", family, m, n, streams)
    return list(weighted_gram(phi, w))


def gram_mean_stats(family, m, n, total, seed, workers=_WORKERS):
    """(entrywise mean, entrywise standard error) of G^w over replicates."""
    grams = np.array(_blocks(_christoffel_gram, (family, m, n), 907, total,
                             seed, workers))
    return grams.mean(axis=0), grams.std(axis=0) / math.sqrt(total)


def _seminorm_square(family, m, n, streams):
    # squared by Python's float power, as empirical_seminorm(...) ** 2
    # is: numpy's x ** 2 rounds a few of these values differently
    x, w, _ = _designs("iid-christoffel", family, m, n, streams)
    return [math.sqrt(v) ** 2 for v in np.mean(x * x / w, axis=1).tolist()]


def seminorm_squares(family, m, n, total, seed, workers=_WORKERS):
    """||f||_n^2 replicates for f(x) = x under i.i.d. nu_m designs."""
    return np.array(_blocks(_seminorm_square, (family, m, n), 908, total,
                            seed, workers))


def _christoffel_point(family, m, streams):
    return _designs("iid-christoffel", family, m, 1, streams)[0][:, 0].tolist()


def christoffel_points(family, m, total, seed, workers=_WORKERS):
    return np.array(_blocks(_christoffel_point, (family, m), 909, total, seed,
                            workers))


# ---------------------------------------------------------------------------
# relative-error replicates of the error-table job

def rel_errors(family, m, n, scheme, total, seed, workers=_WORKERS):
    """Relative errors of `total` inv-quad fits, each of which must read
    "ok" (not capped, not failed)."""
    config = ExperimentConfig(basis_family=family, schemes=(scheme,),
                              m_values=(m,), n_values=(n,), replicates=total,
                              seed=seed, workers=workers)
    with _worker_pool(workers) as pool:
        [records] = _run_replicates(
            [(_error_block, (config, m, n, scheme), (910,))], total, seed,
            workers, pool)
    assert all(status == "ok" for status, _ in records)
    return np.array([err for _, err in records])
