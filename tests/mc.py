"""Process-pooled Monte Carlo loops shared by the statistical tests.

Each helper is a job run through the experiment harness's replicate
runner (`experiments._run_replicates`), with the RNG stream
``replicate_stream(seed, replicate, KEY)``. The runner hands a job
function a block of streams at a time. The projection-DPP jobs draw the
whole block with one `draw_designs` call; the others are per-replicate
functions, which `_each` applies to every stream of the block. Either
way a helper's output is a pure function of (parameters, seed) no matter
how replicates are chunked across workers. KEY is an arbitrary integer,
distinct per helper, that keeps draws uncorrelated between helpers
sharing a seed.

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
from dppls.lsq import (empirical_gram, empirical_seminorm, weighted_gram,
                       weighted_lsq_fit)
from dppls.samplers import (Weight, draw_design, draw_designs,
                            sample_christoffel, sample_volume)

_WORKERS = min(8, os.cpu_count() or 1)


def _each(fn, *args_and_streams):
    """The runner's block interface for a per-replicate function: one
    fn(*args, stream) per stream of the block, its last argument."""
    *args, streams = args_and_streams
    return [fn(*args, stream) for stream in streams]


def _blocks(job, args, key, total, seed, workers):
    """job(*args, streams)'s records, one per stream, for each of `total`
    replicate streams on a pool opened for this call."""
    with _worker_pool(workers) as pool:
        [out] = _run_replicates([(job, args, (key,))], total, seed, workers,
                                pool)
    return out


def _replicates(fn, args, key, total, seed, workers):
    """[fn(*args, stream) for each of `total` replicate streams]."""
    return _blocks(_each, (fn, *args), key, total, seed, workers)


# ---------------------------------------------------------------------------
# projection-DPP draws, a block of streams at a time: at n = m the
# repeated-DPP scheme is one gamma_m draw per stream, so row i of the
# block is sample_dpp(basis, streams[i]) bit for bit

def _dpp_block(family, m, streams):
    """(points, weights, features) of one gamma_m draw per stream."""
    return draw_designs("repeated-dpp", _get_basis(family, m), m, streams)


def _pwc_block(m, streams):
    """(misses a cell, max |G - I| entry) per draw."""
    basis = _get_basis("pwc", m)
    pts, w, phi = _dpp_block("pwc", m, streams)
    cells = np.sort(basis.cell_index(pts), axis=1)
    dev = np.abs(weighted_gram(phi, w) - np.eye(m)).max(axis=(1, 2))
    return list(zip(np.any(cells != np.arange(m), axis=1).tolist(),
                    dev.tolist()))


def pwc_dpp_summary(m, total, seed, workers=_WORKERS):
    """(draws missing a cell, max |G - I| entry) over `total` draws."""
    draws = _blocks(_pwc_block, (m,), 901, total, seed, workers)
    return sum(bad for bad, _ in draws), max(dev for _, dev in draws)


def _dpp_points(family, m, streams):
    return list(_dpp_block(family, m, streams)[0])


def _dpp_first_coord(family, m, streams):
    return _dpp_block(family, m, streams)[0][:, 0].tolist()


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


def _volume_coord(family, m, n, alpha, coord, gen):
    basis = _get_basis(family, m)
    return sample_volume(basis, Weight(alpha), n, gen).points[coord]


def volume_coord(family, m, n, total, seed, alpha=0.0, coord=0,
                 workers=_WORKERS):
    """One fixed coordinate after the uniform permutation, with extras
    from the alpha-mixture (alpha = 0 is mu); its law is the
    single-coordinate marginal of the volume design."""
    return np.array(_replicates(_volume_coord, (family, m, n, alpha, coord),
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
