"""Seeded Monte Carlo experiment harness: stability maps, error tables,
error histograms, the spectral-tail comparison between the projection
process and i.i.d. sampling, and design dumps, all emitted as CSV.

Every run is a pure function of its configuration and seed. Each
replicate owns an RNG stream derived from (seed, replicate, cell), so
splitting replicates across any number of worker processes cannot change
a single output byte.

A job function takes a chunk's replicate streams in blocks of at most
BLOCK, built by one `samplers.replicate_streams` call, and returns one
record per stream, in order. The stability and error jobs draw a block
in one pass, in sub-blocks of at most BLOCK_ELEMENTS feature values:
`samplers.draw_designs` takes each stream's random numbers in turn, then
draws every design of the sub-block with one stacked eigenvalue call,
one nu_m inverse and one feature evaluation. The conditioned scheme
draws design by design through `samplers.draw_design` into the same
stacked arrays. The stability job then takes the block's Gram matrices
and their smallest eigenvalues in one stacked call each; the error job
evaluates f once over the sub-block's points, fits it with one
`lsq.weighted_lsq_fits` call (one stacked eigvalsh, QR and solve) and
scores it with one `ErrorEvaluator.rel_errors` call. The tail-comparison
job draws design by design and takes its block's smallest eigenvalues in
one stacked eigvalsh. Every stacked step treats each row or matrix on
its own, so a record does not depend on the block it was computed in.
"""

import csv
import io
import math
import os
import sys

import numpy as np
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from .bases import BASIS_FAMILIES, make_basis
from .errors import DpplsError, ValidationError
# empirical_gram, weighted_lsq_fit and replicate_stream are unused here
# but stay importable: the benchmark's tracer wraps them under this module
from .lsq import (SINGULARITY_THRESHOLD, ErrorEvaluator,  # noqa: F401
                  empirical_gram, weighted_gram, weighted_lsq_fit,
                  weighted_lsq_fits)
from .measures import max_quad_order
from .samplers import (SCHEMES, canonical_scheme, draw_design,  # noqa: F401
                       draw_designs, replicate_stream, replicate_streams)

BLOWUP_CAP = 1e15
DEFAULT_M_VALUES = (10, 20, 30, 40, 50)
DEFAULT_N_MULTIPLIERS = (2, 5, 10)
DEFAULT_DELTA = 0.75
STABILITY_SCHEMES = ("iid-mu", "iid-christoffel", "volume", "repeated-dpp")
# replicate streams per job-function call: enough to spread eigvalsh's
# per-call cost, few enough that a block's Gram array stays small
BLOCK = 256
# feature values (streams x n x m) per stacked draw of a block, 2 MB of
# float64: a block is drawn in sub-blocks of at most this size
BLOCK_ELEMENTS = 1 << 18
# consecutive n per round trip of minimal_stable_n's walk
WINDOW = 8


@dataclass(frozen=True)
class TargetFunction:
    """A named target f to approximate; the evaluator must be finite on
    the effective support of the measure in use."""

    id: str
    evaluator: object


def _inv_quad(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + 2.0 * x * x)


TARGETS = {
    "inv-quad": TargetFunction("inv-quad", _inv_quad),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiment drivers.

    Exactly one of n_values (absolute sizes) and n_multipliers (factors
    of m) is used; when both are None the defaults n = 2m, 5m, 10m apply.
    """

    basis_family: str = "hermite"
    schemes: tuple = SCHEMES
    m_values: tuple = DEFAULT_M_VALUES
    n_values: tuple = None
    n_multipliers: tuple = None
    alpha: float = 1.0
    delta: float = DEFAULT_DELTA
    replicates: int = 1000
    seed: int = 0
    target_id: str = "inv-quad"
    workers: int = 1
    max_attempts: int = 1000

    def __post_init__(self):
        if self.basis_family not in BASIS_FAMILIES:
            raise ValidationError(f"unknown basis family {self.basis_family!r}")
        object.__setattr__(self, "schemes",
                           tuple(canonical_scheme(s) for s in self.schemes))
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValidationError(f"unknown scheme {s!r}")
        if not self.schemes:
            raise ValidationError("at least one scheme is required")
        if not self.m_values:
            raise ValidationError("at least one m value is required")
        for m in self.m_values:
            if int(m) < 1:
                raise ValidationError(f"m must be >= 1, got {m}")
        if self.n_values is not None and self.n_multipliers is not None:
            raise ValidationError("give n_values or n_multipliers, not both")
        if int(self.replicates) < 1:
            raise ValidationError(f"replicates must be >= 1, got {self.replicates}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in (0,1], got {self.alpha}")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must lie in (0,1), got {self.delta}")
        if self.target_id not in TARGETS:
            raise ValidationError(f"unknown target {self.target_id!r}")
        if int(self.workers) < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")

    def n_for(self, m):
        if self.n_values is not None:
            ns = tuple(int(n) for n in self.n_values)
        else:
            mult = self.n_multipliers or DEFAULT_N_MULTIPLIERS
            ns = tuple(int(round(k * m)) for k in mult)
        for n in ns:
            if n < m:
                raise ValidationError(
                    f"every scheme needs n >= m, got n={n} at m={m}")
        return ns


# ---------------------------------------------------------------------------
# worker-side execution (top-level functions and caches: picklable tasks)

_basis_cache = {}
_evaluator_cache = {}


def _get_basis(family, m):
    key = (family, m)
    if key not in _basis_cache:
        _basis_cache[key] = make_basis(family, m)
    return _basis_cache[key]


def _get_evaluator(family, m, target_id):
    # the cap is part of the key: an evaluator certified under one order
    # limit must not be served after DPPLS_MAX_QUAD_ORDER changes
    key = (family, m, target_id, max_quad_order())
    if key not in _evaluator_cache:
        basis = _get_basis(family, m)
        f = TARGETS[target_id].evaluator
        _evaluator_cache[key] = ErrorEvaluator(f, basis)
    return _evaluator_cache[key]


def _cell_key(m, n, scheme):
    return (int(m), int(n), SCHEMES.index(scheme))


def _drawn_sub_blocks(config, basis, n, scheme, gens):
    """Per sub-block of at most BLOCK_ELEMENTS feature values: its slice of
    `gens` and its designs stacked as (points, weights, features), or None
    when the whole draw raised. The unconditioned schemes draw through
    draw_designs; the conditioned scheme draws design by design through
    draw_design, and a stream whose draw raises keeps NaN rows."""
    step = max(1, BLOCK_ELEMENTS // (n * basis.m))
    for a in range(0, len(gens), step):
        part = slice(a, a + step)
        if scheme == "repeated-dpp-cond":
            yield part, _conditioned_designs(config, basis, n, gens[part])
            continue
        try:
            block = draw_designs(scheme, basis, n, gens[part], alpha=config.alpha)
        except DpplsError:
            block = None
        yield part, block


def _conditioned_designs(config, basis, n, gens):
    points, weights = np.full((2, len(gens), n), np.nan)
    phi = np.full((len(gens), n, basis.m), np.nan)
    for i, gen in enumerate(gens):
        try:
            design = draw_design("repeated-dpp-cond", basis, n, gen,
                                 alpha=config.alpha, delta=config.delta,
                                 max_attempts=config.max_attempts)
        except DpplsError:
            continue
        points[i], weights[i] = design.points, design.weights
        phi[i] = design.features
    return points, weights, phi


def _stability_block(config, m, n, scheme, gens):
    """(status, hit) per stream: whether lambda_min(G^w) >= 1 - delta on
    its draw. A stream whose draw fails, or whose features or weights are
    not finite, is a failure and leaves its Gram slot at zero."""
    basis = _get_basis(config.basis_family, m)
    grams = np.zeros((len(gens), m, m))
    ok = np.zeros(len(gens), dtype=bool)
    for part, block in _drawn_sub_blocks(config, basis, n, scheme, gens):
        if block is None:
            continue
        _, weights, phi = block
        good = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(weights).all(axis=1)
        ok[part] = good
        grams[part][good] = weighted_gram(phi[good], weights[good])
    lams = np.linalg.eigvalsh(grams)[:, 0]
    return [("ok", 1.0 if lam >= 1.0 - config.delta else 0.0) if good
            else ("failed", 0.0) for good, lam in zip(ok, lams)]


def _error_block(config, m, n, scheme, gens):
    """(status, relative error) per stream of the weighted fit on its
    design. Each sub-block evaluates f once over its points and is fitted
    and scored in one call each. A singular or blown-up fit is capped at
    BLOWUP_CAP; a failed draw, its non-finite rows or a failed evaluator
    count as failures."""
    basis = _get_basis(config.basis_family, m)
    try:
        evaluator = _get_evaluator(config.basis_family, m, config.target_id)
    except DpplsError:
        return [("failed", math.nan)] * len(gens)
    records = []
    for part, block in _drawn_sub_blocks(config, basis, n, scheme, gens):
        if block is None:
            records += [("failed", math.nan)] * len(gens[part])
            continue
        points, weights, phi = block
        coefs, lams = weighted_lsq_fits(evaluator.f_values(points), weights, phi)
        errs = evaluator.rel_errors(coefs)
        records += [("failed", math.nan) if math.isnan(lam)
                    else ("capped", BLOWUP_CAP)
                    if lam <= SINGULARITY_THRESHOLD or err > BLOWUP_CAP
                    else ("ok", err)
                    for lam, err in zip(lams.tolist(), errs.tolist())]
    return records


def _conjecture_block(config, m, gens):
    """(lambda_min of an m-point projection draw, lambda_min of m i.i.d.
    nu_m draws from the same stream) per stream."""
    basis = _get_basis(config.basis_family, m)
    grams = np.empty((len(gens), 2, m, m))
    for pair, gen in zip(grams, gens):
        for gram, scheme in zip(pair, ("repeated-dpp", "iid-christoffel")):
            design = draw_design(scheme, basis, m, gen)
            gram[...] = weighted_gram(design.features, design.weights)
    return [tuple(lams) for lams in np.linalg.eigvalsh(grams)[..., 0].tolist()]


def _run_chunk(task):
    """Replicates [start, stop) of every job, one record list per job in
    replicate order: each job function takes their streams in blocks of
    at most BLOCK and returns one record per stream."""
    jobs, seed, start, stop = task
    blocks = [range(a, min(a + BLOCK, stop)) for a in range(start, stop, BLOCK)]
    return [[rec for block in blocks
             for rec in fn(*args, replicate_streams(seed, block, *key))]
            for fn, args, key in jobs]


def _chunk_ranges(replicates, workers):
    """Contiguous replicate ranges, one per requested worker. Each range
    is one pool task that carries every job of the call, so the tasks
    hold equal work."""
    if workers <= 1:
        return [(0, replicates)]
    size = max(1, math.ceil(replicates / workers))
    return [(a, min(a + size, replicates)) for a in range(0, replicates, size)]


@contextmanager
def _worker_pool(workers):
    """A process pool for one driver call, or None when workers <= 1.

    The pool never has more processes than the CPUs this process may run
    on. Chunking still follows the requested worker count, so the output
    does not depend on the machine. Workers keep their basis and sampler
    caches for as long as the pool is open, and inherit numpy.random,
    imported here before they fork instead of in each on its first draw.
    """
    if workers <= 1:
        yield None
        return
    import numpy.random  # noqa: F401
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(workers, cpus)) as pool:
        yield pool


def _run_replicates(jobs, replicates, seed, workers, pool):
    """Run every job (fn, args, key) on `pool` (in this process when it is
    None). Returns, per job and in replicate order, one record per
    replicate r < replicates, made by fn(*args, streams) from the stream
    replicate_stream(seed, r, *key) (see _run_chunk).

    Replicates are chunked by the requested worker count, one task per
    chunk carrying every job; pool.map keeps task order, so each job's
    records are its chunks' lists joined in order.
    """
    tasks = [(jobs, seed, a, b) for (a, b) in _chunk_ranges(replicates, workers)]
    chunks = list((map if pool is None else pool.map)(_run_chunk, tasks))
    return [[rec for chunk in chunks for rec in chunk[j]]
            for j in range(len(jobs))]


def _run_cells(fn, config, cells, pool):
    """Per (m, n, scheme) cell, the config's replicates of
    fn(config, m, n, scheme, streams)."""
    jobs = [(fn, (config, m, n, s), _cell_key(m, n, s)) for (m, n, s) in cells]
    return _run_replicates(jobs, config.replicates, config.seed,
                           config.workers, pool)


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_point(x):
    """17 significant digits: enough for float64 round trips."""
    return format(float(x), ".17g")


def write_csv(out, header, rows):
    """RFC-4180 CSV with a header row, '.' decimals and LF endings, to a
    path, an open text stream, or stdout when out is None."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    payload = text.getvalue()
    if out is None:
        sys.stdout.write(payload)
    elif hasattr(out, "write"):
        out.write(payload)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(payload)
    return payload


# ---------------------------------------------------------------------------
# experiment drivers

def _check_stability_schemes(config):
    """Raise ValidationError unless every scheme of the config, aliases
    mapped, is one of STABILITY_SCHEMES."""
    for s in config.schemes:
        if s not in STABILITY_SCHEMES:
            raise ValidationError(
                f"stability statistics support {STABILITY_SCHEMES}, got {s!r}")


def stability_map(config, out=None):
    """Empirical P(lambda_min(G^w) >= 1 - delta) over the (m, n) grid.

    Sampler failures never abort the map: a failed replicate counts in
    the failures column and as a miss in p_hat (the denominator stays at
    `replicates`).
    """
    _check_stability_schemes(config)
    cells = [(m, n, s) for m in config.m_values for n in config.n_for(m)
             for s in config.schemes]
    with _worker_pool(config.workers) as pool:
        results = _run_cells(_stability_block, config, cells, pool)
    header = ["m", "n", "scheme", "p_hat", "replicates", "seed", "failures"]
    rows = []
    for (m, n, s), records in zip(cells, results):
        hits = sum(ev for (status, ev) in records if status == "ok")
        failures = sum(1 for (status, _) in records if status == "failed")
        rows.append([m, n, s, hits / config.replicates,
                     config.replicates, config.seed, failures])
    write_csv(out, header, rows)
    return header, rows


def _quantile95(values):
    """Type-7 (linear interpolation) empirical 0.95 quantile: np.quantile
    with method="linear" bit for bit, in its own lerp, without the import
    of numpy.ma that np.quantile makes on first use."""
    x = np.sort(np.asarray(values, dtype=float))
    v = (x.size - 1) * 0.95
    i = math.floor(v)
    a, b, g = x[i], x[min(i + 1, x.size - 1)], v - i
    return float(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)


def error_table(config, out=None):
    """Relative-error table: deterministic best column, then per scheme
    the RMS relative error sqrt(mean of squared ||f-fhat||/||f||) and the
    95% empirical quantile over replicates.

    Singular and blown-up fits are capped at 1e15 and counted; sampler
    and evaluator failures are counted separately and excluded from the
    statistics. An evaluator that cannot be built leaves best at NaN.
    """
    cells = [(m, n, s) for m in config.m_values for n in config.n_for(m)
             for s in config.schemes]
    with _worker_pool(config.workers) as pool:
        results = _run_cells(_error_block, config, cells, pool)
    results = dict(zip(cells, results))
    header = ["m", "n", "best"]
    for s in config.schemes:
        header += [f"{s}_rms", f"{s}_q95", f"{s}_capped", f"{s}_failures"]
    header += ["replicates", "seed"]
    rows = []
    for m in config.m_values:
        try:
            best = _get_evaluator(config.basis_family, m,
                                  config.target_id).best_rel_error
        except DpplsError:
            best = math.nan
        for n in config.n_for(m):
            row = [m, n, best]
            for s in config.schemes:
                records = results[(m, n, s)]
                errs = [e for (status, e) in records if status in ("ok", "capped")]
                capped = sum(1 for (status, _) in records if status == "capped")
                failures = sum(1 for (status, _) in records if status == "failed")
                if errs:
                    rms = math.sqrt(float(np.mean(np.square(errs))))
                    q95 = _quantile95(errs)
                else:
                    rms = q95 = math.nan
                row += [rms, q95, capped, failures]
            row += [config.replicates, config.seed]
            rows.append(row)
    write_csv(out, header, rows)
    return header, rows


def error_histogram(config, out=None):
    """One row per replicate with the relative error and its natural
    logarithm; binning is left to plotting tools."""
    cells = [(m, n, s) for m in config.m_values for n in config.n_for(m)
             for s in config.schemes]
    with _worker_pool(config.workers) as pool:
        results = _run_cells(_error_block, config, cells, pool)
    header = ["m", "n", "scheme", "replicate", "status",
              "rel_error", "log_rel_error"]
    rows = []
    for (m, n, s), records in zip(cells, results):
        for rep, (status, err) in enumerate(records):
            if status == "failed":
                rows.append([m, n, s, rep, status, "", ""])
            else:
                rows.append([m, n, s, rep, status, err, math.log(err)])
    write_csv(out, header, rows)
    return header, rows


def conjecture_check(m, t_grid, replicates, seed, basis_family="legendre",
                     workers=1, out=None):
    """Compare tail probabilities of F = lambda_min(G^{w_m})^-1 under the
    m-point projection process and under m i.i.d. draws from nu_m.

    For each t the CSV reports both empirical tails with binomial
    3-sigma half-widths. The verdict column says CONSISTENT when
    dpp_tail <= iid_tail + 3 sigma at every t, with sigma the two-sample
    binomial standard error, else VIOLATION. A verdict is Monte Carlo
    evidence, not proof.
    """
    m = int(m)
    if not 1 <= m <= 12:
        raise ValidationError(f"m must lie in [1, 12] for tail comparison, got {m}")
    replicates = int(replicates)
    if replicates < 1000:
        raise ValidationError(f"need at least 1000 replicates, got {replicates}")
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(t <= 0 for t in t_grid):
        raise ValidationError("t grid must be non-empty and positive")
    config = ExperimentConfig(basis_family=basis_family, schemes=("repeated-dpp",),
                              m_values=(m,), n_values=(m,), replicates=replicates,
                              seed=seed, workers=workers)
    job = (_conjecture_block, (config, m), _cell_key(m, m, "repeated-dpp"))
    with _worker_pool(config.workers) as pool:
        [records] = _run_replicates([job], config.replicates, config.seed,
                                    config.workers, pool)
    lam_dpp, lam_iid = np.array(records).T

    def tail(lams, t):
        # F > t  <=>  lambda_min < 1/t
        return float(np.mean(lams < 1.0 / t))

    stats = []
    consistent = True
    for t in t_grid:
        p_d, p_i = tail(lam_dpp, t), tail(lam_iid, t)
        hw_d = 3.0 * math.sqrt(p_d * (1.0 - p_d) / replicates)
        hw_i = 3.0 * math.sqrt(p_i * (1.0 - p_i) / replicates)
        sigma = math.sqrt(p_d * (1.0 - p_d) / replicates
                          + p_i * (1.0 - p_i) / replicates)
        if p_d > p_i + 3.0 * sigma:
            consistent = False
        stats.append((t, p_d, hw_d, p_i, hw_i))
    verdict = "CONSISTENT" if consistent else "VIOLATION"
    header = ["m", "t", "dpp_tail", "dpp_half_width", "iid_tail",
              "iid_half_width", "verdict", "replicates", "seed"]
    rows = [[m, t, p_d, hw_d, p_i, hw_i, verdict, replicates, seed]
            for (t, p_d, hw_d, p_i, hw_i) in stats]
    write_csv(out, header, rows)
    return header, rows


def dump_design(scheme, basis_family, m, n, seed, alpha=1.0,
                delta=DEFAULT_DELTA, out=None):
    """Serialize one design draw as index,x,w rows; the decimal format
    (17 significant digits) round-trips float64 bit for bit."""
    basis = _get_basis(basis_family, int(m))
    design = draw_design(scheme, basis, int(n), int(seed), alpha=alpha,
                         delta=delta)
    header = ["index", "x", "w"]
    rows = [[i, format_point(x), format_point(w)]
            for i, (x, w) in enumerate(zip(design.points, design.weights))]
    write_csv(out, header, rows)
    return header, rows


def minimal_stable_n(basis_family, scheme, m, delta, replicates, seed,
                     n_max, workers=1, alpha=1.0):
    """Smallest n with empirical P(lambda_min(G^w) >= 1-delta) >= 1/2,
    walking n upward from m; None when n_max is passed without reaching
    the threshold. One worker pool serves the whole walk, which runs
    WINDOW consecutive n per round trip and returns the first hit."""
    m, n_max = int(m), int(n_max)
    config = ExperimentConfig(basis_family=basis_family, schemes=(scheme,),
                              m_values=(m,), replicates=replicates, seed=seed,
                              delta=delta, workers=workers, alpha=alpha)
    _check_stability_schemes(config)
    scheme = config.schemes[0]
    with _worker_pool(workers) as pool:
        for low in range(m, n_max + 1, WINDOW):
            ns = range(low, min(low + WINDOW, n_max + 1))
            results = _run_cells(_stability_block, config,
                                 [(m, n, scheme) for n in ns], pool)
            for n, records in zip(ns, results):
                hits = sum(ev for (status, ev) in records if status == "ok")
                if hits / replicates >= 0.5:
                    return n
    return None
