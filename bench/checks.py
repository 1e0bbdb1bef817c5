"""Output checks of the benchmark.

Each check compares a program output with a value computed apart from
the program (the frozen scipy-quadrature oracles and the numpy.polynomial
feature rows of tests/oracles.py, closed-form Chernoff sizes) or with a
property the method must have. Every check returns a list of problems;
an empty list means the output passed.
"""

import csv
import io
import math

import numpy as np
from scipy.stats import kstest

import oracles

BEST_TOL = 1e-8
TRACE_TOL = 1e-9
KS_MIN_P = 0.001
# the program tests lambda_min >= 1 - delta on its own Gram matrix; the
# independent recomputation may differ from it in the last bits
LAMBDA_SLACK = 1e-10


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def chernoff_sizes(m, delta):
    """Matrix-Chernoff sample sizes at failure probability eta = 1/2:
    ceil(m (ln m + ln 2) / c_delta) for i.i.d. Christoffel sampling, and
    m more for volume sampling."""
    c_delta = delta + (1.0 - delta) * math.log(1.0 - delta)
    iid = math.ceil(m * (math.log(m) + math.log(2.0)) / c_delta)
    return {"iid-christoffel": iid, "volume": iid + m}


def independent_rows(family, xs, m):
    if family == "hermite":
        return oracles.hermite_row(xs, m)
    return oracles.legendre_row(xs, m)


def check_best(m, best):
    """Best-approximation column against the scipy-quadrature oracle."""
    ref = oracles.BEST_REL_HERMITE[m]
    if not abs(best - ref) <= BEST_TOL:
        return [f"best column m={m}: {best!r} vs oracle {ref!r}"]
    return []


def check_error_table(text, schemes):
    """RMS and q95 finite and >= the best error; no sampler failures."""
    rows = parse_csv(text)
    if len(rows) != 1:
        return [f"error table: expected one row, got {len(rows)}"]
    row = rows[0]
    best = float(row["best"])
    problems = check_best(int(row["m"]), best)
    for s in schemes:
        for col in (f"{s}_rms", f"{s}_q95"):
            v = float(row[col])
            if not (math.isfinite(v) and v >= best * (1.0 - 1e-12)):
                problems.append(f"{col}={v!r} is not finite and >= best "
                                f"{best!r}")
        if int(row[f"{s}_failures"]) != 0:
            problems.append(f"{s}: {row[f'{s}_failures']} sampler failures")
    return problems


def lambda_min_independent(family, points, m):
    """lambda_min of the Christoffel-weighted Gram matrix, from feature
    rows and weights built with numpy.polynomial."""
    phi = independent_rows(family, points, m)
    w = (phi * phi).sum(axis=1) / m
    G = (phi.T / (w * len(points))) @ phi
    return float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])


def check_conditioned(family, m, delta, designs):
    problems = []
    for i, points in enumerate(designs):
        lam = lambda_min_independent(family, points, m)
        if not lam >= 1.0 - delta - LAMBDA_SLACK:
            problems.append(f"conditioned design {i}: lambda_min={lam!r} "
                            f"< 1 - delta = {1.0 - delta!r}")
    return problems


def check_search(nstar, m, delta, n_max):
    """Criterion-4 ordering and the Chernoff ceilings on n*."""
    inf = math.inf
    order = {s: inf if n is None else n for s, n in nstar.items()}
    problems = []
    if not (order["repeated-dpp"] < order["volume"]
            <= order["iid-christoffel"] < order["iid-mu"]):
        problems.append(f"n* ordering broken: {nstar}")
    for s, ceiling in chernoff_sizes(m, delta).items():
        if not order[s] <= ceiling:
            problems.append(f"{s}: n*={nstar[s]} above the Chernoff size "
                            f"{ceiling}")
    for s, n in nstar.items():
        if n is not None and not m <= n <= n_max[s]:
            problems.append(f"{s}: n*={n} outside [{m}, {n_max[s]}]")
    return problems


def check_stability_rows(scheme, nstar, n_max, p_hat):
    """p_hat (from stability_map) >= 1/2 at n* and < 1/2 at every n below
    it that was computed; with no n*, < 1/2 at every n up to n_max."""
    last = n_max if nstar is None else nstar
    problems = [f"{scheme}: p_hat({n})={p} >= 1/2 below n*={nstar}"
                for n, p in sorted(p_hat.items())
                if n < last and not p < 0.5]
    if nstar is None:
        if not p_hat[last] < 0.5:
            problems.append(f"{scheme}: no n* but p_hat({last})={p_hat[last]}")
    elif not p_hat[nstar] >= 0.5:
        problems.append(f"{scheme}: p_hat(n*={nstar})={p_hat[nstar]} < 1/2")
    return problems


def check_conjecture(text):
    """Verdict CONSISTENT at every t; tails non-increasing in t."""
    rows = parse_csv(text)
    if not rows:
        return ["conjecture check: empty output"]
    problems = [f"t={r['t']}: verdict {r['verdict']}" for r in rows
                if r["verdict"] != "CONSISTENT"]
    rows = sorted(rows, key=lambda r: float(r["t"]))
    for col in ("dpp_tail", "iid_tail"):
        tails = [float(r[col]) for r in rows]
        if any(b > a for a, b in zip(tails, tails[1:])):
            problems.append(f"{col} increases with t: {tails}")
    return problems


def check_trace(family, m, designs):
    """tr G^w = m for every design, with phi from numpy.polynomial and the
    weights the program recorded on the design."""
    problems = []
    for i, (points, weights) in enumerate(designs):
        phi = independent_rows(family, points, m)
        tr = float(((phi * phi).sum(axis=1) / weights).mean())
        if not abs(tr - m) <= TRACE_TOL:
            problems.append(f"design {i}: tr G = {tr!r}, expected {m}")
    return problems


def check_ks(family, m, coords):
    """Pooled projection-process coordinates against the Christoffel CDF."""
    p = float(kstest(np.asarray(coords), oracles.christoffel_cdf(family, m)).pvalue)
    if not p > KS_MIN_P:
        return [f"KS against nu_{m}: p={p:.3g} <= {KS_MIN_P}"]
    return []
