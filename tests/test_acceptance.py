"""Acceptance gate: one test per contract criterion, each reporting a
PASS/FAIL line through the terminal summary hook in conftest.

Criteria 1-3 compare against printed two-digit reference values whose
exact replicate counts are not recorded anywhere; the deterministic
best-approximation column and the heavy-tailed i.i.d. column land outside
the stated tolerances. Those tests fail as found; the underlying
statistics are asserted as computed, not adjusted to force green.
"""

import io
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import kstest

from dppls.bases import make_basis
from dppls.bounds import chernoff_constants
from dppls.experiments import (ExperimentConfig, TARGETS, conjecture_check,
                               error_table, minimal_stable_n)
from dppls.lsq import ErrorEvaluator
from dppls import cli

import mc
import oracles
from conftest import record_criterion

INV_QUAD = TARGETS["inv-quad"].evaluator
STOCHASTIC_SCHEMES = ("iid-christoffel", "volume", "repeated-dpp",
                      "repeated-dpp-cond")


@pytest.fixture(scope="module", autouse=True)
def _gaussian_quadrature_headroom():
    """The Gaussian-measure evaluators certify convergence around order
    2000; the default cap of 512 exists for interactive safety."""
    os.environ["DPPLS_MAX_QUAD_ORDER"] = "2048"
    yield
    del os.environ["DPPLS_MAX_QUAD_ORDER"]


@pytest.fixture(scope="module")
def table_m10():
    """The m=10, n=2m stochastic error table at the default seed: 1000
    replicates of each of the four weighted schemes."""
    config = ExperimentConfig(basis_family="hermite",
                              schemes=STOCHASTIC_SCHEMES, m_values=(10,),
                              n_values=(20,), replicates=1000, seed=0,
                              workers=8)
    start = time.perf_counter()
    header, rows = error_table(config, out=io.StringIO())
    elapsed = time.perf_counter() - start
    return dict(zip(header, rows[0])), elapsed


def test_criterion_01_best_approximation_column():
    start = time.perf_counter()
    computed = {}
    for m in (10, 20, 30, 40, 50):
        computed[m] = ErrorEvaluator(INV_QUAD, make_basis("hermite", m)).best_rel_error
    elapsed = time.perf_counter() - start
    again = ErrorEvaluator(INV_QUAD, make_basis("hermite", 10)).best_rel_error
    deviations = {m: abs(computed[m] / oracles.TABLE_BEST[m] - 1.0)
                  for m in computed}
    passed = elapsed < 5.0 and again == computed[10] and all(
        d <= 0.03 for d in deviations.values())
    detail = ("|computed/printed - 1| per m: "
              + ", ".join(f"m={m}: {d:.3%}" for m, d in deviations.items())
              + f"; runtime {elapsed:.2f}s")
    record_criterion(1, passed, detail)
    for m in computed:
        assert computed[m] == pytest.approx(oracles.BEST_REL_HERMITE[m],
                                            abs=1e-8)
    assert again == computed[10]
    assert elapsed < 5.0
    assert max(deviations.values()) <= 0.03, detail


def test_criterion_02_rms_columns_m10(table_m10):
    row, elapsed = table_m10
    deviations = {s: abs(row[f"{s}_rms"] / oracles.TABLE_RMS_2M_M10[s] - 1.0)
                  for s in STOCHASTIC_SCHEMES}
    passed = elapsed < 600.0 and all(d <= 0.15 for d in deviations.values())
    detail = (", ".join(
        f"{s}: rms={row[f'{s}_rms']:.4f} vs {oracles.TABLE_RMS_2M_M10[s]} "
        f"({d:.1%} off)" for s, d in deviations.items())
        + f"; runtime {elapsed:.0f}s")
    record_criterion(2, passed, detail)
    assert elapsed < 600.0
    assert max(deviations.values()) <= 0.15, detail


def test_criterion_03_q95_columns_m10(table_m10):
    row, _ = table_m10
    deviations = {s: abs(row[f"{s}_q95"] / oracles.TABLE_Q95_2M_M10[s] - 1.0)
                  for s in STOCHASTIC_SCHEMES}
    passed = all(d <= 0.25 for d in deviations.values())
    detail = ", ".join(
        f"{s}: q95={row[f'{s}_q95']:.4f} vs {oracles.TABLE_Q95_2M_M10[s]} "
        f"({d:.1%} off)" for s, d in deviations.items())
    record_criterion(3, passed, detail)
    assert max(deviations.values()) <= 0.25, detail


def test_criterion_04_minimal_stable_n_ordering():
    minimal = {}
    for scheme in ("repeated-dpp", "volume", "iid-christoffel", "iid-mu"):
        n_max = 100 if scheme == "iid-mu" else 200
        minimal[scheme] = minimal_stable_n("hermite", scheme, 20, 0.75,
                                           replicates=200, seed=0,
                                           n_max=n_max, workers=8)
    inf = float("inf")
    order = {s: (inf if n is None else n) for s, n in minimal.items()}
    passed = (order["repeated-dpp"] < order["volume"]
              <= order["iid-christoffel"] < order["iid-mu"])
    detail = ", ".join(f"{s}: n*={n}" for s, n in minimal.items())
    record_criterion(4, passed, detail)
    assert passed, detail


def test_criterion_05_piecewise_projection_design():
    bad_cells, gram_deviation = mc.pwc_dpp_summary(8, 10_000, seed=100)
    passed = bad_cells == 0 and gram_deviation == 0.0
    detail = (f"draws missing a cell: {bad_cells}, "
              f"max |G - I| over 1e4 draws: {gram_deviation}")
    record_criterion(5, passed, detail)
    assert bad_cells == 0
    assert gram_deviation == 0.0


def test_criterion_06_dpp_first_coordinate_marginal():
    pvalues = {}
    for m in (2, 3, 5):
        xs = mc.dpp_first_coords("legendre", m, 10_000, seed=101 + m)
        pvalues[m] = kstest(xs, oracles.christoffel_cdf("legendre", m)).pvalue
    passed = all(p > 0.001 for p in pvalues.values())
    detail = ", ".join(f"m={m}: KS p={p:.3f}" for m, p in pvalues.items())
    record_criterion(6, passed, detail)
    assert min(pvalues.values()) > 0.001, detail


def test_criterion_07_volume_fit_unbiased():
    coefs = mc.volume_coefficients("hermite", 5, 12, 10_000, seed=102)
    ev = ErrorEvaluator(INV_QUAD, make_basis("hermite", 5))
    se = coefs.std(axis=0, ddof=1) / math.sqrt(len(coefs))
    z = np.abs(coefs.mean(axis=0) - ev.best_coefficients) / se
    passed = bool(np.all(z < 4.0))
    detail = "coefficient z-statistics: " + ", ".join(f"{v:.2f}" for v in z)
    record_criterion(7, passed, detail)
    assert np.all(z < 4.0), detail


def test_criterion_08_inverse_gram_trace_identity():
    traces = mc.volume_trace_inv("hermite", 5, 10, 10_000, seed=103)
    se = traces.std(ddof=1) / math.sqrt(traces.size)
    gap = abs(traces.mean() - oracles.TR_INV_GRAM(5, 10))
    passed = gap <= 3.0 * se
    detail = (f"mean tr inv = {traces.mean():.4f} vs 50/6 = {50 / 6:.4f}, "
              f"gap {gap:.4f} <= 3se = {3 * se:.4f}")
    record_criterion(8, passed, detail)
    assert gap <= 3.0 * se, detail


def test_criterion_09_chernoff_constants():
    ok = round(chernoff_constants(0.5).c_delta, 6) == 0.153426
    chain = True
    for delta in np.linspace(1e-6, 1.0 - 1e-6, 1000):
        cc = chernoff_constants(delta)
        d2 = delta * delta
        chain &= ((5.0 / 13.0) * d2 - 1e-15 <= cc.d_delta <= d2 / 2.0
                  <= cc.c_delta <= d2)
    passed = ok and chain
    detail = (f"c(0.5) rounds to {round(chernoff_constants(0.5).c_delta, 6)}, "
              f"bracket chain on 1000 deltas: {'holds' if chain else 'broken'}")
    record_criterion(9, passed, detail)
    assert ok and chain, detail


def test_criterion_10_spectral_tail_comparison():
    _, rows = conjecture_check(5, (1.25, 1.5, 2.0, 4.0, 8.0), 10_000, seed=0,
                               basis_family="legendre", workers=8,
                               out=io.StringIO())
    verdicts = {r[1]: r[6] for r in rows}
    passed = all(v == "CONSISTENT" for v in verdicts.values())
    detail = ", ".join(f"t={t}: {v}" for t, v in verdicts.items())
    record_criterion(10, passed, detail)
    assert passed, detail


def _byte_identical(tmp_path, tag, argv, worker_flag):
    """Run a subcommand several times; return the set of output bytes
    (a singleton when the runs agree)."""
    blobs = set()
    variants = ([["--workers", "1"], ["--workers", "1"], ["--workers", "8"]]
                if worker_flag else [[], []])
    for i, extra in enumerate(variants):
        out = tmp_path / f"{tag}-{i}.csv"
        assert cli.main(argv + extra + ["--out", str(out)]) == 0
        blobs.add(out.read_bytes())
    return blobs


def test_criterion_11_cli_determinism(tmp_path):
    cases = {
        "stability-map": (["stability-map", "--basis", "legendre", "--scheme",
                           "volume", "--m", "3", "--n", "6", "--replicates",
                           "30", "--seed", "4"], True),
        "error-table": (["error-table", "--basis", "legendre", "--scheme",
                         "volume", "repeated-dpp", "--m", "3", "--n", "6",
                         "--replicates", "30", "--seed", "4"], True),
        "error-hist": (["error-hist", "--basis", "legendre", "--scheme",
                        "repeated-dpp", "--m", "3", "--n", "6",
                        "--replicates", "20", "--seed", "4"], True),
        "conjecture-check": (["conjecture-check", "--basis", "legendre",
                              "--m", "3", "--t", "2", "4", "--replicates",
                              "1000", "--seed", "4"], True),
        "dump-design": (["dump-design", "--scheme", "volume", "--basis",
                         "legendre", "--m", "3", "--n", "7", "--seed", "4"],
                        False),
        "bounds": (["bounds", "--m", "20", "--n", "40", "--basis",
                    "legendre"], False),
    }
    diverged = [name for name, (argv, workers) in cases.items()
                if len(_byte_identical(tmp_path, name, argv, workers)) != 1]
    passed = not diverged
    detail = ("all six subcommands byte-identical across repeats and "
              "worker counts" if passed
              else "divergent output from: " + ", ".join(diverged))
    record_criterion(11, passed, detail)
    assert passed, detail
