"""Self-test of the benchmark's output checks: each check must pass a
well-formed output and reject a deliberately corrupted copy of it.

Run alone with `python3 bench/selftest.py`; bench/run.py also runs it
before every measurement and reports `correct: false` if it fails.
"""

import math

import checkout

checkout.use_checkout()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402

TABLE_SCHEMES = ("iid-christoffel", "volume", "repeated-dpp",
                 "repeated-dpp-cond")


def _table_csv(best=None, rms=0.2, q95=0.3, failures=0):
    best = oracles.BEST_REL_HERMITE[10] if best is None else best
    header = ["m", "n", "best"]
    row = [10, 20, repr(best)]
    for s in TABLE_SCHEMES:
        header += [f"{s}_rms", f"{s}_q95", f"{s}_capped", f"{s}_failures"]
        row += [repr(rms), repr(q95), 0, failures]
    header += ["replicates", "seed"]
    row += [50, 0]
    return ",".join(header) + "\n" + ",".join(map(str, row)) + "\n"


def _conjecture_csv(verdict="CONSISTENT", dpp=(0.3, 0.2, 0.1, 0.02, 0.0)):
    iid = (0.5, 0.4, 0.3, 0.1, 0.05)
    lines = ["m,t,dpp_tail,dpp_half_width,iid_tail,iid_half_width,verdict,"
             "replicates,seed"]
    for t, d, i in zip((1.25, 1.5, 2.0, 4.0, 8.0), dpp, iid):
        lines.append(f"5,{t},{d},0.01,{i},0.01,{verdict},1000,0")
    return "\n".join(lines) + "\n"


def _christoffel_draws(family, m, size, seed):
    """Inverse-CDF draws from nu_m on the oracle's own grid."""
    cdf = oracles.christoffel_cdf(family, m)
    grid = oracles._grid(family, m)
    u = np.random.default_rng(seed).random(size)
    return np.interp(u, cdf(grid), grid)


def cases():
    """(name, problems on the good output, problems on the corrupted one)."""
    m_h, m_l = 10, 5
    wide = _christoffel_draws("hermite", m_h, 4000, 1)
    pts_l = _christoffel_draws("legendre", m_l, 4000, 2)
    w_l = (oracles.legendre_row(pts_l, m_l) ** 2).sum(axis=1) / m_l
    good_search = {"repeated-dpp": 39, "volume": 54, "iid-christoffel": 80,
                   "iid-mu": None}
    n_max = {"repeated-dpp": 200, "volume": 200, "iid-christoffel": 200,
             "iid-mu": 100}
    yield ("best column", checks.check_best(10, oracles.BEST_REL_HERMITE[10]),
           checks.check_best(10, oracles.BEST_REL_HERMITE[10] + 1e-6))
    good = checks.check_error_table(_table_csv(), TABLE_SCHEMES)
    yield ("error table: best", good, checks.check_error_table(
        _table_csv(best=0.1355), TABLE_SCHEMES))
    yield ("error table: rms below best", good, checks.check_error_table(
        _table_csv(rms=0.1), TABLE_SCHEMES))
    yield ("error table: q95 not finite", good, checks.check_error_table(
        _table_csv(q95=math.nan), TABLE_SCHEMES))
    yield ("error table: sampler failure", good, checks.check_error_table(
        _table_csv(failures=1), TABLE_SCHEMES))
    yield ("conditioned lambda_min",
           checks.check_conditioned("hermite", m_h, 0.75, [wide]),
           checks.check_conditioned("hermite", m_h, 0.75,
                                    [np.full(20, wide[0])]))
    yield ("search ordering", checks.check_search(good_search, 20, 0.75, n_max),
           checks.check_search(dict(good_search, volume=38), 20, 0.75, n_max))
    yield ("search Chernoff size",
           checks.check_search(good_search, 20, 0.75, n_max),
           checks.check_search(dict(good_search, **{"iid-christoffel": 190}),
                               20, 0.75, n_max))
    yield ("stability at n*",
           checks.check_stability_rows("volume", 54, 200, {53: 0.4, 54: 0.5}),
           checks.check_stability_rows("volume", 54, 200, {53: 0.5, 54: 0.5}))
    yield ("stability without n*",
           checks.check_stability_rows("iid-mu", None, 100,
                                       {99: 0.4, 100: 0.45}),
           checks.check_stability_rows("iid-mu", None, 100,
                                       {99: 0.4, 100: 0.5}))
    yield ("conjecture verdict", checks.check_conjecture(_conjecture_csv()),
           checks.check_conjecture(_conjecture_csv(verdict="VIOLATION")))
    yield ("conjecture tails", checks.check_conjecture(_conjecture_csv()),
           checks.check_conjecture(_conjecture_csv(
               dpp=(0.3, 0.2, 0.25, 0.02, 0.0))))
    yield ("trace of G", checks.check_trace("legendre", m_l, [(pts_l, w_l)]),
           checks.check_trace("legendre", m_l, [(pts_l, w_l * 1.001)]))
    yield ("KS of pooled coordinates", checks.check_ks("legendre", m_l, pts_l),
           checks.check_ks("legendre", m_l, np.clip(pts_l + 0.05, -1, 1)))


def run():
    """Problems with the checks themselves; empty when every check passes
    its good output and rejects its corrupted one."""
    problems = []
    for name, good, bad in cases():
        if good:
            problems.append(f"self-test {name}: good output rejected: {good}")
        if not bad:
            problems.append(f"self-test {name}: corrupted output accepted")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("self-test:", "FAIL" if found else "ok")
    raise SystemExit(1 if found else 0)
