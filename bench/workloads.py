"""The three experiment cells of the benchmark, run through the package's
public entry points: `dppls.cli.main`, and `experiments.minimal_stable_n`
where no subcommand exists.

This module imports only the package, so that a fresh interpreter that
runs a set-up call pays for nothing else. Every name is looked up on its
module at call time, so the traced run's wrappers are the ones called.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from dppls import cli, experiments
from dppls.bases import make_basis
from dppls.samplers import SCHEMES, draw_design, replicate_stream

DELTA = 0.75


def run_cli(argv):
    """dppls.cli.main with the CSV kept in memory: (exit code, CSV, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().strip()


def _best(csv_text):
    lines = csv_text.splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    return float(row[header.index("best")])


class ErrorTable:
    """`dppls error-table` at m = 10, n = 2m over the four weighted schemes,
    plus the best-approximation column for m = 10..50 in set-up."""

    name = "error-table-hermite-m10"
    family, m, n = "hermite", 10, 20
    schemes = ("iid-christoffel", "volume", "repeated-dpp", "repeated-dpp-cond")
    delta = DELTA
    replicates = 50
    best_m = (10, 20, 30, 40, 50)
    setups_per_round = 1
    # conditioned designs redrawn per round for the lambda_min check
    redraws = 5

    def argv(self, replicates, seed, m=None, schemes=None):
        m = self.m if m is None else m
        n = self.n if m == self.m else 2 * m
        return (["error-table", "--basis", self.family, "--m", str(m),
                 "--n", str(n), "--scheme", *(schemes or self.schemes),
                 "--replicates", str(replicates), "--seed", str(seed),
                 "--workers", "1"])

    def setup(self, seed):
        """The cell at one replicate, then the best column at m = 20..50.
        One operation per best-column entry."""
        ops = []
        for m in self.best_m:
            argv = (self.argv(1, seed) if m == self.m
                    else self.argv(1, seed, m=m, schemes=("iid-mu",)))
            code, text, err = run_cli(argv)
            ops.append({"op": f"best column m={m}", "m": m, "ok": code == 0,
                        "value": _best(text) if code == 0 else None,
                        "error": err if code else ""})
        return ops

    def batch(self, seed):
        code, text, err = run_cli(self.argv(self.replicates, seed))
        return {"code": code, "csv": text, "error": err}

    def cells(self, output):
        return self.replicates * len(self.schemes)

    def redraw_conditioned(self, seed, count):
        """Regenerate the first `count` conditioned designs of a batch from
        their replicate streams."""
        basis = make_basis(self.family, self.m)
        key = (self.m, self.n, SCHEMES.index("repeated-dpp-cond"))
        return [draw_design("repeated-dpp-cond", basis, self.n,
                            replicate_stream(seed, rep, *key),
                            delta=self.delta).points
                for rep in range(count)]


class StableN:
    """`minimal_stable_n` at Hermite m = 20 for the four schemes of
    criterion 4, with two worker processes."""

    name = "stable-n-hermite-m20"
    family, m = "hermite", 20
    n_max = {"repeated-dpp": 200, "volume": 200, "iid-christoffel": 200,
             "iid-mu": 100}
    delta = DELTA
    replicates = 16
    workers = 2
    setups_per_round = 3

    def search(self, replicates, seed, n_max=None):
        return {s: experiments.minimal_stable_n(
                    self.family, s, self.m, self.delta, replicates, seed,
                    self.n_max[s] if n_max is None else n_max,
                    workers=self.workers)
                for s in self.n_max}

    def setup(self, seed):
        self.search(1, seed, n_max=self.m)
        return []

    def batch(self, seed):
        return {"nstar": self.search(self.replicates, seed)}

    def cells(self, output):
        """Each (replicate, scheme, n) entry the searches evaluated."""
        return self.replicates * sum(
            (self.n_max[s] if n is None else n) - self.m + 1
            for s, n in output["nstar"].items())

    def stability(self, scheme, ns, seed, workers):
        """p_hat at the given n from `stability_map`, with the search's
        replicate count and seed."""
        config = experiments.ExperimentConfig(
            basis_family=self.family, schemes=(scheme,), m_values=(self.m,),
            n_values=tuple(ns), delta=self.delta, replicates=self.replicates,
            seed=seed, workers=workers)
        _, rows = experiments.stability_map(config, out=io.StringIO())
        return {row[1]: row[3] for row in rows}


class Conjecture:
    """`dppls conjecture-check` for Legendre m = 5 on the default t grid."""

    name = "conjecture-legendre-m5"
    family, m = "legendre", 5
    replicates = 1000  # the subcommand's floor
    setups_per_round = 1

    def argv(self, seed):
        return ["conjecture-check", "--basis", self.family, "--m", str(self.m),
                "--replicates", str(self.replicates), "--seed", str(seed),
                "--workers", "1"]

    def setup(self, seed):
        """dump-design of one draw per scheme fills the basis tables."""
        for scheme in ("repeated-dpp", "iid-christoffel"):
            code, _, err = run_cli(["dump-design", "--scheme", scheme,
                                    "--basis", self.family, "--m", str(self.m),
                                    "--n", str(self.m), "--seed", str(seed)])
            if code:
                raise RuntimeError(f"dump-design {scheme} exit {code}: {err}")
        return []

    def batch(self, seed):
        code, text, err = run_cli(self.argv(seed))
        return {"code": code, "csv": text, "error": err}

    def cells(self, output):
        """One projection-process and one i.i.d. design per replicate."""
        return 2 * self.replicates


WORKLOADS = {w.name: w for w in (ErrorTable, StableN, Conjecture)}
