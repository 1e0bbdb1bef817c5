"""Mutation check: does some test fail when a sampler draws the wrong law?

Each mutant is one exact source replacement in `src/dppls`; its `old`
text must occur exactly once in its file, which `test_mutants.py`
checks in Tier-1. The script
copies `src` and `tests` into a temporary directory, runs the mutant's
test targets there on the unmutated copy once, then applies each mutant
in a fresh copy and runs its targets again. It prints, per mutant, the
tests that fail beyond those that already fail unmutated. A mutant that
no test catches is a gap in the suite.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

A mutant costs one pytest run of its targets, one to two minutes on two
CPUs, so this file is a script and pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ACCEPTANCE_5_11 = tuple(
    f"tests/test_acceptance.py::test_criterion_{name}" for name in (
        "05_piecewise_projection_design", "06_dpp_first_coordinate_marginal",
        "07_volume_fit_unbiased", "08_inverse_gram_trace_identity",
        "09_chernoff_constants", "10_spectral_tail_comparison",
        "11_cli_determinism"))
SAMPLER_TARGETS = ("tests/test_samplers.py", "tests/test_lsq.py",
                   "tests/test_experiments.py") + ACCEPTANCE_5_11
GAUSS_TARGETS = ("tests/test_measures.py", "tests/test_lsq.py")
FIT_TARGETS = ("tests/test_lsq.py", "tests/test_experiments.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str          # under src/dppls
    old: str           # must occur exactly once
    new: str
    targets: tuple = SAMPLER_TARGETS


MUTANTS = (
    Mutant("volume-no-permutation", "samplers.py",
           "gen.permutation(self.n) if self.permute",
           "np.arange(self.n) if self.permute"),
    Mutant("volume-features-not-permuted", "samplers.py",
           "            pts = _rows_permuted(pts, np.array(perms))\n"
           "        phi = basis.feature_matrix(pts.ravel())",
           "            drawn, pts = pts, _rows_permuted(pts, np.array(perms))\n"
           "        phi = basis.feature_matrix((drawn if self.permute else pts).ravel())"),
    Mutant("volume-extras-from-mu", "samplers.py",
           "_iid_numbers(self.weight, basis, gen, extra)",
           "_iid_numbers(Weight(0.0) if self.permute else self.weight, basis, gen, extra)"),
    Mutant("coarse-nu-table", "measures.py",
           "GRID_CELLS = 2048\nGRID_MAX_CELL_MASS = 1e-3\n",
           "GRID_CELLS = 64\nGRID_MAX_CELL_MASS = 0.05\n"),
    Mutant("squared-dpp-acceptance", "samplers.py",
           "xs[u * norms2 < resid2]",
           "xs[u * norms2 ** 2 < resid2 ** 2]"),
    Mutant("legendre-eigenvalues-x0.99", "samplers.py",
           "eig = 0.5 * _tridiagonal_eigvalsh(",
           "eig = 0.495 * _tridiagonal_eigvalsh("),
    Mutant("unweighted-conditioning", "samplers.py",
           "eigvalsh(weighted_gram(phi, w))",
           "eigvalsh(weighted_gram(phi, np.ones_like(w)))"),
    Mutant("hermite-diagonal-x1.05", "samplers.py",
           "diag = gen.standard_normal(m)",
           "diag = 1.05 * gen.standard_normal(m)"),
    Mutant("weight-alpha-swapped", "samplers.py",
           "return self.alpha * christoffel_rows(phi) + (1.0 - self.alpha)",
           "return (1.0 - self.alpha) * christoffel_rows(phi) + self.alpha"),
    Mutant("legendre-beta-swapped", "samplers.py",
           "gen.beta(t, s)", "gen.beta(s, t)"),
    Mutant("dpp-no-permutation", "samplers.py",
           "return _rows_permuted(eig, perm)",
           "return eig"),
    Mutant("hermite-chi-dof-halved", "samplers.py",
           "k = np.arange(m - 1, 0, -1, dtype=float)",
           "k = np.arange(m - 1, 0, -1, dtype=float) / 2"),
    Mutant("mixture-branch-flipped", "samplers.py",
           "pick = gen.random(n) < w.alpha",
           "pick = gen.random(n) >= w.alpha"),
    Mutant("block-eigenvalue-rows-rolled", "samplers.py",
           "eig = model[1](basis, *model_numbers)",
           "eig = np.roll(model[1](basis, *model_numbers), 1, axis=0)"),
    Mutant("block-nu-uniforms-reversed", "samplers.py",
           "else np.concatenate(us))",
           "else np.concatenate(us[::-1]))"),
    Mutant("block-error-f-rows-reversed", "experiments.py",
           "weighted_lsq_fits(evaluator.f_values(points), weights, phi)",
           "weighted_lsq_fits(evaluator.f_values(points[::-1]), weights, phi)"),
    Mutant("conjecture-lambda-pair-swapped", "experiments.py",
           "lam_dpp, lam_iid = np.array(records).T",
           "lam_iid, lam_dpp = np.array(records).T",
           ("tests/test_experiments.py",
            "tests/test_acceptance.py::test_criterion_10_spectral_tail_comparison")),
    Mutant("window-returns-last-hit", "experiments.py",
           "for n, records in zip(ns, results):",
           "for n, records in reversed(list(zip(ns, results))):",
           ("tests/test_experiments.py",)),
    Mutant("runner-chunks-interleaved", "experiments.py",
           "    return [[rec for chunk in chunks for rec in chunk[j]]\n"
           "            for j in range(len(jobs))]\n",
           "    flat = [rec for chunk in chunks for recs in chunk for rec in recs]\n"
           "    return [flat[j * replicates:(j + 1) * replicates]\n"
           "            for j in range(len(jobs))]\n",
           ("tests/test_experiments.py",)),
    Mutant("chunk-ranges-overlap", "experiments.py",
           "    return [(a, min(a + size, replicates)) for a in range(0, replicates, size)]\n",
           "    return [(max(0, a - 1), min(a + size, replicates))\n"
           "            for a in range(0, replicates, size)]\n",
           ("tests/test_experiments.py",)),
    Mutant("conditioned-underdetermined-unchecked", "samplers.py",
           "    if n < basis.m:\n"
           "        raise UnderdeterminedDesignError(\n"
           "            f\"the conditioned scheme needs n >= m, got n={n}, "
           "m={basis.m}\")\n",
           "",
           ("tests/test_samplers.py", "tests/test_cli.py")),
    Mutant("gauss-newton-on-p-q-minus-1", "measures.py",
           "        p = (x * cur - back * prev) / b[-1]\n",
           "        p, cur = cur, prev\n",
           GAUSS_TARGETS),
    Mutant("gauss-nodes-at-guesses", "measures.py",
           "        x = x - step\n", "        break\n", GAUSS_TARGETS),
    Mutant("trapezoid-step-not-halved", "lsq.py",
           "            h /= 2\n", "            h /= 1\n", GAUSS_TARGETS),
    Mutant("dump-design-unchecked", "experiments.py",
           "    config = ExperimentConfig(basis_family=basis_family, schemes=(scheme,),\n"
           "                              m_values=(m,), alpha=alpha, delta=delta,\n"
           "                              seed=int(seed))\n"
           "    design = draw_design(config.schemes[0], _get_basis(basis_family, m),\n"
           "                         int(n), config.seed, alpha=config.alpha,\n"
           "                         delta=config.delta)\n",
           "    design = draw_design(scheme, _get_basis(basis_family, m), int(n),\n"
           "                         int(seed), alpha=alpha, delta=delta)\n",
           ("tests/test_cli.py", "tests/test_experiments.py")),
    Mutant("quantile95-branches-swapped", "experiments.py",
           "b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g",
           "a + (b - a) * g if g >= 0.5 else b - (b - a) * (1.0 - g)",
           ("tests/test_experiments.py",)),
    Mutant("stacked-fit-unscaled-rhs", "lsq.py",
           "b = (f_values[solve] * scale[solve])[..., None]",
           "b = f_values[solve][..., None]", FIT_TARGETS),
    Mutant("singular-mask-on-lambda-max", "lsq.py",
           "weights[finite]))[:, 0]", "weights[finite]))[:, -1]", FIT_TARGETS),
    Mutant("volume-tail-without-block", "bounds.py",
           "return alpha, m, False", "return alpha, 0, False",
           ("tests/test_bounds.py", "tests/test_cli.py")),
    Mutant("stream-key-before-replicate", "samplers.py",
           "    pool = pool * mix_l - mix_r * h\n"
           "    pool ^= pool >> shift\n"
           "    for row in key_rows:\n"
           "        pool *= mix_l\n"
           "        pool -= row\n"
           "        pool ^= pool >> shift\n",
           "    for row in key_rows:\n"
           "        pool = pool * mix_l - row\n"
           "        pool ^= pool >> shift\n"
           "    pool = pool * mix_l - mix_r * h\n"
           "    pool ^= pool >> shift\n",
           ("tests/test_samplers.py",)),
)


def _copy_tree(dest):
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _apply(dest, mutant):
    path = os.path.join(dest, "src", "dppls", mutant.file)
    with open(path) as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {found} "
                         f"times in {mutant.file}, expected once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def _failing(dest, targets):
    """Node ids that fail or error under pytest in the tree at `dest`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *targets], cwd=dest, env=env, capture_output=True, text=True)
    return {line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(names):
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in names] if names else list(MUTANTS)
    targets = sorted({t for m in chosen for t in m.targets})
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        _copy_tree(base)
        already = _failing(base, targets)
        print(f"unmutated: {len(already)} failing "
              f"{sorted(already) if already else ''}", flush=True)
        missed = []
        for mutant in chosen:
            dest = os.path.join(tmp, mutant.name)
            _copy_tree(dest)
            _apply(dest, mutant)
            caught = sorted(_failing(dest, mutant.targets) - already)
            shutil.rmtree(dest)
            if not caught:
                missed.append(mutant.name)
            print(f"| {mutant.name} | {mutant.file} | {len(caught)} | "
                  f"{', '.join(t.split('::')[-1] for t in caught) or '-'} |",
                  flush=True)
    if missed:
        print(f"not caught: {', '.join(missed)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
