"""Seeded-output ledger: every number a fixed list of seeded `dppls`
commands prints, in one JSON file, so that the seeded numbers a change
moves can be listed with one command.

    python3 tests/ledger.py [--out SEEDED.json]     # run the list, write it
    python3 tests/ledger.py --diff OLD [NEW]        # compare two ledgers

The list covers every subcommand, family and scheme at alpha = 1 and 0.5,
each experiment command at `--workers` 1 and 2; it runs in this process
against the `src` of the checkout that holds this file, with the
quadrature cap pinned at 2048. Per command the ledger keeps the argv,
the exit code, the CSV's sha256 and its cells (numbers as JSON numbers);
it also keeps the `criterion NN` lines of `tests/test_acceptance.py` and
the Python, numpy and scipy versions. Writing takes a few minutes on two
CPUs, so this file is a script and pytest does not collect it.

`--diff` prints each moved cell as old -> new with its relative change,
then the largest move per (subcommand, column), the moved criterion
lines, and two kinds of problem, for which it exits 1: a status flip
(a changed status, verdict, capped or failure count) and a command whose
CSV bytes differ between `--workers` 1 and 2. numpy does not promise the
same Generator streams across versions (NEP 19), so a version mismatch
between the ledgers is reported, not treated as a failure.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUAD_CAP = "2048"
ALL_SCHEMES = ("iid-mu", "iid-christoffel", "volume", "repeated-dpp",
               "repeated-dpp-cond")
STABILITY_SCHEMES = ALL_SCHEMES[:4]
# columns whose change is a status flip, not a rounding move
FLIP_COLUMNS = re.compile(r"^(status|verdict|failures|.*_capped|.*_failures)$")
# columns that say which row a cell is in
ROW_KEYS = ("m", "n", "scheme", "replicate", "t", "index")


def commands():
    """The seeded command list, each experiment at --workers 1 and 2."""
    experiments = []
    for basis, ms in (("hermite", ["10"]), ("legendre", ["5", "10"]),
                      ("pwc", ["4", "8"])):
        common = ["--basis", basis, "--m", *ms]
        for alpha in ("1", "0.5"):
            experiments += [
                ["error-table", *common, "--alpha", alpha, "--n-mult", "2",
                 "2.5", "--scheme", *ALL_SCHEMES, "--replicates", "200",
                 "--seed", "7"],
                ["error-hist", *common, "--alpha", alpha, "--n-mult", "1",
                 "2.5", "--scheme", *ALL_SCHEMES, "--replicates", "60",
                 "--seed", "8"],
                ["stability-map", *common, "--alpha", alpha, "--n-mult", "1",
                 "2.5", "--scheme", *STABILITY_SCHEMES, "--replicates", "100",
                 "--seed", "9"]]
    experiments += [
        ["conjecture-check", "--basis", "legendre", "--m", "5",
         "--replicates", "2000", "--seed", "3"],
        ["conjecture-check", "--basis", "pwc", "--m", "4",
         "--replicates", "1000", "--seed", "4"],
        ["conjecture-check", "--basis", "hermite", "--m", "6",
         "--replicates", "1000", "--seed", "5"]]
    paper = ["--basis", "hermite", "--m", "10", "20", "30", "40", "50",
             "--n-mult", "2", "--seed", "0"]
    experiments += [["error-table", *paper, "--replicates", "100"],
                    ["error-hist", *paper, "--replicates", "40"]]
    out = [argv + ["--workers", w] for argv in experiments for w in ("1", "2")]
    out += [["dump-design", "--scheme", scheme, "--basis", basis, "--m", "5",
             "--n", "12", "--seed", "3"]
            for basis in ("hermite", "legendre", "pwc") for scheme in ALL_SCHEMES]
    return out


def _cell(text):
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        return text
    return int(text) if re.fullmatch(r"-?\d+", text) else value


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    rows = list(csv.reader(io.StringIO(text)))
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "header": rows[0] if rows else [],
            "rows": [[_cell(c) for c in row] for row in rows[1:]],
            "stderr": err.getvalue().strip()}


def _criterion_lines():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"], cwd=ROOT, env=env, capture_output=True,
        text=True)
    # the printed runtimes are not seeded numbers
    return [re.sub(r"; runtime [0-9.]+s$", "", line)
            for line in proc.stdout.splitlines()
            if line.startswith("criterion ")]


def write_ledger(path):
    os.environ["DPPLS_MAX_QUAD_ORDER"] = QUAD_CAP
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    from dppls import cli
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    entries = []
    for argv in commands():
        entries.append(_run(cli, argv))
        print(f"{entries[-1]['exit']} {' '.join(argv)}", flush=True)
    ledger = {"versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy_version},
              "DPPLS_MAX_QUAD_ORDER": QUAD_CAP,
              "criteria": _criterion_lines(),
              "commands": entries}
    with open(path, "w") as fh:
        fh.write(_dumps(ledger))
    problems = _worker_mismatches(entries)
    for line in problems:
        print(line)
    return 1 if problems else 0


def _dumps(ledger):
    """JSON with one line per command's cells, so that diffs stay local."""
    head = {k: v for k, v in ledger.items() if k != "commands"}
    parts = [json.dumps(head, indent=1)[:-2] + ',\n "commands": [']
    for i, entry in enumerate(ledger["commands"]):
        rows = ",\n    ".join(json.dumps(row) for row in entry["rows"])
        meta = json.dumps({k: v for k, v in entry.items() if k != "rows"})
        parts.append(f'  {meta[:-1]}, "rows": [\n    {rows}]}}'
                     + ("," if i + 1 < len(ledger["commands"]) else ""))
    parts.append(" ]\n}\n")
    return "\n".join(parts)


def _key(argv):
    return " ".join(argv)


def _without_workers(argv):
    if "--workers" not in argv:
        return None
    i = argv.index("--workers")
    return _key(argv[:i] + argv[i + 2:])


def _worker_mismatches(entries):
    """Commands whose CSV bytes differ between --workers values."""
    shas = defaultdict(set)
    for entry in entries:
        base = _without_workers(entry["argv"])
        if base is not None:
            shas[base].add(entry["sha256"])
    return [f"WORKERS: bytes differ across --workers: {base}"
            for base, seen in shas.items() if len(seen) > 1]


def _row_label(header, row):
    parts = [f"{k}={row[header.index(k)]}" for k in ROW_KEYS
             if k in header and header.index(k) < len(row)]
    return ", ".join(parts)


def _relative(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def diff(old_path, new_path):
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    problems = []
    if old["versions"] != new["versions"]:
        print(f"VERSIONS differ: {old['versions']} -> {new['versions']}; "
              "numpy may change Generator streams between versions (NEP 19), "
              "so moves below need not come from the program")
    old_by = {_key(e["argv"]): e for e in old["commands"]}
    new_by = {_key(e["argv"]): e for e in new["commands"]}
    for key in sorted(set(old_by) ^ set(new_by)):
        print(f"ONLY IN {'OLD' if key in old_by else 'NEW'}: {key}")
    largest = {}
    identical = 0
    for key, a in old_by.items():
        b = new_by.get(key)
        if b is None:
            continue
        if a["sha256"] == b["sha256"] and a["exit"] == b["exit"]:
            identical += 1
            continue
        if a["exit"] != b["exit"]:
            problems.append(f"FLIP: exit {a['exit']} -> {b['exit']}: {key}")
        if a["header"] != b["header"] or len(a["rows"]) != len(b["rows"]):
            problems.append(f"SHAPE: header or row count changed: {key}")
            continue
        header = a["header"]
        for ra, rb in zip(a["rows"], b["rows"]):
            for col, x, y in zip(header, ra, rb):
                if x == y:
                    continue
                where = f"{key} | {_row_label(header, ra)} | {col}"
                numeric = all(isinstance(v, (int, float)) for v in (x, y))
                if FLIP_COLUMNS.match(col) or not numeric:
                    problems.append(f"FLIP: {where}: {x!r} -> {y!r}")
                    continue
                rel = _relative(x, y)
                print(f"{where}: {x!r} -> {y!r} ({rel:.2e})")
                group = (a["argv"][0], col)
                best = largest.get(group, (0.0, 0.0, 0))
                largest[group] = (max(best[0], abs(y - x)), max(best[1], rel),
                                  best[2] + 1)
    print(f"\n{identical} of {len(old_by)} commands byte-identical")
    if largest:
        print("largest move per column (absolute, relative, cells moved):")
        for (cmd, col), (ab, rel, count) in sorted(largest.items()):
            print(f"  {cmd} {col}: {ab:.2e} {rel:.2e} {count}")
    moved = [(x, y) for x, y in zip(old["criteria"], new["criteria"]) if x != y]
    for x, y in moved:
        print(f"CRITERION: {x}\n        -> {y}")
    if len(old["criteria"]) != len(new["criteria"]):
        print(f"CRITERION: {len(old['criteria'])} lines -> "
              f"{len(new['criteria'])}")
    problems += _worker_mismatches(new["commands"])
    for line in problems:
        print(line)
    return 1 if problems else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, "SEEDED.json"))
    p.add_argument("--diff", nargs="+", metavar=("OLD", "NEW"),
                   help="compare ledger OLD with NEW (default: --out)")
    args = p.parse_args(argv)
    if args.diff:
        if len(args.diff) > 2:
            p.error("--diff takes OLD and at most one NEW")
        return diff(args.diff[0], args.diff[1] if len(args.diff) > 1
                    else args.out)
    return write_ledger(args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
