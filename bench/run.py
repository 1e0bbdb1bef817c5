"""Replicate-throughput benchmark of dppls over three experiment cells.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its
`src/`. A run is a sequence of whole rounds until S seconds have passed.
A round is the workload's set-up in fresh interpreters (timed as
`setup_s`) followed by one timed cell in this process, seeded with
1000 * N + round. Times are CPU seconds of the processes doing the work
(see bench/README.md for why). Outputs are checked after the timing. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with --trace 1 the per-layer ones).
See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checkout

QUAD_CAP = "2048"
SETUP_TIMEOUT_S = 60


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def cpu_s():
    """CPU seconds used so far by this process and by its children that
    have ended (set-up interpreters, pool workers and their children)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_setup(name, seed, trace):
    """One set-up interpreter: (CPU seconds, wall seconds, its report)."""
    cmd = [sys.executable, str(checkout.ROOT / "bench" / "setup_child.py"),
           name, str(seed), "1" if trace else "0"]
    cpu, wall = cpu_s(), time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=checkout.ROOT, timeout=SETUP_TIMEOUT_S)
    cpu, wall = cpu_s() - cpu, time.perf_counter() - wall
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return cpu, wall, json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    """Largest maximum RSS of this process and of its waited-for children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def steal_s():
    """CPU time the hypervisor has taken from this machine so far, from
    /proc/stat; None where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(steal):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "DPPLS_MAX_QUAD_ORDER": os.environ.get("DPPLS_MAX_QUAD_ORDER"),
            "machine_steal_s": steal}


class Ledger:
    """Operations attempted and failed, by kind, with failure messages."""

    def __init__(self):
        self.kinds = {}
        self.messages = {}

    def add(self, kind, attempted, failed=0, message=""):
        a, f = self.kinds.get(kind, (0, 0))
        self.kinds[kind] = (a + attempted, f + failed)
        if message:
            self.messages[kind] = message

    def totals(self):
        return (sum(a for a, _ in self.kinds.values()),
                sum(f for _, f in self.kinds.values()))

    def report(self, workload):
        return {"workload": workload,
                "operations": {k: {"attempted": a, "failed": f}
                               for k, (a, f) in self.kinds.items()},
                "failures": self.messages}


def measure(wl, args, tracer):
    """Whole rounds until args.seconds have passed."""
    setups, setup_ops, setup_traces, rounds = [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        seed = 1000 * args.seed + len(rounds)
        for _ in range(wl.setups_per_round):
            cpu, wall, report = run_setup(wl.name, seed, args.trace)
            setups.append({"cpu_s": cpu, "wall_s": wall})
            setup_ops += report["ops"]
            if tracer is not None:
                trace = [(tuple(sid), tuple(parent) if parent else None,
                          name, t0, t1, phase)
                         for sid, parent, name, t0, t1, phase
                         in report["spans"]]
                setup_traces.append(trace)
                tracer.merge((trace, {(ph, k): v for ph, k, v
                                      in report["counts"]}))
                tracer.values.update(report["values"])
        if tracer is not None:
            tracer.phase, tracer.capture_designs = "timed", True
        cpu, wall = cpu_s(), time.perf_counter()
        output = wl.batch(seed)
        cpu, wall = cpu_s() - cpu, time.perf_counter() - wall
        designs = None
        if tracer is not None:
            tracer.phase, tracer.capture_designs = "between", False
            designs, tracer.designs = tracer.designs, []
        rounds.append({"seed": seed, "cpu_s": cpu, "wall_s": wall,
                       "output": output, "cells": wl.cells(output),
                       "designs": designs})
    return setups, setup_ops, setup_traces, rounds


# ---------------------------------------------------------------------------
# checks of each workload's timed cells; each returns a list of problems.
# `rerun` marks the first traced round: it is re-run untraced, and its
# outputs must be equal. rnd["designs"] holds the designs a traced round
# captured, and is None in an untraced run.

def _same_as_untraced(wl, rnd):
    if wl.batch(rnd["seed"]) != rnd["output"]:
        return [f"round seed {rnd['seed']}: traced output differs from the "
                f"untraced cell"]
    return []


def check_error_table(wl, rnd, rerun, ledger, checks):
    out = rnd["output"]
    rows = checks.parse_csv(out["csv"])
    failed = (sum(int(rows[0][f"{s}_failures"]) for s in wl.schemes)
              if len(rows) == 1 else 0)
    ledger.add("replicate-cells", rnd["cells"], failed)
    problems = checks.check_error_table(out["csv"], wl.schemes)
    if rerun:
        problems += _same_as_untraced(wl, rnd)
    if rnd["designs"] is not None:
        designs = [pts for scheme, pts, _ in rnd["designs"]
                   if scheme == "repeated-dpp-cond"]
        if len(designs) != wl.replicates:
            problems.append(f"traced {len(designs)} conditioned designs, "
                            f"expected {wl.replicates}")
    else:
        designs = wl.redraw_conditioned(rnd["seed"], wl.redraws)
    return problems + checks.check_conditioned(wl.family, wl.m, wl.delta,
                                               designs)


def check_stable_n(wl, rnd, rerun, ledger, checks):
    """p_hat from stability_map at n* - 1 and n*; on a re-run round at
    every n the search evaluated, which reproduces its n* untraced."""
    ledger.add("replicate-cells", rnd["cells"])
    nstar = rnd["output"]["nstar"]
    problems = checks.check_search(nstar, wl.m, wl.delta, wl.n_max)
    for scheme, n in nstar.items():
        last = wl.n_max[scheme] if n is None else n
        ns = range(wl.m if rerun else max(wl.m, last - 1), last + 1)
        p_hat = wl.stability(scheme, ns, rnd["seed"],
                             workers=wl.workers if rerun else 1)
        problems += checks.check_stability_rows(scheme, n, wl.n_max[scheme],
                                                p_hat)
    return problems


def check_conjecture(wl, rnd, rerun, ledger, checks):
    ledger.add("replicate-cells", rnd["cells"])
    problems = checks.check_conjecture(rnd["output"]["csv"])
    if rerun:
        problems += _same_as_untraced(wl, rnd)
    designs = rnd["designs"]
    if designs is not None:
        if len(designs) != rnd["cells"]:
            problems.append(f"traced {len(designs)} designs, expected "
                            f"{rnd['cells']}")
        problems += checks.check_trace(wl.family, wl.m,
                                       [(pts, w) for _, pts, w in designs])
        coords = [x for scheme, pts, _ in designs
                  if scheme == "repeated-dpp" for x in pts]
        problems += checks.check_ks(wl.family, wl.m, coords)
    return problems


CHECKS = {"error-table-hermite-m10": check_error_table,
          "stable-n-hermite-m20": check_stable_n,
          "conjecture-legendre-m5": check_conjecture}


def check_outputs(wl, setup_ops, rounds, traced, checks):
    """(problems, ledger) over every set-up operation and timed cell.
    A traced run re-runs round 0 alone, to bound the run time."""
    ledger = Ledger()
    problems = []
    for op in setup_ops:
        ledger.add(op["op"], 1, 0 if op["ok"] else 1, op["error"])
        if op["ok"]:
            problems += checks.check_best(op["m"], op["value"])
    for i, rnd in enumerate(rounds):
        code = rnd["output"].get("code", 0)
        if code:
            ledger.add("replicate-cells", rnd["cells"], rnd["cells"],
                       rnd["output"]["error"])
            problems.append(f"cell exited {code}: {rnd['output']['error']}")
        else:
            problems += CHECKS[wl.name](wl, rnd, traced and i == 0, ledger,
                                        checks)
    return problems, ledger


def write_trace(name, seed, tracer):
    """All spans, counts and values of the run as JSON lines under
    bench/out/ (one file per workload, replaced by the next traced run)."""
    out_dir = checkout.ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{name}.jsonl", "w") as fh:
        fh.write(json.dumps({
            "workload": name, "seed": seed,
            "counts": [[ph, k, v] for (ph, k), v in tracer.counts.items()],
            "values": tracer.values}) + "\n")
        for sid, parent, span, start, end, phase in tracer.spans:
            fh.write(json.dumps([list(sid), list(parent) if parent else None,
                                 span, start, end, phase]) + "\n")


def main(argv=None):
    checkout.use_checkout()
    os.environ["DPPLS_MAX_QUAD_ORDER"] = QUAD_CAP
    import workloads
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    import dppls
    checkout.verify_import(dppls)
    import spans

    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    steal_start = steal_s()
    wl.setup(args.seed)  # warm-up, untimed: fills this process's caches
    setups, setup_ops, setup_traces, rounds = measure(wl, args, tracer)
    rss = peak_rss_mb()
    rates = [r["cells"] / r["cpu_s"] for r in rounds]

    if tracer is not None:
        tracer.uninstall()

    # the checks import scipy.stats and the oracles, so they come after
    # the peak RSS of the measured work is read
    import checks
    import layers
    import selftest
    problems = selftest.run()
    found, ledger = check_outputs(wl, setup_ops, rounds, tracer is not None,
                                  checks)
    problems += found

    if tracer is None:
        metrics = {"setup_s": (statistics.median(s["cpu_s"] for s in setups),
                               "s"),
                   "replicates_per_s": (statistics.median(rates), "1/s"),
                   "peak_rss_mb": (rss, "MB")}
    else:
        timed = [s for s in tracer.spans if s[5] == "timed"]
        values = layers.per_layer(timed, tracer.counts, tracer.values,
                                  setup_traces, len(rounds),
                                  sum(r["cells"] for r in rounds), os.getpid())
        values["trace.replicates_per_s"] = statistics.median(rates)
        metrics = {k: (v, layers.UNITS[k]) for k, v in values.items()}
        write_trace(wl.name, args.seed, tracer)

    steal_end = steal_s()
    steal = (round(steal_end - steal_start, 2)
             if steal_start is not None and steal_end is not None else None)
    attempted, failed = ledger.totals()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print("env " + json.dumps(environment(steal)))
    print("ops " + json.dumps(ledger.report(wl.name)))
    print("timing " + json.dumps({
        "setups": setups,
        "rounds": [{k: r[k] for k in ("seed", "cells", "cpu_s", "wall_s")}
                   for r in rounds]}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
