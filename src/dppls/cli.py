"""Command line entry point.

Subcommands: stability-map, error-table, error-hist, conjecture-check,
dump-design, bounds. All emit CSV to --out or stdout. Exit codes:
0 success, 2 configuration problem, 3 numeric failure.
"""

import argparse
import functools
import sys

from .bases import BASIS_FAMILIES, make_basis
from .bounds import (SCHEME_TAGS, chernoff_constants, k_constant,
                     mixed_stability_bound, required_sample_size,
                     stability_failure_bound)
from .errors import DpplsError, ValidationError
from .experiments import (DEFAULT_DELTA, DEFAULT_M_VALUES, STABILITY_SCHEMES,
                          TARGETS, ExperimentConfig, conjecture_check,
                          dump_design, error_histogram, error_table,
                          stability_map, write_csv)
from .samplers import SCHEMES, Weight


def _add_common(p, *, schemes, default_schemes, default_replicates,
                multi_m=True):
    p.add_argument("--basis", choices=sorted(BASIS_FAMILIES),
                   default="hermite", help="feature basis family")
    if schemes:
        p.add_argument("--scheme", nargs="+", choices=schemes,
                       default=list(default_schemes),
                       help="sampling schemes to run")
    if multi_m:
        p.add_argument("--m", type=int, nargs="+",
                       default=list(DEFAULT_M_VALUES), help="basis dimensions")
    else:
        p.add_argument("--m", type=int, required=True, help="basis dimension")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--n", type=int, nargs="+", default=None,
                       help="absolute sample sizes")
    group.add_argument("--n-mult", type=float, nargs="+", default=None,
                       help="sample sizes as multiples of m (default 2 5 10)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="mixture weight on the inverse Christoffel density")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="stability margin: the event is lambda_min >= 1-delta")
    p.add_argument("--replicates", type=int, default=default_replicates)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.add_argument("--workers", type=int, default=1)


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared: read-only."""
    parser = argparse.ArgumentParser(
        prog="dppls",
        description="Weighted least-squares function approximation from "
                    "random point evaluations: experiment drivers and "
                    "bound calculators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability-map",
                       help="empirical stability probabilities over (m, n)")
    _add_common(p, schemes=STABILITY_SCHEMES + ("volume-rescaled",),
                default_schemes=STABILITY_SCHEMES, default_replicates=200)

    p = sub.add_parser("error-table",
                       help="best-approximation and per-scheme error table")
    _add_common(p, schemes=SCHEMES + ("volume-rescaled",),
                default_schemes=SCHEMES, default_replicates=1000)
    p.add_argument("--target", choices=sorted(TARGETS), default="inv-quad")

    p = sub.add_parser("error-hist",
                       help="per-replicate relative errors for histograms")
    _add_common(p, schemes=SCHEMES + ("volume-rescaled",),
                default_schemes=SCHEMES, default_replicates=1000)
    p.add_argument("--target", choices=sorted(TARGETS), default="inv-quad")

    p = sub.add_parser("conjecture-check",
                       help="tail comparison of lambda_min under the "
                            "projection process vs i.i.d. sampling")
    p.add_argument("--basis", choices=sorted(BASIS_FAMILIES), default="legendre")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--t", type=float, nargs="+",
                   default=[1.25, 1.5, 2.0, 4.0, 8.0], help="tail thresholds")
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("dump-design", help="serialize one design draw")
    p.add_argument("--scheme", choices=SCHEMES + ("volume-rescaled",),
                   required=True)
    p.add_argument("--basis", choices=sorted(BASIS_FAMILIES), default="hermite")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="sample-size and tail-bound calculator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="evaluate failure bounds at this sample size")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--eta", type=float, default=0.5,
                   help="target failure probability for sample sizes")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--basis", choices=sorted(BASIS_FAMILIES), default=None,
                   help="also report the grid lower bound on K_w")
    p.add_argument("--grid", type=int, default=100000)
    p.add_argument("--xi-m", type=float, default=None,
                   help="density ratio bound w <= xi_m w_m for the mixed "
                        "design tail bound")
    p.add_argument("--r", type=int, default=None,
                   help="projection blocks in the mixed design")
    p.add_argument("--out", default=None)
    return parser


def _config_from(args, schemes=None):
    return ExperimentConfig(
        basis_family=args.basis,
        schemes=tuple(schemes if schemes is not None else args.scheme),
        m_values=tuple(args.m),
        n_values=tuple(args.n) if args.n is not None else None,
        n_multipliers=tuple(args.n_mult) if args.n_mult is not None else None,
        alpha=args.alpha,
        delta=args.delta,
        replicates=args.replicates,
        seed=args.seed,
        target_id=getattr(args, "target", "inv-quad"),
        workers=args.workers)


def _run_bounds(args):
    cc = chernoff_constants(args.delta)
    rows = [
        ["c_delta", cc.c_delta, ""],
        ["d_delta", cc.d_delta, ""],
        ["iid_sample_size",
         required_sample_size("iid", args.m, args.delta, args.eta, args.alpha),
         ""],
        ["volume_sample_size",
         required_sample_size("volume", args.m, args.delta, args.eta,
                              args.alpha), ""],
        ["repeated_dpp_sample_size",
         required_sample_size("repeated-dpp", args.m, args.delta, args.eta),
         "conjecture-dependent"],
    ]
    if args.n is not None:
        for scheme in SCHEME_TAGS:
            b = stability_failure_bound(scheme, args.m, args.n, args.delta,
                                        args.alpha)
            note = "conjecture-dependent" if b.conjecture_dependent else ""
            rows.append([f"{scheme}_failure_bound", b.predicted_failure_prob,
                         note])
        rows.append(["beta", b.beta, ""])
        if args.xi_m is not None and args.r is not None:
            thr, bound = mixed_stability_bound(args.m, args.n, args.r,
                                               args.delta, args.xi_m)
            rows.append(["mixed_design_threshold", thr,
                         "conjecture-dependent"])
            rows.append(["mixed_design_failure_bound", bound,
                         "conjecture-dependent"])
    if args.basis is not None:
        # alpha is checked in (0, 1] by the sample sizes above
        rows.append(["k_grid_lower_bound",
                     k_constant(make_basis(args.basis, args.m),
                                Weight(args.alpha), args.grid), ""])
    write_csv(args.out, ["quantity", "value", "note"], rows)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "stability-map":
            stability_map(_config_from(args), out=args.out)
        elif args.command == "error-table":
            error_table(_config_from(args), out=args.out)
        elif args.command == "error-hist":
            error_histogram(_config_from(args), out=args.out)
        elif args.command == "conjecture-check":
            conjecture_check(args.m, args.t, args.replicates, args.seed,
                             basis_family=args.basis, workers=args.workers,
                             out=args.out)
        elif args.command == "dump-design":
            dump_design(args.scheme, args.basis, args.m, args.n, args.seed,
                        alpha=args.alpha, delta=args.delta, out=args.out)
        elif args.command == "bounds":
            _run_bounds(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DpplsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
