"""Command-line front end.

Every subcommand writes BASE.csv and a BASE.json mirror of the same payload
(see artifact.Artifact), prefixed with a provenance header (tool version, the
exact flag set, seed, timestamp).  Reruns with identical flags and seed are
byte-identical except for the timestamp line.  Exact quantities print as p/q
strings.

Exit codes: 0 success, 2 usage error, 3 infeasible inputs, 4 selftest failure.
"""

import argparse
import atexit
import gc
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .artifact import Artifact
from .lattice import (
    CapExceededError,
    cover_edges,
    enumerate_partitions,
    format_partition,
    mobius_matrix,
    zeta_matrix,
)
from .moments import (
    InfeasibleError,
    MissingMomentError,
    dataset_from_csv,
    evaluate,  # unused; test_wrappers_replace_every_import_binding reads cli.evaluate
    polynomial_from_dict,
    polynomial_to_dict,
    population_from_dict,
)
from .resampling import (
    apply_S,  # unused; test_wrappers_replace_every_import_binding reads cli.apply_S
    factorization,
    linear_regime_size,
    log_gamma_ratio,
    one_norm_id_minus_S,
    one_norm_direct,
    reduced_matrix,
    sampling_matrix,
)
from .debias import (
    StepSchedule,
    bandlimited_bound,
    exact_bias,
    general_bound,
    neumann_trace_bound,
)
from . import mc as mc_mod
from . import selftest


class UsageError(Exception):
    pass


def _at_least(flag, value, low):
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


def _out_base(args, default):
    path = Path(args.out or default)
    if path.suffix in (".csv", ".json"):
        path = path.with_suffix("")
    return path


# -- subcommands ----------------------------------------------------------------------

def cmd_lattice(args, argv):
    index = enumerate_partitions(args.m)
    labels = [format_partition(pi) for pi in index]
    art = Artifact("lattice", argv)
    art.add_table(
        "partitions",
        ["index", "partition", "blocks"],
        [[i, labels[i], pi.block_count] for i, pi in enumerate(index)],
    )
    art.add_table(
        "covers",
        ["finer", "coarser"],
        [[labels[index.position(a)], labels[index.position(b)]] for a, b in cover_edges(index)],
    )
    art.add_matrix("zeta", labels, zeta_matrix(args.m))
    art.add_matrix("mobius", labels, mobius_matrix(args.m))
    art.write(_out_base(args, "lattice"))
    return 0


def cmd_smatrix(args, argv):
    _at_least("--m", args.m, 1)
    _at_least("--n", args.n, 1)
    art = Artifact("smatrix", argv)
    if args.reduced:
        R = reduced_matrix(args.m, args.n)
        art.add_matrix("reduced", [str(i) for i in R.index], R)
    else:
        S = sampling_matrix(args.m, args.n)
        labels = [format_partition(pi) for pi in S.index]
        art.add_matrix("S", labels, S)
        Rd, Cd, check = factorization(args.m, args.n)
        art.add_table(
            "diagonals",
            ["partition", "R", "C"],
            [[labels[i], Rd[i], Cd[i]] for i in range(len(labels))],
        )
        art.add_table("factorization", ["identity", "holds"], [["S = R.zeta.C^-1", check]])
        art.add_table(
            "one_norm",
            ["closed_form", "direct"],
            [[one_norm_id_minus_S(args.m, args.n), one_norm_direct(args.m, args.n)]],
        )
    art.write(_out_base(args, "smatrix"))
    return 0


# what a malformed input JSON raises while it is read into library objects;
# json.load raises RecursionError on deeply nested arrays or objects
_JSON_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError, RecursionError)


def _load_json(path, kind, parse, *args):
    """parse(the object of the JSON at path, *args): the library reads each input file.

    A malformed kind JSON is a UsageError naming it; an unknown population
    family stays an InfeasibleError.
    """
    with open(path) as fh:
        try:
            return parse(json.load(fh), *args)
        except InfeasibleError:
            raise
        except _JSON_ERRORS as exc:
            raise UsageError(f"malformed {kind} JSON {path}: {exc!r}") from None


def _parse_schedule(text, n, k):
    """The k-step schedule at sample size n that --schedule names.

    none, stationary and unit (and no flag) all give the stationary iteration
    StepSchedule.unit(n, k); default gives StepSchedule.default(n, k); a comma
    list gives its own k positive steps, and none of its entries may be empty.
    """
    if text in (None, "none", "stationary", "unit"):
        return StepSchedule.unit(n, k)
    if text == "default":
        return StepSchedule.default(n, k)
    try:
        etas = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse schedule {text!r}")
    if len(etas) != k:
        raise UsageError(f"schedule has {len(etas)} steps but --k is {k}")
    try:
        return StepSchedule(n, etas)
    except ValueError as exc:
        raise UsageError(f"schedule {text!r}: {exc}") from None


def cmd_bias(args, argv):
    _at_least("--n", args.n, 1)
    _at_least("--k", args.k, 0)
    F = _load_json(args.functional, "functional", polynomial_from_dict)
    population = _load_json(args.population, "population", population_from_dict, F.d)
    report = exact_bias(F, _parse_schedule(args.schedule, args.n, args.k), population)
    art = Artifact("bias", argv)
    art.add_table("trajectory", ["k", "signed_bias", "abs_bias", "bound"], report.rows())
    art.add_table("target", ["value"], [[report.target]])
    art.extra["functional"] = polynomial_to_dict(F)
    art.write(_out_base(args, "bias"))
    return 0


def cmd_mc_run(args, argv):
    if (args.data is None) == (args.population is None):
        raise UsageError("exactly one of --data or --population is required")
    _at_least("--k", args.k, 0)
    _at_least("--replicas", args.replicas, 1)
    if args.replicas >= 2**32:  # a replica's spawn key is one uint32 word
        raise UsageError(f"--replicas must be < 2**32, got {args.replicas}")
    _at_least("--seed", args.seed, 0)
    F = _load_json(args.functional, "functional", polynomial_from_dict)
    art = Artifact("mc-run", argv, seed=args.seed)
    art.extra["functional"] = polynomial_to_dict(F)
    try:
        table = (_mc_data_table if args.population is None else _mc_population_table)(args, F)
    except OverflowError as exc:
        # an exact chain coefficient, say a product of huge steps, times a float row
        raise UsageError(f"the chain leaves double range: {exc}") from None
    art.add_table(*table)
    art.write(_out_base(args, "mc_run"))
    return 0


def _mc_data_table(args, F):
    """(name, columns, rows) of an mc-run that resamples the rows of --data."""
    if args.n is not None:
        raise UsageError("--n applies to --population runs only")
    try:
        data = dataset_from_csv(args.data)
    except ValueError as exc:
        raise UsageError(f"malformed dataset CSV: {exc}") from None
    label = max((t.max_label() for t in F.terms), default=-1)
    if label >= data.d:
        raise UsageError(
            f"dataset CSV has {data.d} column(s), but the functional reads label {label}"
        )
    n = data.n
    coeffs = mc_mod.expansion_coefficients(_parse_schedule(args.schedule, n, args.k))
    if args.exhaustive and n > 4:
        raise InfeasibleError(
            f"exhaustive enumeration needs C({2 * n - 1}, {n}) ="
            f" {math.comb(2 * n - 1, n)} resamples per level; n <= 4 only"
        )
    target = mc_mod.chain_expectation(F, coeffs, data)
    if args.exhaustive:
        value = mc_mod.exhaustive_estimate(F, data, coeffs)
        return "exhaustive", ["k", "value", "target"], [[args.k, value, target]]
    report = mc_mod.mc_estimate(F, data, coeffs, args.replicas, args.seed)
    return (
        "estimate",
        ["k", "replicas", "estimate", "se", "target", "seed"],
        [[args.k, report.replicas, report.estimate, report.se, target, args.seed]],
    )


def _mc_population_table(args, F):
    """(name, columns, rows) of an mc-run that draws X^1 from --population."""
    if args.exhaustive:
        raise UsageError("--exhaustive applies to --data runs only")
    if args.n is None:
        raise UsageError("--n is required with --population")
    _at_least("--n", args.n, 1)
    population = _load_json(args.population, "population", population_from_dict, F.d)
    schedule = _parse_schedule(args.schedule, args.n, args.k)
    rows = mc_mod.bias_experiment(F, population, schedule, args.replicas, seed=args.seed)
    return (
        "bias_experiment",
        ["k", "replicas", "empirical_bias", "se", "exact_bias", "bound", "seed"],
        [
            [
                r.k,
                r.report.replicas,
                r.report.estimate,
                r.report.se,
                r.exact_bias,
                r.bound,
                r.report.seed,
            ]
            for r in rows
        ],
    )


def _bounds_table(args):
    """(name, columns, rows) of the calculator that --kind names."""
    if args.kind == "trace":
        if args.sigma is None:
            raise UsageError("--sigma is required for kind=trace")
        k, bound = neumann_trace_bound(args.sigma, args.n)
        return "trace", ["sigma", "n", "k", "bound"], [[args.sigma, args.n, k, bound]]
    if args.kind == "bandlimited":
        if args.d is None or args.theta is None:
            raise UsageError("--d and --theta are required for kind=bandlimited")
        k, bound = bandlimited_bound(args.d, args.theta, args.n)
        return (
            "bandlimited",
            ["d", "theta", "n", "k", "bound"],
            [[args.d, args.theta, args.n, k, bound]],
        )
    if args.kind == "general":
        if not args.gammas:
            raise UsageError("--gammas is required for kind=general")
        try:
            gammas = [float(Fraction(g)) for g in args.gammas.split(",")]
        except (ValueError, ZeroDivisionError, OverflowError):
            raise UsageError(f"cannot parse gamma sequence {args.gammas!r}")
        k, bound = general_bound(gammas, args.n)
        return "general", ["n", "k_star", "bound"], [[args.n, k, bound]]
    # linconv
    _at_least("--m-max", args.m_max, 1)
    if args.m_max > 4096:  # row m sums m log1p terms: 4096 rows take about 1 s
        raise UsageError(f"--m-max must be <= 4096, got {args.m_max}")
    rows = []
    for m in range(1, args.m_max + 1):
        n = linear_regime_size(m, args.alpha)
        ratio = math.exp(log_gamma_ratio(m, n))
        rows.append([m, n, ratio, ratio >= 0.75])
    return "linconv", ["m", "n", "gamma_ratio", "at_least_3_4"], rows


def cmd_bounds(args, argv):
    _at_least("--n", args.n, 1)
    try:
        table = _bounds_table(args)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None
    art = Artifact("bounds", argv)
    art.add_table(*table)
    art.write(_out_base(args, "bounds"))
    return 0


def cmd_selftest(args, argv):
    for name, fn in selftest.SELFTEST_CHECKS:
        try:
            fn()
        except selftest.SelfTestFailure as exc:
            print(f"FAIL {name}: {exc}")
            return 4
        print(f"ok {name}")
    print("selftest: all invariants hold")
    return 0

# -- entry point ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mobiusboot",
        description="Bootstrap bias correction as exact linear algebra on the partition lattice.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="partitions, cover edges, zeta and Moebius matrices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("smatrix", help="sampling matrix, diagonal factors, norms")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reduced", action="store_true", help="emit the level-sum matrix instead")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_smatrix)

    p = sub.add_parser("bias", help="exact bias trajectory of iterated estimators")
    p.add_argument("--functional", required=True, help="moment polynomial JSON")
    p.add_argument("--population", required=True, help="population JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--schedule", default=None, help="none|stationary|unit|default|eta1,eta2,...")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bias)

    p = sub.add_parser("mc-run", help="Monte Carlo or exhaustive chain simulation")
    p.add_argument("--functional", required=True)
    p.add_argument("--data", help="dataset CSV; chains resample these rows")
    p.add_argument("--population", help="population JSON; replica draws come from it")
    p.add_argument("--n", type=int, help="sample size when drawing from a population")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--schedule", default=None, help="none|stationary|unit|default|eta1,eta2,...")
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mc_run)

    p = sub.add_parser("bounds", help="oracle and family bound calculators")
    p.add_argument("--kind", choices=["trace", "bandlimited", "general", "linconv"], required=True)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--sigma", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--gammas", help="comma-separated gamma sequence")
    p.add_argument("--alpha", type=float, default=8.0)
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("selftest", help="run the exact invariant suite")
    p.set_defaults(fn=cmd_selftest)

    return parser


def _is_number(text):
    """Whether text reads as a float (inf and nan included) or a p/q fraction.

    A p/q with q = 0 counts too, so that its option's own check names it.
    """
    try:
        float(text)
    except ValueError:
        try:
            Fraction(text)
        except ZeroDivisionError:
            return True
        except ValueError:
            return False
    return True


def _join_signed_values(argv):
    """argv with each "--option -value" written "--option=-value" when the value is numeric.

    argparse takes a token that starts with "-" for an option unless it reads
    as a plain negative number, so "--theta -inf", "--sigma -nan",
    "--theta -1e5" and "--schedule -1,2" would stop at "expected one
    argument"; joined, the value reaches its option's own check, as
    "--theta=-inf" does.  A value is numeric when each of its comma-separated
    parts reads as a float or a p/q fraction.
    """
    out = []
    for token in argv:
        last = out[-1] if out else ""
        if (
            token[:1] == "-"
            and last[:2] == "--"
            and "=" not in last
            and all(map(_is_number, token.split(",")))
        ):
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    # numpy loads on the first Monte Carlo draw, and no route of the package
    # calls BLAS: an OpenBLAS thread pool would only spin and burn CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the interpreter's shutdown runs full cyclic collections over the whole
    # heap, which the process exit frees anyway; frozen first, it is skipped.
    # One registration per process, however often main runs; handlers
    # registered before it still run, after it (last in, first out)
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
        return args.fn(args, argv)
    except (UsageError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, MissingMomentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
