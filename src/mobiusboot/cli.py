"""Command-line front end.

Every subcommand writes BASE.csv and a BASE.json mirror of the same payload,
prefixed with a provenance header (tool version, the exact flag set, seed,
timestamp).  Reruns with identical flags and seed are byte-identical except
for the timestamp line.  Exact quantities print as p/q strings.

Exit codes: 0 success, 2 usage error, 3 infeasible inputs, 4 selftest failure.
"""

import argparse
import csv
import io
import json
import math
import numbers
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .lattice import (
    CapExceededError,
    Partition,
    cover_edges,
    enumerate_partitions,
    format_partition,
    mobius_matrix,
    zeta_matrix,
)
from .moments import (
    Dataset,
    InfeasibleError,
    LabeledTerm,
    MissingMomentError,
    MomentPolynomial,
    MomentTable,
    dataset_from_csv,
    evaluate,
    normal_moment_table,
    polynomial_from_dict,
    polynomial_to_dict,
)
from .resampling import (
    apply_S,
    factorization,
    log_gamma_ratio,
    one_norm_id_minus_S,
    one_norm_direct,
    one_norm_id_minus_scaled,
    reduced_matrix,
    sampling_matrix,
)
from .debias import (
    StepSchedule,
    bandlimited_bound,
    exact_bias,
    general_bound,
    neumann_trace_bound,
    nonstationary_debias,
    richardson_debias,
)
from . import mc as mc_mod


class UsageError(Exception):
    pass


def _at_least(flag, value, low):
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


def _scalar(v):
    """Cell text: p/q for exact values, shortest round-trip repr for floats."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, numbers.Integral):  # numpy integer scalars
        return str(int(v))
    if isinstance(v, numbers.Real):  # float; numpy floats would repr as np.float64(...)
        return repr(float(v))
    return str(v)


class Artifact:
    """Named tables plus provenance, rendered to a CSV and a JSON mirror."""

    def __init__(self, command, argv, seed=None):
        self.provenance = {
            "tool": "mobiusboot",
            "version": __version__,
            "command": command,
            "flags": " ".join(argv),
            "seed": "-" if seed is None else str(seed),
        }
        self.tables = []
        self.extra = {}

    def add_table(self, name, columns, rows):
        self.tables.append(
            {
                "name": name,
                "columns": list(columns),
                "rows": [[_scalar(v) for v in row] for row in rows],
            }
        )

    def write(self, base):
        stamp = datetime.now(timezone.utc).isoformat()
        base = Path(base)
        if base.parent != Path("."):
            base.parent.mkdir(parents=True, exist_ok=True)

        buf = io.StringIO()
        for key, val in self.provenance.items():
            buf.write(f"# {key}: {val}\n")
        buf.write(f"# timestamp: {stamp}\n")
        writer = csv.writer(buf, lineterminator="\n")
        for table in self.tables:
            buf.write(f"# table: {table['name']}\n")
            writer.writerow(table["columns"])
            writer.writerows(table["rows"])
        Path(f"{base}.csv").write_text(buf.getvalue())

        payload = {
            "provenance": dict(self.provenance),
            "timestamp": stamp,
            "tables": {
                t["name"]: {"columns": t["columns"], "rows": t["rows"]}
                for t in self.tables
            },
        }
        payload.update(self.extra)
        Path(f"{base}.json").write_text(json.dumps(payload, indent=1) + "\n")


def _out_base(args, default):
    path = Path(args.out or default)
    if path.suffix in (".csv", ".json"):
        path = path.with_suffix("")
    return path


def _matrix_table(artifact, name, labels, entries):
    artifact.add_table(
        name,
        ["row"] + labels,
        [[labels[i]] + list(row) for i, row in enumerate(entries)],
    )


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
        [[format_partition(a), format_partition(b)] for a, b in cover_edges(index)],
    )
    _matrix_table(art, "zeta", labels, zeta_matrix(args.m).entries)
    _matrix_table(art, "mobius", labels, mobius_matrix(args.m).entries)
    art.write(_out_base(args, "lattice"))
    return 0


def cmd_smatrix(args, argv):
    _at_least("--n", args.n, 1)
    art = Artifact("smatrix", argv)
    if args.reduced:
        R = reduced_matrix(args.m, args.n)
        levels = [str(i) for i in range(1, args.m + 1)]
        _matrix_table(art, "reduced", levels, R.entries)
    else:
        S = sampling_matrix(args.m, args.n)
        labels = [format_partition(pi) for pi in S.index]
        _matrix_table(art, "S", labels, S.entries)
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


def _load_functional(path):
    with open(path) as fh:
        try:
            return polynomial_from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed functional JSON {path}: {exc!r}") from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _moment_value(val):
    """A moment value: a p/q string (exact) or a finite JSON number."""
    if isinstance(val, str):
        return Fraction(val)
    if not (_is_int(val) or isinstance(val, float)):
        raise ValueError(f"moment value {val!r} is neither a p/q string nor a number")
    if not math.isfinite(val):
        raise ValueError(f"moment value {val!r} is not finite")
    return float(val)


def _parse_population(obj, needed_order, d):
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    family = obj.get("family")
    if family not in (None, "normal"):
        raise InfeasibleError(f"unknown population family {family!r}")
    d = obj["d"] if family is None else obj.get("d", d)
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if family == "normal":
        return normal_moment_table(d, needed_order), mc_mod.normal_sampler(d)
    values = {}
    for entry in obj["moments"]:
        block = entry["block"]
        if not (isinstance(block, list) and all(_is_int(b) and 0 <= b < d for b in block)):
            raise ValueError(f"block {block!r} is not a list of labels in 0..{d - 1}")
        values[tuple(block)] = _moment_value(entry["value"])
    return MomentTable(d, values), None


def _load_population(path, needed_order, d):
    """Moment table plus an optional replica sampler, from a population JSON."""
    with open(path) as fh:
        try:
            return _parse_population(json.load(fh), needed_order, d)
        except InfeasibleError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise UsageError(f"malformed population JSON {path}: {exc!r}") from None


def _parse_schedule(text, n, k):
    """none | default | unit | comma list of steps; None means stationary."""
    if text in (None, "none", "stationary"):
        return None
    if text == "default":
        return StepSchedule.default(n, k)
    if text == "unit":
        return StepSchedule.unit(n, k)
    try:
        etas = [Fraction(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse schedule {text!r}")
    if not etas:
        raise UsageError("custom schedule is empty")
    if len(etas) != k:
        raise UsageError(f"schedule has {len(etas)} steps but --k is {k}")
    return StepSchedule(n, etas)


def cmd_bias(args, argv):
    _at_least("--n", args.n, 1)
    _at_least("--k", args.k, 0)
    F = _load_functional(args.functional)
    table, _ = _load_population(args.population, F.max_order(), F.d)
    schedule = _parse_schedule(args.schedule, args.n, args.k)
    mode = "stationary" if schedule is None else "schedule"
    report = exact_bias(F, args.n, args.k, table, mode=mode, schedule=schedule)
    art = Artifact("bias", argv)
    art.add_table("trajectory", ["k", "signed_bias", "abs_bias", "bound"], report.rows())
    art.add_table("target", ["value"], [[report.target]])
    art.extra["functional"] = polynomial_to_dict(F)
    art.write(_out_base(args, "bias"))
    return 0


def _chain_expectation(F, n, coeffs, data):
    """Exact E over chains with the data as first link: evaluate(S.G, data)."""
    total = MomentPolynomial(F.d, {})
    g = F
    for j, a in enumerate(coeffs):
        if j > 0:
            g = apply_S(g, n)
        total = total + a * g
    return evaluate(apply_S(total, n), data)


def cmd_mc_run(args, argv):
    if (args.data is None) == (args.population is None):
        raise UsageError("exactly one of --data or --population is required")
    _at_least("--k", args.k, 0)
    _at_least("--replicas", args.replicas, 1)
    F = _load_functional(args.functional)
    art = Artifact("mc-run", argv, seed=args.seed)
    art.extra["functional"] = polynomial_to_dict(F)

    if args.data is not None:
        try:
            data = dataset_from_csv(args.data)
        except ValueError as exc:
            raise UsageError(f"malformed dataset CSV: {exc}") from None
        n = data.n
        schedule = _parse_schedule(args.schedule, n, args.k)
        coeffs = mc_mod.expansion_coefficients(args.k if schedule is None else schedule)
        target = _chain_expectation(F, n, coeffs, data)
        if args.exhaustive:
            if n > 4:
                raise InfeasibleError(
                    f"exhaustive enumeration needs C({2 * n - 1}, {n}) ="
                    f" {math.comb(2 * n - 1, n)} resamples per level; n <= 4 only"
                )
            value = mc_mod.exhaustive_estimate(F, data, coeffs)
            art.add_table("exhaustive", ["k", "value", "target"], [[args.k, value, target]])
        else:
            report = mc_mod.mc_estimate(
                F, data, coeffs, args.replicas, args.seed, target=float(target)
            )
            art.add_table(
                "estimate",
                ["k", "replicas", "estimate", "se", "target", "seed"],
                [[args.k, report.replicas, report.estimate, report.se, target, args.seed]],
            )
    else:
        if args.exhaustive:
            raise UsageError("--exhaustive applies to --data runs only")
        if args.n is None:
            raise UsageError("--n is required with --population")
        _at_least("--n", args.n, 1)
        table, sampler = _load_population(args.population, F.max_order(), F.d)
        if sampler is None:
            raise InfeasibleError(
                "population JSON without a sampling family cannot be simulated;"
                " use the bias subcommand for exact trajectories"
            )
        schedule = _parse_schedule(args.schedule, args.n, args.k)
        mode = "stationary" if schedule is None else "schedule"
        rows = mc_mod.bias_experiment(
            F,
            table,
            args.n,
            args.k,
            args.replicas,
            mode=mode,
            seed=args.seed,
            schedule=schedule,
            sampler=sampler,
        )
        art.add_table(
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
    art.write(_out_base(args, "mc_run"))
    return 0


def cmd_bounds(args, argv):
    art = Artifact("bounds", argv)
    if args.kind == "trace":
        if args.sigma is None:
            raise UsageError("--sigma is required for kind=trace")
        k, bound = neumann_trace_bound(args.sigma, args.n)
        art.add_table("trace", ["sigma", "n", "k", "bound"], [[args.sigma, args.n, k, bound]])
    elif args.kind == "bandlimited":
        if args.d is None or args.theta is None:
            raise UsageError("--d and --theta are required for kind=bandlimited")
        k, bound = bandlimited_bound(args.d, args.theta, args.n)
        art.add_table(
            "bandlimited",
            ["d", "theta", "n", "k", "bound"],
            [[args.d, args.theta, args.n, k, bound]],
        )
    elif args.kind == "general":
        if not args.gammas:
            raise UsageError("--gammas is required for kind=general")
        try:
            gammas = [float(Fraction(g)) for g in args.gammas.split(",")]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse gamma sequence {args.gammas!r}")
        try:
            k, bound = general_bound(gammas, args.n)
        except ValueError as exc:
            raise UsageError(str(exc))
        art.add_table("general", ["n", "k_star", "bound"], [[args.n, k, bound]])
    else:  # linconv
        rows = []
        for m in range(1, args.m_max + 1):
            n = max(math.ceil(args.alpha * m * m), m + 1)
            ratio = math.exp(log_gamma_ratio(m, n))
            rows.append([m, n, ratio, ratio >= 0.75])
        art.add_table("linconv", ["m", "n", "gamma_ratio", "at_least_3_4"], rows)
    art.write(_out_base(args, "bounds"))
    return 0


# -- selftest -------------------------------------------------------------------------

class SelfTestFailure(Exception):
    pass


def _ensure(cond, msg):
    if not cond:
        raise SelfTestFailure(msg)


def _check_mobius_small():
    Z = zeta_matrix(3)
    M = mobius_matrix(3)
    expect = [
        [1, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0],
        [-1, 0, 1, 0, 0],
        [-1, 0, 0, 1, 0],
        [2, -1, -1, -1, 1],
    ]
    _ensure(M.entries == expect, "m=3 Moebius matrix differs from the known table")
    n = len(Z.entries)
    prod = [
        [sum(Z.entries[i][l] * M.entries[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _ensure(prod == ident, "zeta . mobius is not the identity at m=3")


def _check_inverse_pair():
    for m in range(1, 6):
        Z = zeta_matrix(m)
        M = mobius_matrix(m)
        n = len(Z.entries)
        for i in range(n):
            for j in range(n):
                got = sum(Z.entries[i][l] * M.entries[l][j] for l in range(n))
                _ensure(got == (1 if i == j else 0), f"zeta.mobius != I at m={m}")


def _check_column_sums():
    for m in range(1, 5):
        for n in range(1, 6):
            S = sampling_matrix(m, n)
            size = len(S.entries)
            for j in range(size):
                total = sum(S.entries[i][j] for i in range(size))
                _ensure(total == 1, f"column sum != 1 at m={m}, n={n}")
            for i, pi in enumerate(S.index):
                if pi.block_count > n:
                    _ensure(
                        all(S.entries[i][j] == 0 for j in range(size)),
                        f"row with too many blocks is not zero at m={m}, n={n}",
                    )


def _check_factorization():
    for m in range(1, 5):
        for n in (1, 2, 3, 5):
            _, _, ok = factorization(m, n)
            _ensure(ok, f"diagonal factorization fails at m={m}, n={n}")


def _check_one_norm():
    for m in range(1, 5):
        for n in (1, 2, 3, 5, 8):
            _ensure(
                one_norm_id_minus_S(m, n) == one_norm_direct(m, n),
                f"one-norm closed form != direct at m={m}, n={n}",
            )
            etas = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2)]
            if m <= n:
                etas += StepSchedule.default(n, m).etas
            for eta in etas:
                _ensure(
                    one_norm_id_minus_scaled(m, n, eta) == one_norm_direct(m, n, eta),
                    f"scaled one-norm closed form != direct at m={m}, n={n}, eta={eta}",
                )


def _basis_poly(pi, m):
    return MomentPolynomial(m, {LabeledTerm.from_positions(pi, range(m)): Fraction(1)})


def _check_annihilation():
    for m in range(1, 5):
        n = m
        schedule = StepSchedule.default(n, m)
        for pi in enumerate_partitions(m):
            F = _basis_poly(pi, m)
            g = nonstationary_debias(F, n, schedule)
            residual = apply_S(g, n) - F
            _ensure(
                not residual.terms,
                f"m-step default schedule leaves bias at m={m}",
            )


def _check_richardson_identity():
    n = 3
    for m in (1, 2, 3):
        F = _basis_poly(Partition.finest(m), m)
        for k in range(3):
            g = richardson_debias(F, n, k)
            bias = apply_S(g, n) - F
            power = F
            for _ in range(k + 1):
                power = power - apply_S(power, n)
            expect = MomentPolynomial(F.d, {}) - power
            _ensure(
                bias.terms == expect.terms,
                f"Richardson bias identity fails at m={m}, k={k}",
            )


def _check_expansion_coefficients():
    for k in range(6):
        coeffs = mc_mod.expansion_coefficients(k)
        expect = tuple(
            Fraction((-1) ** j * math.comb(k + 1, j + 1)) for j in range(k + 1)
        )
        _ensure(tuple(coeffs) == expect, f"stationary coefficients differ at k={k}")
        _ensure(sum(coeffs) == 1, f"coefficients do not sum to 1 at k={k}")


def _check_exhaustive_chain():
    data = Dataset([(Fraction(0),), (Fraction(1),)])
    var = MomentPolynomial(
        1, {LabeledTerm([[0, 0]]): Fraction(1), LabeledTerm([[0], [0]]): Fraction(-1)}
    )
    coeffs = mc_mod.expansion_coefficients(1)
    got = mc_mod.exhaustive_estimate(var, data, coeffs)
    want = _chain_expectation(var, 2, coeffs, data)
    _ensure(got == want, "exhaustive chain average != operator route at n=2")


SELFTEST_CHECKS = [
    ("mobius_small_table", _check_mobius_small),
    ("zeta_mobius_inverse", _check_inverse_pair),
    ("sampling_column_sums", _check_column_sums),
    ("diagonal_factorization", _check_factorization),
    ("one_norm_closed_form", _check_one_norm),
    ("default_schedule_annihilation", _check_annihilation),
    ("richardson_bias_identity", _check_richardson_identity),
    ("expansion_coefficients", _check_expansion_coefficients),
    ("exhaustive_chain", _check_exhaustive_chain),
]


def cmd_selftest(args, argv):
    for name, fn in SELFTEST_CHECKS:
        try:
            fn()
        except SelfTestFailure as exc:
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
    p.add_argument("--schedule", default=None, help="none|default|unit|eta1,eta2,...")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bias)

    p = sub.add_parser("mc-run", help="Monte Carlo or exhaustive chain simulation")
    p.add_argument("--functional", required=True)
    p.add_argument("--data", help="dataset CSV; chains resample these rows")
    p.add_argument("--population", help="population JSON; replica draws come from it")
    p.add_argument("--n", type=int, help="sample size when drawing from a population")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--schedule", default=None, help="none|default|unit|eta1,eta2,...")
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


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, MissingMomentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
