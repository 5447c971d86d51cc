"""Command-line front end.

Every subcommand writes BASE.csv and a BASE.json mirror of the same payload,
prefixed with a provenance header (tool version, the exact flag set, seed,
timestamp).  Reruns with identical flags and seed are byte-identical except
for the timestamp line.  Exact quantities print as p/q strings.

Table rows are rendered at write time, one row at a time: each row's cells
become text once and go to both files before the next row is read, so no
table is held as text.  A row of int, Fraction and str cells takes each text
from a value -> text dict that lives for one write, so str runs once per
distinct value, not once per cell.  A row whose cell texts neither CSV quoting
nor JSON escaping would touch is joined once, and both files are written from
that line.
A matrix table holds its IncidenceMatrix, and each row is built from its
stored cells: the zeros between them are slices of one precomputed zero run
per file.  A row whose stored columns are not its support() row, whose stored
values are not all int, Fraction or str, or whose line is not plain, is
rendered cell by cell like any other row.
The JSON mirror is byte for byte what json.dump(payload, fh, indent=1)
followed by a newline would write.

Exit codes: 0 success, 2 usage error, 3 infeasible inputs, 4 selftest failure.
"""

import argparse
import csv
import json
import math
import numbers
import sys
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
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
    _dense_row,
)
from .moments import (
    Dataset,
    InfeasibleError,
    LabeledTerm,
    MissingMomentError,
    MomentPolynomial,
    MomentTable,
    _is_int,
    dataset_from_csv,
    evaluate,  # unused here; benchmarks/test_benchmark.py checks its traced binding
    normal_moment_table,
    polynomial_from_dict,
    polynomial_to_dict,
    scalar_from_json,
)
from .resampling import (
    _one_norm,
    apply_S,
    apply_S_inverse,
    factorization,
    linear_regime_size,
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


_PLAIN_CELLS = frozenset((int, Fraction, str))

# top-level keys of the JSON mirror that Artifact.extra may not replace
_RESERVED_KEYS = frozenset(("provenance", "timestamp", "tables"))


class _Texts(dict):
    """value -> str(value) for int, Fraction and str cells, filled on a miss.

    Exact within those three types: equal values print the same text (2 and
    Fraction(2) both print 2, and a str never equals a number).  A bool, float
    or numpy cell may equal an int yet print otherwise, so none is ever a key.
    """

    __slots__ = ()

    def __missing__(self, value):
        text = self[value] = str(value)
        return text


def _cells(row, texts):
    """Cell texts of one row: from TEXTS, a _Texts, when every cell is an int,
    Fraction or str, through _scalar otherwise."""
    if _PLAIN_CELLS.issuperset(map(type, row)):
        return list(map(texts.__getitem__, row))
    return [_scalar(v) for v in row]


def _plain_line(cells):
    """The cells joined by commas, when csv.writer and JSON would write them as they are.

    Otherwise None, and None for an empty line: no cells, or one empty cell,
    which csv.writer writes as '""'.
    """
    line = ",".join(cells)
    return line if _is_plain(line, len(cells)) else None


def _is_plain(line, count):
    """Whether LINE, COUNT cell texts joined by commas, is written as it is to CSV and JSON.

    That holds when the line is nonempty printable ASCII without '"' or '\\'
    and holds exactly count - 1 commas, so that no cell has one.
    """
    return (
        line
        and line.isascii()
        and line.isprintable()
        and '"' not in line
        and "\\" not in line
        and line.count(",") == count - 1
    )


def _render(row, texts):
    """(line, text, cells) of one row: its CSV line, or None when csv.writer must
    write CELLS, and the JSON text between the row's brackets ('' for no cells)."""
    cells = _cells(row, texts)
    line = _plain_line(cells)
    if line is None:
        return None, ",\n     ".join(map(_json_str, cells)), cells
    return line, '"' + line.replace(",", '",\n     "') + '"', cells


class _MatrixRows:
    """The rows [label, *row] of a square IncidenceMatrix, rendered from its stored cells.

    Iterating gives the rows as cells, like any table's rows; Artifact.write
    calls render instead.
    """

    __slots__ = ("labels", "matrix")

    def __init__(self, labels, matrix):
        self.labels = labels
        self.matrix = matrix

    def __iter__(self):
        n = len(self.labels)
        return (
            [label, *_dense_row(cols, vals, n)]
            for label, cols, vals in zip(self.labels, self.matrix.columns, self.matrix.values)
        )

    def render(self, texts):
        """_render's (line, text, cells) per row, built from the row's stored cells.

        The zeros between stored cells are sliced from one ',0' run and from
        its JSON counterpart, and each stored cell's text comes from TEXTS.
        Every cell that is not stored is the int 0, so that is exact for a row
        whose stored columns are its support() row, whose stored values are
        int, Fraction or str (a bool or float prints otherwise), and whose line
        is plain.  Any other row goes through _render.
        """
        n = len(self.labels)
        zeros_csv = ",0" * n
        zeros_json = '",\n     "0' * n
        matrix = self.matrix
        rows = zip(self.labels, matrix.columns, matrix.values, matrix.support())
        for label, cols, vals, support in rows:
            if (
                cols == support
                and type(label) in _PLAIN_CELLS
                and _PLAIN_CELLS.issuperset(map(type, vals))
            ):
                head = texts[label]
                csv_parts, json_parts = [head], ['"' + head]
                end = 0
                for j, v in zip(cols, vals):
                    text = texts[v]
                    csv_parts += zeros_csv[: 2 * (j - end)], ",", text
                    json_parts += zeros_json[: 10 * (j - end)], '",\n     "', text
                    end = j + 1
                csv_parts.append(zeros_csv[: 2 * (n - end)])
                line = "".join(csv_parts)
                if _is_plain(line, n + 1):
                    json_parts += zeros_json[: 10 * (n - end)], '"'
                    yield line, "".join(json_parts), None
                    continue
            yield _render([label, *_dense_row(cols, vals, n)], texts)


class Artifact:
    """Named tables plus provenance, rendered to a CSV and a JSON mirror.

    Rows are kept as the caller gave them and rendered at write time, one row
    at a time into both files, so no table is ever held as text.
    """

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
        """Add a table; ROWS (an iterable of cell sequences) is read once, by write."""
        if any(name == t[0] for t in self.tables):
            raise ValueError(f"duplicate table name {name!r}")
        self.tables.append((name, list(columns), rows))

    def write(self, base):
        """Write BASE.csv and BASE.json, each table's rows streamed into both.

        Each row's cells are rendered once and written to both files before
        the next row is read.  The JSON mirror is byte for byte what
        json.dump(payload, fh, indent=1) plus a newline gives, the payload
        being the provenance, the timestamp, the tables by name and then the
        extra keys.
        """
        clash = _RESERVED_KEYS.intersection(self.extra)
        if clash:
            raise ValueError(f"extra keys {sorted(clash)} would replace the artifact's own blocks")
        stamp = datetime.now(timezone.utc).isoformat()
        base = Path(base)
        if base.parent != Path("."):
            base.parent.mkdir(parents=True, exist_ok=True)

        # The small parts first, so that one JSON cannot encode fails before any
        # file opens.  Columns sit three levels deep: JSON strings never hold a
        # raw newline, so re-indenting every newline of json.dumps is exact.
        head = json.dumps({"provenance": self.provenance, "timestamp": stamp}, indent=1)
        extra = json.dumps(self.extra, indent=1)[1:-2]  # '\n "key": value,...', '' if empty
        table_heads = [
            f'  {_json_str(name)}: {{\n   "columns": '
            + json.dumps(columns, indent=1).replace("\n", "\n   ")
            + ',\n   "rows": ['
            for name, columns, _ in self.tables
        ]

        with open(f"{base}.csv", "w") as csv_fh, open(f"{base}.json", "w") as json_fh:
            for key, val in self.provenance.items():
                csv_fh.write(f"# {key}: {val}\n")
            csv_fh.write(f"# timestamp: {stamp}\n")
            writer = csv.writer(csv_fh, lineterminator="\n")
            json_fh.write(head[:-2] + ',\n "tables": {')
            table_sep = "\n"
            texts = _Texts()
            for (name, columns, rows), table_head in zip(self.tables, table_heads):
                csv_fh.write(f"# table: {name}\n")
                writer.writerow(columns)
                json_fh.write(table_sep + table_head)
                if isinstance(rows, _MatrixRows):
                    rendered = rows.render(texts)
                else:
                    rendered = (_render(row, texts) for row in rows)
                row_sep = ""
                for line, text, cells in rendered:
                    if line is None:
                        writer.writerow(cells)
                    else:
                        csv_fh.write(line + "\n")
                    if text:
                        json_fh.write(f"{row_sep}\n    [\n     {text}\n    ]")
                    else:
                        json_fh.write(f"{row_sep}\n    []")
                    row_sep = ","
                json_fh.write("\n   ]\n  }" if row_sep else "]\n  }")
                table_sep = ",\n"
            json_fh.write("\n }" if self.tables else "}")
            json_fh.write(f",{extra}\n}}\n" if extra else "\n}\n")


def _out_base(args, default):
    path = Path(args.out or default)
    if path.suffix in (".csv", ".json"):
        path = path.with_suffix("")
    return path


def _matrix_table(artifact, name, labels, matrix):
    artifact.add_table(name, ["row"] + labels, _MatrixRows(labels, matrix))


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
    _matrix_table(art, "zeta", labels, zeta_matrix(args.m))
    _matrix_table(art, "mobius", labels, mobius_matrix(args.m))
    art.write(_out_base(args, "lattice"))
    return 0


def cmd_smatrix(args, argv):
    _at_least("--m", args.m, 1)
    _at_least("--n", args.n, 1)
    art = Artifact("smatrix", argv)
    if args.reduced:
        R = reduced_matrix(args.m, args.n)
        _matrix_table(art, "reduced", [str(i) for i in R.index], R)
    else:
        S = sampling_matrix(args.m, args.n)
        labels = [format_partition(pi) for pi in S.index]
        _matrix_table(art, "S", labels, S)
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


# what a malformed input JSON raises while it is read into library objects
_JSON_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError)


def _load_functional(path):
    with open(path) as fh:
        try:
            return polynomial_from_dict(json.load(fh))
        except _JSON_ERRORS as exc:
            raise UsageError(f"malformed functional JSON {path}: {exc!r}") from None


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
        key = tuple(sorted(block))
        if key in values:
            raise ValueError(f"block {list(key)} is listed twice")
        values[key] = scalar_from_json(entry["value"])
    return MomentTable(d, values), None


def _load_population(path, needed_order, d):
    """Moment table plus an optional replica sampler, from a population JSON."""
    with open(path) as fh:
        try:
            return _parse_population(json.load(fh), needed_order, d)
        except InfeasibleError:
            raise
        except _JSON_ERRORS as exc:
            raise UsageError(f"malformed population JSON {path}: {exc!r}") from None


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
    F = _load_functional(args.functional)
    table, _ = _load_population(args.population, F.max_order(), F.d)
    report = exact_bias(F, _parse_schedule(args.schedule, args.n, args.k), table)
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
    F = _load_functional(args.functional)
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
    table, sampler = _load_population(args.population, F.max_order(), F.d)
    if sampler is None:
        raise InfeasibleError(
            "population JSON without a sampling family cannot be simulated;"
            " use the bias subcommand for exact trajectories"
        )
    schedule = _parse_schedule(args.schedule, args.n, args.k)
    rows = mc_mod.bias_experiment(
        F, table, schedule, args.replicas, seed=args.seed, sampler=sampler
    )
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
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse gamma sequence {args.gammas!r}")
        k, bound = general_bound(gammas, args.n)
        return "general", ["n", "k_star", "bound"], [[args.n, k, bound]]
    # linconv
    if not args.alpha > 0:
        raise UsageError(f"--alpha must be > 0, got {args.alpha}")
    _at_least("--m-max", args.m_max, 1)
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
    _ensure(_is_identity(Z, M), "zeta . mobius is not the identity at m=3")


def _dense_columns(M):
    """M's columns as lists, read from its stored cells."""
    n = len(M.index)
    columns = [[0] * n for _ in range(n)]
    for i, (cols, vals) in enumerate(zip(M.columns, M.values)):
        for j, v in zip(cols, vals):
            columns[j][i] = v
    return columns


def _is_identity(Z, M):
    """Whether Z.M is the identity, column by column of M."""
    n = len(M.index)
    return all(
        Z.matvec(col) == [int(i == j) for i in range(n)]
        for j, col in enumerate(_dense_columns(M))
    )


def _check_inverse_pair():
    for m in range(1, 6):
        _ensure(_is_identity(zeta_matrix(m), mobius_matrix(m)), f"zeta.mobius != I at m={m}")


def _check_column_sums():
    for m in range(1, 5):
        for n in range(1, 6):
            S = sampling_matrix(m, n)
            for col in _dense_columns(S):
                _ensure(sum(col) == 1, f"column sum != 1 at m={m}, n={n}")
            for vals, pi in zip(S.values, S.index):
                if pi.block_count > n:
                    _ensure(
                        not any(vals),
                        f"row with too many blocks is not zero at m={m}, n={n}",
                    )


def _check_factorization():
    for m in range(1, 5):
        for n in (1, 2, 3, 5):
            _, _, ok = factorization(m, n)
            _ensure(ok, f"diagonal factorization fails at m={m}, n={n}")


def _check_one_norm():
    # one dense S per (m, n) serves every eta
    for m in range(1, 5):
        for n in (1, 2, 3, 5, 8):
            S = sampling_matrix(m, n)
            _ensure(
                one_norm_id_minus_S(m, n) == _one_norm(S, 1),
                f"one-norm closed form != direct at m={m}, n={n}",
            )
            etas = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2)]
            if m <= n:
                etas += StepSchedule.default(n, m).etas
            for eta in etas:
                _ensure(
                    one_norm_id_minus_scaled(m, n, eta) == _one_norm(S, eta),
                    f"scaled one-norm closed form != direct at m={m}, n={n}, eta={eta}",
                )


def _basis_poly(pi, m):
    return MomentPolynomial(m, {LabeledTerm.from_positions(pi, range(m)): Fraction(1)})


def _check_annihilation():
    # the m-step iterate G has S G = F, and S is invertible at N = m
    for m in range(1, 5):
        n = m
        schedule = StepSchedule.default(n, m)
        for pi in enumerate_partitions(m):
            F = _basis_poly(pi, m)
            _ensure(
                nonstationary_debias(F, n, schedule) == apply_S_inverse(F, n),
                f"m-step default schedule iterate differs from S^-1 F at m={m}",
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
        coeffs = mc_mod.expansion_coefficients([1] * k)
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
    coeffs = mc_mod.expansion_coefficients([1])
    got = mc_mod.exhaustive_estimate(var, data, coeffs)
    want = mc_mod.chain_expectation(var, coeffs, data)
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
    """Whether text reads as a float (inf and nan included) or a p/q fraction."""
    try:
        float(text)
    except ValueError:
        try:
            Fraction(text)
        except (ValueError, ZeroDivisionError):
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
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
