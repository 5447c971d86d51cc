"""Seeded inputs, invocation lists and output gates of the benchmark workloads.

``build(workload, seed, workdir)`` writes the workload's input files into
WORKDIR and returns its invocation list.  Every invocation carries a gate that
checks the artifact it wrote against an oracle computed here, once per seed,
before any timing starts.  The oracles take a different route through the
library than the CLI does (``richardson_neumann`` and ``nonstationary_debias``
instead of ``exact_bias``; the Moebius product formula instead of forward
substitution), so a gate fails when the CLI's answer changes.

Importing this module needs ``mobiusboot`` on ``sys.path``.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mobiusboot.debias import StepSchedule, nonstationary_debias, richardson_neumann
from mobiusboot.moments import (
    Dataset,
    LabeledTerm,
    MomentPolynomial,
    MomentTable,
    evaluate,
    normal_moment_table,
)
from mobiusboot.resampling import apply_S

WORKLOADS = ("bias-trajectories", "dense-operators")

# |estimate - exact| / se above this fails an MC gate.  The estimators are
# unbiased for the exact value, so a correct program exceeds 5 standard errors
# with probability below 1e-6 per check.
Z_BOUND = 5.0
# Relative tolerance between float results reached by different summation orders.
FLOAT_RTOL = 1e-9
EXHAUSTIVE_RTOL = 1e-12

MC_REPLICAS = 10000


@dataclass
class Invocation:
    """One CLI call: its arguments, artifact base and output gate."""

    name: str
    argv: list
    out: str = None  # artifact base inside the work dir; None for selftest
    replicas: int = 0  # MC chain replicas the call draws
    gate: object = None  # gate(workdir, stdout) -> list of error strings


# -- seeded input generation ---------------------------------------------------

def _coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def functional(rng, d, shapes, distinct):
    """Seeded polynomial with one term per block-size shape.

    With distinct labels every position of a term gets its own label out of
    range(d) (requires d >= order), so no two merges of a term coincide; with
    distinct=False labels are drawn from range(d) with repetition, and with a
    small d most merges collapse onto the same term.
    """
    terms = {}
    for shape in shapes:
        if distinct:
            labels = rng.sample(range(d), sum(shape))
        else:
            labels = [rng.randrange(d) for _ in range(sum(shape))]
        blocks, pos = [], 0
        for size in shape:
            blocks.append(labels[pos : pos + size])
            pos += size
        term = LabeledTerm(blocks)
        terms[term] = terms.get(term, 0) + _coeff(rng)
    return MomentPolynomial(d, terms)


def functional_json(F):
    """The CLI's functional JSON format, written independently of the package."""
    terms = sorted(F.terms.items(), key=lambda tc: (tc[0].m, tc[0].blocks))
    return {
        "d": F.d,
        "terms": [{"blocks": [list(b) for b in t.blocks], "coeff": str(c)} for t, c in terms],
    }


def subset_moments(rng, d):
    """Seeded exact moment for every nonempty set of distinct labels."""
    values = {}
    for mask in range(1, 2**d):
        block = tuple(lab for lab in range(d) if mask >> lab & 1)
        values[block] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return values


def population_json(d, values):
    return {
        "d": d,
        "moments": [{"block": list(b), "value": str(v)} for b, v in sorted(values.items())],
    }


def data_rows(rng, n, d):
    return [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(n)]


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def write_csv(path, rows):
    """One header row, then cells as repr(float(x)) so they load as plain floats."""
    d = len(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(d)])
        writer.writerows([[repr(float(x)) for x in row] for row in rows])


def read_csv_dataset(path):
    """Oracle-side reader: skip the header, parse every other row as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return Dataset([[float(x) for x in row] for row in rows[1:]])


# -- artifact parsing ------------------------------------------------------------

def read_tables(path):
    """{table name: [header, rows...]} from an artifact CSV."""
    tables, current = {}, None
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# table: "):
                current = tables.setdefault(line[len("# table: ") :].strip(), [])
            elif not line.startswith("#") and current is not None:
                current.append(next(csv.reader([line])))
    return tables


def _table(workdir, base, name):
    tables = read_tables(Path(workdir) / f"{base}.csv")
    if name not in tables:
        raise KeyError(f"table {name!r} missing from {base}.csv")
    return tables[name]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- bias-trajectories: exact runs ------------------------------------------------

def _bias_oracle(F, n, k, table, scheduled):
    """Signed bias per row k = 0..K, and the target, by an independent route."""
    target = evaluate(F, table)
    etas = list(StepSchedule.default(n, k)) if scheduled else None
    rows = []
    for j in range(k + 1):
        if scheduled:
            g = F if j == 0 else nonstationary_debias(F, n, StepSchedule(n, etas[:j]))
        else:
            g = richardson_neumann(F, n, j)
        rows.append(evaluate(apply_S(g, n), table) - target)
    return rows, target


def _bias_gate(base, oracle_rows, target, zero_from):
    def gate(workdir, stdout):
        errors = []
        header, *rows = _table(workdir, base, "trajectory")
        if len(rows) != len(oracle_rows):
            return [f"{base}: {len(rows)} trajectory rows, expected {len(oracle_rows)}"]
        for j, (row, want) in enumerate(zip(rows, oracle_rows)):
            k, signed, absolute = int(row[0]), Fraction(row[1]), Fraction(row[2])
            if k != j or signed != want or absolute != abs(want):
                errors.append(f"{base}: row {j} reads {row[:3]}, oracle {want}")
        if zero_from is not None:
            for row in rows[zero_from:]:
                if row[1] != "0":
                    errors.append(f"{base}: scheduled row k={row[0]} is {row[1]}, not 0")
        _, (got_target, *_) = _table(workdir, base, "target")
        if Fraction(got_target) != target:
            errors.append(f"{base}: target {got_target} != oracle {target}")
        return errors

    return gate


def _exact_trajectory(rng, workdir):
    specs = [
        # E1: stationary, order 7, d = 7 distinct labels: apply_S over the full
        # Bell(7) support, no merges coincide.
        dict(name="E1", d=7, n=9, k=3, scheduled=False, distinct=True,
             shapes=[(1,) * 7, (2, 1, 1, 1, 1, 1), (3, 2, 2), (4, 3)]),
        # E2: default schedule, order 6, d = 6: the dense scaled one-norm on
        # Bell(6) and apply_S share the time.
        dict(name="E2", d=6, n=8, k=6, scheduled=True, distinct=True,
             shapes=[(1,) * 6, (2, 1, 1, 1, 1), (3, 3), (2, 2, 1, 1)]),
        # E3: default schedule, order <= 6 over d = 2 labels, one step more than
        # the order: most merges collapse, so the dense one-norm on Bell(6)
        # dominates.  (At order 7 the one-norm alone takes half a minute.)
        dict(name="E3", d=2, n=9, k=7, scheduled=True, distinct=False,
             shapes=[(1,) * 6, (2, 1, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1), (2, 1), (1, 1)]),
    ]
    invocations = []
    for spec in specs:
        name, d, n, k = spec["name"], spec["d"], spec["n"], spec["k"]
        F = functional(rng, d, spec["shapes"], spec["distinct"])
        write_json(workdir / f"{name}.functional.json", functional_json(F))
        if spec["distinct"]:
            values = subset_moments(rng, d)
            write_json(workdir / f"{name}.population.json", population_json(d, values))
            table = MomentTable(d, values)
        else:
            write_json(workdir / f"{name}.population.json", {"family": "normal", "d": d})
            table = normal_moment_table(d, F.max_order())
        rows, target = _bias_oracle(F, n, k, table, spec["scheduled"])
        argv = [
            "bias",
            "--functional", f"{name}.functional.json",
            "--population", f"{name}.population.json",
            "--n", str(n),
            "--k", str(k),
            "--out", name,
        ]
        zero_from = None
        if spec["scheduled"]:
            argv[-2:-2] = ["--schedule", "default"]
            # m steps of the default schedule with N >= m leave no bias.
            m = F.max_order()
            zero_from = m if m <= min(n, k) else None
        invocations.append(
            Invocation(name, argv, out=name, gate=_bias_gate(name, rows, target, zero_from))
        )
    return invocations


# -- bias-trajectories: Monte Carlo runs ------------------------------------------

VARIANCE = MomentPolynomial(1, {LabeledTerm([[0, 0]]): 1, LabeledTerm([[0], [0]]): -1})


def _experiment_gate(base, replicas, exact_rows):
    def gate(workdir, stdout):
        errors = []
        header, *rows = _table(workdir, base, "bias_experiment")
        if len(rows) != len(exact_rows):
            return [f"{base}: {len(rows)} rows, expected {len(exact_rows)}"]
        for j, (row, want) in enumerate(zip(rows, exact_rows)):
            k, reps, emp, se, exact = int(row[0]), int(row[1]), float(row[2]), float(row[3]), Fraction(row[4])
            if k != j or reps != replicas:
                errors.append(f"{base}: row {j} has k={k}, replicas={reps}")
            if exact != want:
                errors.append(f"{base}: exact bias {row[4]} at k={j}, oracle {want}")
            if not se > 0 or abs(emp - float(want)) / se > Z_BOUND:
                errors.append(f"{base}: k={j} empirical {emp} vs exact {float(want)}, se {se}")
        return errors

    return gate


def _estimate_gate(base, replicas, target):
    def gate(workdir, stdout):
        header, row = _table(workdir, base, "estimate")
        reps, est, se, got = int(row[1]), float(row[2]), float(row[3]), float(row[4])
        errors = []
        if reps != replicas:
            errors.append(f"{base}: {reps} replicas, expected {replicas}")
        if not _close(got, target, FLOAT_RTOL):
            errors.append(f"{base}: target {got} != oracle {target}")
        if not se > 0 or abs(est - target) / se > Z_BOUND:
            errors.append(f"{base}: estimate {est} vs target {target}, se {se}")
        return errors

    return gate


def _exhaustive_gate(base, target):
    def gate(workdir, stdout):
        header, row = _table(workdir, base, "exhaustive")
        value, got = float(row[1]), float(row[2])
        errors = []
        if not _close(got, target, EXHAUSTIVE_RTOL):
            errors.append(f"{base}: target {got} != oracle {target}")
        if abs(value - got) > EXHAUSTIVE_RTOL * abs(got):
            errors.append(f"{base}: exhaustive value {value} != target {got}")
        return errors

    return gate


def _mc_chains(rng, workdir):
    write_json(workdir / "variance.functional.json", functional_json(VARIANCE))
    invocations = []

    # M1: population draws, variance, default schedule: bias_experiment runs
    # k = 0..2 with R replicas each, against exact biases from the normal table.
    n, k = 10, 2
    write_json(workdir / "M1.population.json", {"family": "normal", "d": 1})
    table = normal_moment_table(1, VARIANCE.max_order())
    exact_rows, _ = _bias_oracle(VARIANCE, n, k, table, scheduled=True)
    invocations.append(Invocation(
        "M1",
        ["mc-run", "--functional", "variance.functional.json", "--population",
         "M1.population.json", "--n", str(n), "--k", str(k), "--schedule", "default",
         "--replicas", str(MC_REPLICAS), "--seed", str(rng.randrange(2**31)), "--out", "M1"],
        out="M1", replicas=(k + 1) * MC_REPLICAS,
        gate=_experiment_gate("M1", MC_REPLICAS, exact_rows),
    ))

    # M2: resampling a seeded 20 x 2 dataset under an order-3 functional.
    k = 2
    F = functional(rng, 2, [(3,), (2, 1), (1, 1, 1), (1, 1)], distinct=False)
    write_json(workdir / "M2.functional.json", functional_json(F))
    write_csv(workdir / "M2.data.csv", data_rows(rng, 20, 2))
    data = read_csv_dataset(workdir / "M2.data.csv")
    target = float(evaluate(apply_S(richardson_neumann(F, data.n, k), data.n), data))
    invocations.append(Invocation(
        "M2",
        ["mc-run", "--functional", "M2.functional.json", "--data", "M2.data.csv", "--k", str(k),
         "--replicas", str(MC_REPLICAS), "--seed", str(rng.randrange(2**31)), "--out", "M2"],
        out="M2", replicas=MC_REPLICAS, gate=_estimate_gate("M2", MC_REPLICAS, target),
    ))

    # M3: exhaustive enumeration of a 4-row dataset, no random streams.
    k = 1
    write_csv(workdir / "M3.data.csv", data_rows(rng, 4, 1))
    data = read_csv_dataset(workdir / "M3.data.csv")
    target = float(evaluate(apply_S(richardson_neumann(VARIANCE, data.n, k), data.n), data))
    invocations.append(Invocation(
        "M3",
        ["mc-run", "--functional", "variance.functional.json", "--data", "M3.data.csv",
         "--k", str(k), "--exhaustive", "--out", "M3"],
        out="M3", gate=_exhaustive_gate("M3", target),
    ))
    return invocations


# -- dense-operators -------------------------------------------------------------

def _rgs(k):
    """Restricted growth strings of length k: the set partitions of k items."""
    out = [()]
    for _ in range(k):
        out = [s + (v,) for s in out for v in range((max(s) + 2) if s else 1)]
    return out


def _blocks(label):
    """'13|2' -> ((0, 2), (1,)); elements are single 1-based digits for m <= 9."""
    return tuple(tuple(int(ch) - 1 for ch in part) for part in label.split("|"))


def _canon(blocks):
    """Blocks ordered by least element, as the partition labels list them."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def mobius_expected(labels):
    """{(row label, column label): mu} over comparable pairs, by the product formula.

    mu(sigma, pi) = prod over blocks of pi of (-1)^(b-1) (b-1)!, where b counts
    the sigma-blocks inside that block; every other entry is zero.
    """
    by_blocks = {_canon(_blocks(lab)): lab for lab in labels}
    out = {}
    for sigma in labels:
        fine = _blocks(sigma)
        for grouping in _rgs(len(fine)):
            merged = {}
            for block, g in zip(fine, grouping):
                merged.setdefault(g, []).extend(block)
            mu = 1
            for g in set(grouping):
                b = grouping.count(g)
                mu *= (-1) ** (b - 1) * math.factorial(b - 1)
            out[(by_blocks[_canon(merged.values())], sigma)] = mu
    return out


def _lattice_gate(base, m):
    def gate(workdir, stdout):
        tables = read_tables(Path(workdir) / f"{base}.csv")
        header, *rows = tables["mobius"]
        labels = header[1:]
        bell = len(_rgs(m))
        if len(labels) != bell or len(rows) != bell:
            return [f"{base}: Moebius matrix is {len(rows)} x {len(labels)}, expected Bell({m}) = {bell}"]
        expected = mobius_expected(labels)
        bad = 0
        for row in rows:
            for col, cell in zip(labels, row[1:]):
                if cell != str(expected.get((row[0], col), 0)):
                    bad += 1
        return [f"{base}: {bad} Moebius entries differ from the product formula"] if bad else []

    return gate


def _smatrix_gate(base, m):
    def gate(workdir, stdout):
        tables = read_tables(Path(workdir) / f"{base}.csv")
        errors = []
        header, *rows = tables["S"]
        sums = [Fraction(0)] * (len(header) - 1)
        for row in rows:
            for j, cell in enumerate(row[1:]):
                sums[j] += Fraction(cell)
        if len(rows) != len(_rgs(m)) or any(s != 1 for s in sums):
            errors.append(f"{base}: S columns do not all sum to exactly 1")
        if tables["factorization"][1][1] != "true":
            errors.append(f"{base}: factorization reads {tables['factorization'][1][1]}")
        closed, direct = tables["one_norm"][1]
        if Fraction(closed) != Fraction(direct):
            errors.append(f"{base}: one-norm closed form {closed} != direct {direct}")
        return errors

    return gate


def _reduced_gate(base, m):
    def gate(workdir, stdout):
        header, *rows = _table(workdir, base, "reduced")
        sums = [sum(Fraction(row[1 + j]) for row in rows) for j in range(m)]
        return [] if len(rows) == m and all(s == 1 for s in sums) else [
            f"{base}: reduced matrix columns do not all sum to exactly 1"
        ]

    return gate


def _selftest_gate(workdir, stdout):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "selftest: all invariants hold":
        return ["selftest did not report that all invariants hold"]
    return []


def _dense_operators(rng, workdir):
    n6 = rng.randint(6, 9)
    n7 = rng.randint(7, 12)
    return [
        Invocation("lattice", ["lattice", "--m", "7", "--out", "lattice"], out="lattice",
                   gate=_lattice_gate("lattice", 7)),
        Invocation("smatrix", ["smatrix", "--m", "6", "--n", str(n6), "--out", "smatrix"],
                   out="smatrix", gate=_smatrix_gate("smatrix", 6)),
        Invocation("reduced", ["smatrix", "--m", "7", "--n", str(n7), "--reduced", "--out", "reduced"],
                   out="reduced", gate=_reduced_gate("reduced", 7)),
        Invocation("selftest", ["selftest"], gate=_selftest_gate),
    ]


def _bias_trajectories(rng, workdir):
    """The exact bias runs E1-E3, then the Monte Carlo runs M1-M3."""
    return _exact_trajectory(rng, workdir) + _mc_chains(rng, workdir)


GENERATORS = {
    "bias-trajectories": _bias_trajectories,
    "dense-operators": _dense_operators,
}


def build(workload, seed, workdir):
    """Write WORKLOAD's inputs for SEED into WORKDIR; return its invocations."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
