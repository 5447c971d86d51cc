"""Routes that left the library, kept as independent references for the tests.

Each one is the code the library ran before a faster or shorter route took
its place, or a helper only the tests call.  The test modules import them by
name from this directory.
"""

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from mobiusboot import resampling
from mobiusboot.artifact import _MatrixRows, _scalar
from mobiusboot.lattice import (
    DimensionError,
    IncidenceMatrix,
    _mobius_weight,
    _rgs_strings,
    enumerate_partitions,
    falling_factorial,
    zeta_matrix,
)
from mobiusboot.moments import Dataset, LabeledTerm, MomentPolynomial, MomentTable


def refines(sigma, pi):
    """True iff every block of sigma is contained in some block of pi."""
    if sigma.m != pi.m:
        raise DimensionError(f"partition sizes differ: {sigma.m} vs {pi.m}")
    block_image = [-1] * sigma.block_count
    for pos in range(sigma.m):
        s, p = sigma.rgs[pos], pi.rgs[pos]
        if block_image[s] == -1:
            block_image[s] = p
        elif block_image[s] != p:
            return False
    return True


def level_sums(vec, index):
    """Sum coefficient-vector entries by block count; levels 1..m."""
    vec = list(vec)
    if len(vec) != len(index):
        raise DimensionError(f"vector of length {len(vec)} against Bell({index.m})")
    out = [0] * index.m
    for v, pi in zip(vec, index):
        out[pi.block_count - 1] += v
    return out


def poly_level_sums(F, m):
    """Level sums of a polynomial's coefficients by block count."""
    out = [0] * m
    for term, coeff in F.terms.items():
        if not 1 <= term.block_count <= m:
            raise DimensionError(f"term with {term.block_count} blocks outside levels 1..{m}")
        out[term.block_count - 1] += coeff
    return out


def general_bound_at(gammas, n, k):
    """Two-term tradeoff gamma_0/2^(k+1) + 2^(k+1)*gamma_cut, cut = ceil(sqrt(N/8))."""
    cut = math.ceil(math.sqrt(n / 8))
    return gammas[0] / 2 ** (k + 1) + 2 ** (k + 1) * gammas[cut]


# -- dense incidence matrices with one Partition per cell ----------------------------

def incidence_entries(index, weight):
    """entries[position(pi)][col] = weight(sigma, pi, grouping) for pi >= sigma, else 0.

    pi is sigma.merge(grouping), a checked Partition, placed by index.position.
    """
    n = len(index)
    entries = [[0] * n for _ in range(n)]
    for col, sigma in enumerate(index):
        for grouping in _rgs_strings(sigma.block_count):
            pi = sigma.merge(grouping)
            entries[index.position(pi)][col] = weight(sigma, pi, grouping)
    return entries


def zeta_entries(m):
    return incidence_entries(enumerate_partitions(m), lambda *_: 1)


def mobius_entries(m):
    return incidence_entries(enumerate_partitions(m), lambda sigma, pi, g: _mobius_weight(g))


def sampling_entries(m, n):
    """S's entries falling(N,#pi)/N^{#sigma}, one Fraction per comparable cell."""
    return incidence_entries(
        enumerate_partitions(m),
        lambda sigma, pi, g: Fraction(falling_factorial(n, pi.block_count), n**sigma.block_count),
    )


def reduced_entries(m, n):
    """The level matrix as the level sums of one S column per level.

    Cell (i, j) sums S's cells over the partitions with i blocks in the column
    of the first partition with j blocks: a Fraction for i <= j, where some
    partition is comparable, and the int 0 below.
    """
    index = enumerate_partitions(m)
    entries = sampling_entries(m, n)
    first = {}
    for col, sigma in enumerate(index):
        first.setdefault(sigma.block_count, col)
    return [
        [
            sum(entries[row][first[j]] for row, pi in enumerate(index) if pi.block_count == i)
            for j in range(1, m + 1)
        ]
        for i in range(1, m + 1)
    ]


def matrix_from_rows(index, entries):
    """An IncidenceMatrix over index from dense rows, storing every cell but an
    int or Fraction 0, so a bool or float zero, or a nonzero cell off the
    order, stays stored where matvec, the one-norm and the writer read it."""
    columns, values = [], []
    for row in entries:
        cols = tuple(j for j, v in enumerate(row) if v != 0 or type(v) not in (int, Fraction))
        columns.append(cols)
        values.append([row[j] for j in cols])
    return IncidenceMatrix(index, columns, values)


def assert_stored_cells(matrix, want):
    """The stored cells are want's cells on the support, types included, and
    the dense view is want cell for cell and type for type."""
    support = matrix.support()
    assert len(matrix.columns) == len(matrix.values) == len(want)
    for cols, vals, want_row, support_cols in zip(matrix.columns, matrix.values, want, support):
        assert tuple(cols) == support_cols
        assert [(v, type(v)) for v in vals] == [(want_row[j], type(want_row[j])) for j in cols]
        off = set(range(len(want_row))) - set(cols)
        assert all(type(want_row[j]) is int and want_row[j] == 0 for j in off)
    assert matrix.entries == want
    assert [list(map(type, row)) for row in matrix.entries] == [list(map(type, row)) for row in want]


def factorization(m, n):
    """(R, C, check) with S = R.zeta.C^{-1}, every cell compared as a Fraction quotient.

    S is read through resampling.sampling_matrix, so a test that replaces it
    sees its replacement here too.
    """
    S = resampling.sampling_matrix(m, n)
    zeta = zeta_matrix(m)
    R = [Fraction(falling_factorial(n, pi.block_count)) for pi in S.index]
    C = [Fraction(n ** pi.block_count) for pi in S.index]
    size = len(S.index)
    check = all(
        S.entries[i][j] == R[i] * zeta.entries[i][j] / C[j]
        for i in range(size)
        for j in range(size)
    )
    return R, C, check


def one_norm_direct(m, n, eta=1):
    """Max column 1-norm of Id - eta*S, every cell of every column summed."""
    entries = sampling_entries(m, n)
    size = len(entries)
    best = Fraction(0)
    for j in range(size):
        total = sum(abs((1 if i == j else 0) - eta * entries[i][j]) for i in range(size))
        best = max(best, total)
    return best


# -- the merge walk with one Fraction per merge -----------------------------------

def merge_rgs(term, grouping):
    """Merge a term's blocks along a restricted growth string, through the checked constructor."""
    groups = [[] for _ in range(max(grouping, default=-1) + 1)]
    for block, g in zip(term.blocks, grouping):
        groups[g].extend(block)
    return LabeledTerm(groups)


def merge_walk(F, n, weight):
    """Each term's coefficient times weight(term, merged, grouping), per merge.

    Zero weights are skipped.  Exact and float coefficients alike take
    coeff * weight with a Fraction weight, and the sums run in walk order.
    """
    out = {}
    for term, coeff in F.terms.items():
        for grouping in _rgs_strings(term.block_count):
            merged = merge_rgs(term, grouping)
            w = weight(term, merged, grouping)
            if not w:
                continue
            out[merged] = out.get(merged, 0) + coeff * w
    return MomentPolynomial(F.d, out)


def apply_S(F, n):
    """S F with S's entry falling(N,#merged)/N^{#blocks} per merge."""
    return merge_walk(
        F, n, lambda sigma, pi, g: Fraction(falling_factorial(n, pi.block_count), n**sigma.block_count)
    )


def apply_S_inverse(F, n):
    """S^{-1} F with weight N^{#merged} mu / falling(N, #blocks) per merge; needs N >= L."""
    return merge_walk(
        F,
        n,
        lambda sigma, pi, g: Fraction(
            n**pi.block_count * _mobius_weight(g), falling_factorial(n, sigma.block_count)
        ),
    )


# -- merging a term's blocks group by group -------------------------------------

def groups_of(grouping):
    """Per merged block of a restricted growth string, the ascending indices merged into it."""
    groups = [[] for _ in range(max(grouping, default=-1) + 1)]
    for i, g in enumerate(grouping):
        groups[g].append(i)
    return tuple(map(tuple, groups))


def merge(term, groups):
    """The term whose blocks are the unions of term's blocks in each group.

    The labels were checked when term was built, so the normal form is built
    directly: single blocks are reused, only unions are sorted, and blocks are
    ordered by (size, labels).
    """
    merged = [
        term[group[0]] if len(group) == 1
        else tuple(sorted([lab for i in group for lab in term[i]]))
        for group in groups
    ]
    merged.sort(key=lambda block: (len(block), block))
    return tuple.__new__(LabeledTerm, merged)


def reachable_blocks(F):
    """Every block of every merge of every term of F, collected grouping by grouping."""
    out = set()
    for term in F.terms:
        for grouping in _rgs_strings(term.block_count):
            out.update(merge(term, groups_of(grouping)))
    return out


# -- the plug-in moment, one interpreted multiplication per label ------------------

def empirical_moment(data, block):
    """Mean over rows of 1 * x_a * x_b * ..., summed row by row from int 0."""
    for lab in block:
        if not 0 <= lab < data.d:
            raise ValueError(f"label {lab} out of range for d={data.d}")
    total = 0
    for row in data.rows:
        p = 1
        for lab in block:
            p = p * row[lab]
        total += p
    return Fraction(total, data.n) if data.exact else total / data.n


def evaluate(F, population):
    """The value of F as the per-term loop sums it: one Fraction or float product
    per block occurrence and one sum per term, from 0.

    A block's moment is read from a MomentTable, or comes from the per-row
    loop on a Dataset.
    """
    if isinstance(population, MomentTable):
        moment = population.moment
    else:
        moment = lambda block: empirical_moment(population, block)
    total = 0
    for term, coeff in F.terms.items():
        v = coeff
        for block in term:
            v = v * moment(block)
        total += v
    return total


# -- the chain coefficients with one Fraction per coefficient per step -------------

def expansion_coefficients(steps):
    """(a_0, ..., a_k) by a_0' = a_0 + eta, a_j' = a_j - eta*a_{j-1}, one Fraction
    (or, from the first float step on, one float) per coefficient per step."""
    coeffs = [Fraction(1)]
    for eta in steps:
        nxt = [coeffs[0] + eta]
        nxt.extend(coeffs[j] - eta * coeffs[j - 1] for j in range(1, len(coeffs)))
        nxt.append(-eta * coeffs[-1])
        coeffs = nxt
    return tuple(coeffs)


# -- the Monte Carlo chain with one draw per link, over row tuples ------------------

def take(data, indices):
    """The rows of data at the given indices, as a Dataset that holds them.

    The row-tuple reference for Dataset._picked, which keeps the indices
    into data's root instead; data may be a root or a pick.
    """
    rows = data.rows
    return Dataset._validated(tuple([rows[i] for i in indices]), data.exact)


def draw(data, n, rng):
    """n rows of data by one rng.integers(data.n, size=n) call."""
    return take(data, rng.integers(data.n, size=n).tolist())


def chain_values(F, source, n, coeffs, replicas, seed):
    """sum_j a_j F(X^{j+1}) per replica of n-row chains, one draw per link.

    X^1 is source.draw(rng, n) for a population and draw(source, n, rng) for a
    Dataset, whatever its row count: the per-link route that mc's replica
    blocks of picks must reproduce.  Replica i draws from
    default_rng(SeedSequence(seed).spawn(replicas)[i]).
    A polynomial F is evaluated with its own coefficients, and the a_j stay
    as given, so Fraction times float is rounded where the product is taken.
    """
    import numpy as np

    fn = (lambda ds: evaluate(F, ds)) if isinstance(F, MomentPolynomial) else F
    values = []
    for child in np.random.SeedSequence(seed).spawn(replicas):
        rng = np.random.default_rng(child)
        ds = draw(source, n, rng) if isinstance(source, Dataset) else source.draw(rng, n)
        total = 0.0
        for j, a in enumerate(coeffs):
            if j > 0:
                ds = draw(ds, ds.n, rng)
            total += a * fn(ds)
        values.append(total)
    return values


# -- the artifact writer that rendered every cell before writing anything ---------

def matrix_rows(labels, matrix):
    """[label, *dense row] per row of an IncidenceMatrix, read from its entries."""
    return ([label, *row] for label, row in zip(labels, matrix.entries))


def matrix_table(artifact, name, labels, matrix):
    """Artifact.add_matrix's table as plain rows, so that Artifact.write renders each
    matrix row cell by cell, as it renders every other table."""
    artifact.add_table(name, ["row"] + labels, matrix_rows(labels, matrix))


def write_artifact(artifact, base, stamp):
    """BASE.csv and BASE.json of an Artifact, each file assembled whole.

    Every cell goes through _scalar into lists, the CSV is built in a
    StringIO, and the JSON mirror is json.dump(payload, indent=1) plus a
    newline.  A matrix table's rows are read from its matrix's entries.
    STAMP stands in for the write time.
    """
    tables = []
    for name, columns, rows in artifact.tables:
        if isinstance(rows, _MatrixRows):
            rows = matrix_rows(rows.labels, rows.matrix)
        tables.append(
            {"name": name, "columns": list(columns), "rows": [[_scalar(v) for v in row] for row in rows]}
        )
    buf = io.StringIO()
    for key, val in artifact.provenance.items():
        buf.write(f"# {key}: {val}\n")
    buf.write(f"# timestamp: {stamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for table in tables:
        buf.write(f"# table: {table['name']}\n")
        writer.writerow(table["columns"])
        writer.writerows(table["rows"])
    Path(f"{base}.csv").write_text(buf.getvalue())

    payload = {
        "provenance": dict(artifact.provenance),
        "timestamp": stamp,
        "tables": {t["name"]: {"columns": t["columns"], "rows": t["rows"]} for t in tables},
    }
    payload.update(artifact.extra)
    with open(f"{base}.json", "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
