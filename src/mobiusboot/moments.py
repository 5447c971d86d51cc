"""Moment polynomials over d-variate distributions and their estimators.

A moment product is encoded by the multiset of its blocks, each block being a
sorted multiset of variable labels: the product over blocks of the expectation
of the product of that block's variables.  A term is the tuple of its blocks.
Polynomials are sparse coefficient maps over terms and can be evaluated against
datasets (plug-in) or against analytic moment tables.  The unbiased estimator of
a polynomial is the plug-in value of S^{-1} F, so it lives with resampling.

Scalars are exact (int/Fraction) or float, never mixed in one computation: a
polynomial is exact iff every coefficient it is given, zeros included, is.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement


class InfeasibleError(ValueError):
    """The sample is too small for the requested estimator or schedule."""


class MissingMomentError(LookupError):
    """A moment table lacks a block required by the evaluation."""


def _is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_dimension(d):
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")


def _canon_blocks(blocks):
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (len(b), b)))
    for block in canon:
        if not block:
            raise ValueError("empty block in moment term")
        for lab in block:
            if not _is_int(lab) or lab < 0:
                raise ValueError(f"variable labels must be nonnegative ints, got {lab!r}")
    return canon


class LabeledTerm(tuple):
    """One moment product: a multiset of blocks of variable labels.

    The term for positions partitioned by pi with labels L keeps, per block of
    pi, the sorted multiset of labels; blocks are sorted by (size, labels).
    Everything about the product survives this normal form, so a term is the
    tuple of its blocks: equal products compare and hash equal.
    """

    __slots__ = ()

    def __new__(cls, blocks):
        return super().__new__(cls, _canon_blocks(blocks))

    @classmethod
    def from_positions(cls, pi, labels):
        """Build from a position Partition and per-position variable labels."""
        labels = list(labels)
        if len(labels) != pi.m:
            raise ValueError(f"{len(labels)} labels for {pi.m} positions")
        return cls([[labels[p] for p in block] for block in pi.blocks])

    @property
    def blocks(self):
        """The blocks in normal form: the term itself."""
        return self

    @property
    def m(self):
        return sum(map(len, self))

    @property
    def block_count(self):
        return len(self)

    def max_label(self):
        return max((lab for b in self for lab in b), default=-1)

    def unions(self):
        """U[mask], for mask < 2**b: the sorted labels of the blocks i with bit i set.

        U[0] is empty and U[1 << i] is block i; each block doubles the table,
        extending every union so far by its labels.  A _groupings(b) row's masks
        pick, from U, the blocks of that merge of the term.
        """
        out = [()]
        for block in self:
            out += [tuple(sorted(u + block)) for u in out]
        return out

    def __repr__(self):
        body = ")(".join(",".join(f"x{lab}" for lab in b) for b in self)
        return f"LabeledTerm(({body}))" if self else "LabeledTerm(1)"


CONSTANT_TERM = LabeledTerm(())


class MomentPolynomial:
    """Sparse scalar combination of moment products over d variables."""

    def __init__(self, d, terms):
        _check_dimension(d)
        self.d = d
        terms = dict(terms)
        self.exact = all(_is_exact(c) for c in terms.values())
        clean = {}
        for term, coeff in terms.items():
            if not isinstance(term, LabeledTerm):
                term = LabeledTerm(term)
            if term.max_label() >= d:
                raise ValueError(f"label {term.max_label()} out of range for d={d}")
            if coeff == 0:
                continue
            if term in clean:  # two keys with one normal form
                coeff = clean[term] + coeff
            clean[term] = coeff
        scalar = Fraction if self.exact else float
        self.terms = {
            t: c if type(c) is scalar else scalar(c) for t, c in clean.items() if c != 0
        }

    @classmethod
    def _validated(cls, d, terms, exact):
        """Wrap (term, coeff) pairs that need no checks, dropping zero coefficients.

        For normal-form LabeledTerms with labels below d, taken from other
        polynomials over d or merged from them, and coefficients that all have
        the scalar type of exact; skips the per-term scan of __init__.
        """
        F = cls.__new__(cls)
        F.d = d
        F.exact = exact
        F.terms = {t: c for t, c in terms if c}
        return F

    def max_order(self):
        """Largest total block-content size over the stored terms."""
        return max((t.m for t in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MomentPolynomial)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("polynomials over different d")
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) + c
        if self.exact and other.exact:  # Fraction sums: only zeros to drop
            return MomentPolynomial._validated(self.d, out.items(), True)
        return MomentPolynomial(self.d, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        if self.exact and _is_exact(scalar):
            return MomentPolynomial._validated(
                self.d, ((t, scalar * c) for t, c in self.terms.items()), True
            )
        return MomentPolynomial(self.d, {t: scalar * c for t, c in self.terms.items()})

    def __repr__(self):
        return f"MomentPolynomial(d={self.d}, {len(self.terms)} terms)"


class Dataset:
    """N x d matrix of samples, one row per observation.

    Every Dataset is a root or a pick of a root.  A root holds rows and
    columns: per distinct block evaluated on it or on its picks, one list of
    its N per-row products, built on the block's first read.  So a Dataset
    the caller keeps holds the columns of the blocks evaluated on it.  A
    resampled Dataset is a pick (_picked): it keeps root and picks, the root
    row index of each of its rows, and builds rows only when they are first
    read.  A pick of a pick is a pick of the same root: _picked composes the
    indices, so no other module of the package reads root, picks or columns.
    """

    __slots__ = ("rows", "exact", "root", "picks", "columns")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("Dataset needs at least one row")
        d = len(rows[0])
        if d < 1 or any(len(r) != d for r in rows):
            raise ValueError("Dataset rows must all have the same positive width")
        self.rows = rows
        self.exact = all(_is_exact(v) for r in rows for v in r)
        self.root = self.picks = None
        self.columns = {}

    @classmethod
    def _validated(cls, rows, exact):
        """Wrap rows that need no checks: a nonempty tuple of equal-width tuples.

        For freshly sampled floats or the rows of another Dataset (exact
        carries over); skips the per-cell scan of __init__.
        """
        ds = cls.__new__(cls)
        ds.rows = rows
        ds.exact = exact
        ds.root = ds.picks = None
        ds.columns = {}
        return ds

    @classmethod
    def _picked(cls, data, picks):
        """The rows of data (a root or a pick) at the indices picks, unbuilt until read."""
        ds = cls.__new__(cls)
        ds.exact = data.exact
        ds.root = data.root or data
        outer = data.picks
        ds.picks = picks if outer is None else [outer[i] for i in picks]
        ds.columns = None
        return ds

    def __getattr__(self, name):
        # reached only for an unset slot: the rows of a pick, on their first read
        if name != "rows" or self.picks is None:
            raise AttributeError(name)
        root_rows = self.root.rows
        rows = self.rows = tuple([root_rows[i] for i in self.picks])
        return rows

    @property
    def n(self):
        return len(self.rows) if self.picks is None else len(self.picks)

    @property
    def d(self):
        return len((self.root or self).rows[0])

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


class MomentTable:
    """Analytic population: canonical label multiset -> block moment."""

    def __init__(self, d, values):
        """VALUES maps blocks to moments, as a mapping or as (block, moment) pairs.

        Each block is a sequence of int labels in 0..d-1, in any order, and
        no two blocks may sort to the same multiset.
        """
        _check_dimension(d)
        self.d = d
        self.values = {}
        for block, v in values.items() if hasattr(values, "items") else values:
            if not all(_is_int(lab) and 0 <= lab < d for lab in block):
                raise ValueError(f"block {list(block)!r} is not a list of labels in 0..{d - 1}")
            key = tuple(sorted(block))
            if key in self.values:
                raise ValueError(f"block {list(key)} is listed twice")
            self.values[key] = v
        self.exact = all(_is_exact(v) for v in self.values.values())

    def moment(self, block):
        key = tuple(sorted(block))
        try:
            return self.values[key]
        except KeyError:
            raise MissingMomentError(f"moment table has no entry for block {key}") from None

    @classmethod
    def from_dataset(cls, data, blocks):
        """Tabulate the empirical moments of the given blocks."""
        return cls(data.d, {tuple(b): empirical_moment(data, b) for b in blocks})


def _product_column(data, block):
    """Each row's product 1 * x_a * x_b * ... of the block's variables, in row order.

    Since 1 * x is x, blocks of one and two labels, the blocks variances and
    covariances read, skip the leading 1 and the per-label loop.
    """
    rows = data.rows
    d = len(rows[0])
    for lab in block:
        if not 0 <= lab < d:
            raise ValueError(f"label {lab} out of range for d={d}")
    if len(block) == 1:
        (a,) = block
        return [row[a] for row in rows]
    if len(block) == 2:
        a, b = block
        return [row[a] * row[b] for row in rows]
    column = [1] * len(rows)
    for lab in block:
        column = [p * row[lab] for p, row in zip(column, rows)]
    return column


def empirical_moment(data, block):
    """Plug-in moment: mean over rows of the product of the block's variables.

    The sum runs in row order from 0 (not the built-in sum, which compensates
    float sums from Python 3.12 on), so float data gives the same bits on
    every version.
    """
    total = 0
    for p in _product_column(data, block):
        total += p
    n = data.n
    return Fraction(total, n) if data.exact else total / n


def evaluate(F, population):
    """Value of the polynomial against a Dataset (plug-in) or a MomentTable.

    On a Dataset each distinct block's moment sums the root's column of that
    block at the picks (every row of a root), in order from 0: the products
    and the order of empirical_moment on the Dataset's rows, so the same bits.
    """
    if isinstance(population, Dataset):
        root = population.root or population
        columns = root.columns
        picks = population.picks
        if picks is None:
            picks = range(len(root.rows))
        n = len(picks)
        exact = root.exact
    elif isinstance(population, MomentTable):
        columns = None
    else:
        raise TypeError(f"cannot evaluate against {type(population).__name__}")
    # each distinct block's moment once per call: the variance reads (0) twice
    cache = {}
    total = 0
    for term, coeff in F.terms.items():
        v = coeff
        for block in term:
            m = cache.get(block)
            if m is None:
                if columns is None:
                    m = population.moment(block)
                else:
                    column = columns.get(block)
                    if column is None:
                        column = columns[block] = _product_column(root, block)
                    s = 0
                    for i in picks:
                        s += column[i]
                    m = Fraction(s, n) if exact else s / n
                cache[block] = m
            v = v * m
        total += v
    return total


def reachable_blocks(F):
    """Every union of some of a term's blocks: each is a block of some merge.

    Population tables used for exact bias trajectories must cover this set,
    since resampling pushes coefficients onto merged blocks.
    """
    out = set()
    for term in F.terms:
        out.update(term.unions()[1:])
    return out


# -- analytic populations ------------------------------------------------------

def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def normal_moment_table(d, max_order):
    """Moment table of d independent standard normal variables.

    A block's moment factors over distinct labels; each label with
    multiplicity c contributes (c-1)!! for even c and 0 for odd c.
    """
    _check_dimension(d)
    values = {}
    for size in range(max_order + 1):
        for block in combinations_with_replacement(range(d), size):
            v = 1
            for lab in set(block):
                c = block.count(lab)
                v = 0 if c % 2 else v * _double_factorial(c - 1)
            values[block] = Fraction(v)
    return MomentTable(d, values)


# -- serialization -------------------------------------------------------------

def polynomial_to_dict(F):
    """JSON-ready form: {"d": d, "terms": [{"blocks": [[...]], "coeff": ...}]}."""
    out = []
    for term in sorted(F.terms, key=lambda t: (t.m, t)):
        coeff = F.terms[term]
        out.append(
            {
                "blocks": [list(b) for b in term],
                "coeff": str(coeff) if F.exact else float(coeff),
            }
        )
    return {"d": F.d, "terms": out}


def scalar_from_json(val):
    """A number from a JSON scalar: a p/q string is exact, a finite number a float.

    Anything else (a bool, null, a list, nan or inf) raises ValueError.
    """
    if isinstance(val, str):
        return Fraction(val)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{val!r} is neither a p/q string nor a number")
    if not math.isfinite(val):
        raise ValueError(f"{val!r} is not finite")
    return float(val)


def polynomial_from_dict(obj):
    d = obj["d"]
    _check_dimension(d)
    terms = {}
    for entry in obj["terms"]:
        term = LabeledTerm(entry["blocks"])
        terms[term] = terms.get(term, 0) + scalar_from_json(entry["coeff"])
    return MomentPolynomial(d, terms)


def dataset_from_csv(path):
    """Read one sample per row, d numeric columns; a non-numeric line 1 is a header.

    A non-numeric row after line 1 or a nan/inf cell raises ValueError naming
    its line; blank lines are skipped.
    """
    import csv

    rows = []
    with open(path, newline="") as fh:
        for line, record in enumerate(csv.reader(fh), 1):
            if not record:
                continue
            try:
                row = [float(v) for v in record]
            except ValueError:
                if line > 1:
                    raise ValueError(f"{path}, line {line}: non-numeric row {record}") from None
                continue  # header line
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}, line {line}: non-finite cell in {record}")
            rows.append(row)
    return Dataset(rows)
