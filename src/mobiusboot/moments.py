"""Moment polynomials over d-variate distributions and their estimators.

A moment product is encoded by the multiset of its blocks, each block being a
sorted multiset of variable labels: the product over blocks of the expectation
of the product of that block's variables.  Polynomials are sparse coefficient
maps over such terms and can be evaluated against datasets (plug-in) or against
analytic moment tables.  The unbiased estimator of a polynomial is the plug-in
value of S^{-1} F, so it lives with the sampling operator in resampling.

Scalars are either exact (int/Fraction) or float; the mode is fixed when an
object is built and never mixed inside one computation.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from .lattice import _groupings


class InfeasibleError(ValueError):
    """The sample is too small for the requested estimator or schedule."""


class MissingMomentError(LookupError):
    """A moment table lacks a block required by the evaluation."""


def _is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _block_order(block):
    return len(block), block


def _canon_blocks(blocks):
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=_block_order))
    for block in canon:
        if not block:
            raise ValueError("empty block in moment term")
        for lab in block:
            if not isinstance(lab, int) or lab < 0:
                raise ValueError(f"variable labels must be nonnegative ints, got {lab!r}")
    return canon


class LabeledTerm:
    """One moment product: a multiset of blocks of variable labels.

    The term for positions partitioned by pi with labels L keeps, per block of
    pi, the sorted multiset of labels; blocks are sorted by (size, labels).
    Everything about the product survives this normal form, so equal products
    compare equal.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", _canon_blocks(blocks))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledTerm is immutable")

    @classmethod
    def from_positions(cls, pi, labels):
        """Build from a position Partition and per-position variable labels."""
        labels = list(labels)
        if len(labels) != pi.m:
            raise ValueError(f"{len(labels)} labels for {pi.m} positions")
        return cls([[labels[p] for p in block] for block in pi.blocks])

    @property
    def m(self):
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self):
        return len(self.blocks)

    def max_label(self):
        return max((lab for b in self.blocks for lab in b), default=-1)

    def merge(self, groups):
        """The term whose blocks are the unions of this term's blocks in each group.

        groups is a `lattice._groupings` row's tuple of block-index tuples.  The
        labels were checked when this term was built, so the normal form is built
        directly: single blocks are reused, already sorted, only unions are
        sorted, and blocks are ordered by (size, labels).
        """
        blocks = self.blocks
        merged = [
            blocks[group[0]] if len(group) == 1
            else tuple(sorted([lab for i in group for lab in blocks[i]]))
            for group in groups
        ]
        merged.sort(key=_block_order)
        term = object.__new__(LabeledTerm)
        object.__setattr__(term, "blocks", tuple(merged))
        return term

    def __eq__(self, other):
        return isinstance(other, LabeledTerm) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        body = ")(".join(",".join(f"x{lab}" for lab in b) for b in self.blocks)
        return f"LabeledTerm(({body}))" if self.blocks else "LabeledTerm(1)"


CONSTANT_TERM = LabeledTerm(())


class MomentPolynomial:
    """Sparse scalar combination of moment products over d variables."""

    def __init__(self, d, terms, exact=None):
        if d < 1:
            raise ValueError(f"d must be positive, got {d}")
        self.d = d
        clean = {}
        for term, coeff in dict(terms).items():
            if not isinstance(term, LabeledTerm):
                term = LabeledTerm(term)
            if term.max_label() >= d:
                raise ValueError(f"label {term.max_label()} out of range for d={d}")
            if coeff == 0:
                continue
            clean[term] = clean.get(term, 0) + coeff
        if exact is None:
            exact = all(_is_exact(c) for c in clean.values())
        if exact:
            clean = {t: Fraction(c) for t, c in clean.items() if c != 0}
        else:
            clean = {t: float(c) for t, c in clean.items() if c != 0}
        self.exact = exact
        self.terms = clean

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
        return MomentPolynomial(self.d, out, exact=self.exact and other.exact)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        exact = self.exact and _is_exact(scalar)
        return MomentPolynomial(
            self.d, {t: scalar * c for t, c in self.terms.items()}, exact=exact
        )

    def __repr__(self):
        return f"MomentPolynomial(d={self.d}, {len(self.terms)} terms)"


class Dataset:
    """N x d matrix of samples, one row per observation."""

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("Dataset needs at least one row")
        d = len(rows[0])
        if d < 1 or any(len(r) != d for r in rows):
            raise ValueError("Dataset rows must all have the same positive width")
        self.rows = rows
        self.exact = all(_is_exact(v) for r in rows for v in r)

    @classmethod
    def _validated(cls, rows, exact):
        """Wrap rows that need no checks: a nonempty tuple of equal-width tuples.

        For rows picked from another Dataset (exact carries over) or freshly
        sampled floats; skips the per-cell scan of __init__.
        """
        ds = cls.__new__(cls)
        ds.rows = rows
        ds.exact = exact
        return ds

    @property
    def n(self):
        return len(self.rows)

    @property
    def d(self):
        return len(self.rows[0])

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


class MomentTable:
    """Analytic population: canonical label multiset -> block moment."""

    def __init__(self, d, values):
        self.d = d
        self.values = {tuple(sorted(k)): v for k, v in dict(values).items()}
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


def empirical_moment(data, block):
    """Plug-in moment: mean over rows of the product of the block's variables."""
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
    """Value of the polynomial against a Dataset (plug-in) or a MomentTable."""
    if isinstance(population, Dataset):
        cache = {}

        def block_value(b):
            # each distinct block moment once per call: the variance reads (0) twice
            if b not in cache:
                cache[b] = empirical_moment(population, b)
            return cache[b]

    elif isinstance(population, MomentTable):
        block_value = population.moment
    else:
        raise TypeError(f"cannot evaluate against {type(population).__name__}")
    total = 0
    for term, coeff in F.terms.items():
        v = coeff
        for block in term.blocks:
            v = v * block_value(block)
        total += v
    return total


def reachable_blocks(F):
    """Every block multiset any merge of a term's blocks can produce.

    Population tables used for exact bias trajectories must cover this set,
    since resampling pushes coefficients onto merged blocks.
    """
    out = set()
    for term in F.terms:
        for _, _, groups in _groupings(term.block_count):
            out.update(term.merge(groups).blocks)
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
    for term in sorted(F.terms, key=lambda t: (t.m, t.blocks)):
        coeff = F.terms[term]
        out.append(
            {
                "blocks": [list(b) for b in term.blocks],
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
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    terms = {}
    exact = True
    for entry in obj["terms"]:
        term = LabeledTerm(entry["blocks"])
        coeff = scalar_from_json(entry["coeff"])
        exact = exact and isinstance(coeff, Fraction)
        terms[term] = terms.get(term, 0) + coeff
    return MomentPolynomial(d, terms, exact=exact)


def dataset_from_csv(path):
    """Read one sample per row, d numeric columns; a header row is skipped.

    A non-numeric row after the data or a nan/inf cell raises ValueError.
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
                if rows:
                    raise ValueError(f"{path}, line {line}: non-numeric row {record}") from None
                continue  # header line
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}, line {line}: non-finite cell in {record}")
            rows.append(row)
    return Dataset(rows)
