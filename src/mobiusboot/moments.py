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
import numbers
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement

from .lattice import check_block_cap


class InfeasibleError(ValueError):
    """The sample is too small for the requested estimator or schedule."""


class MissingMomentError(LookupError):
    """A moment table lacks a block required by the evaluation."""


def _is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _scaled(ratios):
    """(numerators, den) of (p, q) int pairs: den is the lcm of the q's, p/q = numerator/den.

    The numerators come in the pairs' order, and no pairs give ([], 1).  Every
    exact result built from given ratios as integer numerators over one
    denominator is built here (mc.expansion_coefficients grows its own
    denominator step by step instead).  It takes pairs rather than
    Fractions, so a q may be a product of denominators that no gcd has
    normalised.
    """
    ratios = list(ratios)
    den = math.lcm(*{q for _, q in ratios})
    return [p * (den // q) for p, q in ratios], den


# cell types that Dataset keeps as they are; numpy registers its scalars with
# the numbers ABCs, so _cell converts them without importing numpy
_SCALARS = frozenset((int, float, Fraction, bool))


def _cell(v, name="Dataset cell"):
    """A Dataset cell, a MomentTable value or a MomentPolynomial coefficient
    as a Python scalar, as .tolist() gives: a numpy integer becomes an int and
    a numpy float a float.  A nan or inf value raises ValueError, naming it as
    name.
    """
    if type(v) not in _SCALARS and isinstance(v, numbers.Real):
        if isinstance(v, numbers.Integral):
            v = int(v)
        elif not isinstance(v, numbers.Rational):
            v = float(v)
    if type(v) is float and not math.isfinite(v):
        raise ValueError(f"{name} {v!r} is not finite")
    return v


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_dimension(d):
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")


def _check_sample_size(n):
    if not _is_int(n):
        raise ValueError(f"sample size must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")


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
    """Sparse scalar combination of moment products over d variables.

    Coefficients follow Dataset's cell rule: a numpy scalar becomes a Python
    scalar, and a nan or inf coefficient raises ValueError naming its term.
    """

    def __init__(self, d, terms):
        _check_dimension(d)
        self.d = d
        pairs = []
        for term, coeff in dict(terms).items():
            if not isinstance(term, LabeledTerm):
                term = LabeledTerm(term)
            if term.max_label() >= d:
                raise ValueError(f"label {term.max_label()} out of range for d={d}")
            pairs.append((term, _cell(coeff, f"coefficient of {term!r}")))
        self.exact = all(_is_exact(c) for _, c in pairs)
        clean = {}
        for term, coeff in pairs:
            if coeff != 0:  # two keys with one normal form add up
                clean[term] = clean.get(term, 0) + coeff
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

    def _result(self, coeffs):
        """The polynomial over self.d of an arithmetic result: coeffs maps terms
        of polynomials over d to sums or products of their coefficients.

        It is exact iff every value is, and float otherwise; zeros are dropped
        and no value is checked, so a float overflow stays inf.
        """
        exact = all(map(_is_exact, coeffs.values()))
        pairs = coeffs.items() if exact else ((t, float(c)) for t, c in coeffs.items())
        return MomentPolynomial._validated(self.d, pairs, exact)

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("polynomials over different d")
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) + c
        return self._result(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return self._result({t: scalar * c for t, c in self.terms.items()})

    def __repr__(self):
        return f"MomentPolynomial(d={self.d}, {len(self.terms)} terms)"


class Dataset:
    """N x d matrix of samples, one row per observation.

    Every Dataset is a root or a pick of a root.  A root holds rows and
    columns: per distinct block evaluated on it or on its picks, its N
    per-row products, built on the block's first read (_column).  So a
    Dataset the caller keeps holds the columns of the blocks evaluated on it.  A
    resampled Dataset is a pick (_picked): it keeps root and picks, the root
    row index of each of its rows, and builds rows only when they are first
    read.  A pick of a pick is a pick of the same root: _picked composes the
    indices, so no other module of the package reads root, picks or columns.
    """

    __slots__ = ("rows", "exact", "root", "picks", "columns")

    def __init__(self, rows):
        rows = tuple(tuple(map(_cell, r)) for r in rows)
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

    def _moments(self):
        """The block-moment reader: block -> the root's column summed at the picks, over n.

        A float column sums in row order from 0 (the built-in sum compensates
        from Python 3.12 on), so the bits hold on every version.  An exact
        column sums its integer numerators into one Fraction over denominator * n.
        """
        root = self.root or self
        columns = root.columns
        picks = self.picks
        if picks is None:
            picks = range(len(root.rows))
        n = len(picks)
        exact = root.exact

        def moment(block):
            column = columns.get(block) or _column(root, block)
            if exact:
                numerators, den = column
                return Fraction(sum(map(numerators.__getitem__, picks)), den * n)
            s = 0
            for i in picks:
                s += column[i]
            return s / n

        return moment

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


class MomentTable:
    """Analytic population: canonical label multiset -> block moment."""

    def __init__(self, d, values):
        """VALUES maps blocks to moments, as a mapping or as (block, moment) pairs.

        Each block is a sequence of int labels in 0..d-1, in any order, and
        no two blocks may sort to the same multiset.  Moments follow Dataset's
        cell rule: a numpy scalar becomes a Python scalar, and a nan or inf
        moment raises ValueError.
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
            self.values[key] = _cell(v, f"block {list(key)} moment")
        self.exact = all(_is_exact(v) for v in self.values.values())

    def moment(self, block):
        key = tuple(sorted(block))
        try:
            return self.values[key]
        except KeyError:
            raise MissingMomentError(f"moment table has no entry for block {key}") from None

    def _moments(self):
        """The block-moment reader: the table's moment method."""
        return self.moment

    @classmethod
    def from_dataset(cls, data, blocks):
        """Tabulate the empirical moments of the given blocks.

        Each moment is empirical_moment's, bit for bit.  data's root keeps only
        the columns it held before the call: a block's column is dropped once
        its moment is read, so at most one new column is alive at a time.
        """
        columns = (data.root or data).columns
        moment = data._moments()
        values = {}
        for block in map(tuple, blocks):
            kept = block in columns
            values[block] = moment(block)
            if not kept:
                del columns[block]
        return cls(data.d, values)


class NormalPopulation:
    """d independent standard normal variables: their block moments and their draws.

    The one law that exact_bias reads moments from and bias_experiment draws
    samples from.
    """

    exact = True

    def __init__(self, d):
        _check_dimension(d)
        self.d = d

    def moment(self, block):
        """The moment of a block of labels below d, as a Fraction.

        It factors over the block's distinct labels; each label with
        multiplicity c contributes (c-1)!! for even c and 0 for odd c.  A
        label at or above d raises MissingMomentError, as a table without
        the block does.
        """
        if not all(0 <= lab < self.d for lab in block):
            raise MissingMomentError(f"moment table has no entry for block {tuple(sorted(block))}")
        v = 1
        for c in map(block.count, set(block)):
            v *= 0 if c % 2 else math.prod(range(c - 1, 0, -2))
        return Fraction(v)

    def _moments(self):
        """The block-moment reader: the population's moment method."""
        return self.moment

    def draw(self, rng, n):
        """A Dataset of n rows of d standard normals, Python floats, from numpy Generator rng."""
        rows = tuple(map(tuple, rng.standard_normal((n, self.d)).tolist()))
        return Dataset._validated(rows, exact=False)


def _column(root, block):
    """Build root's column for block, on the block's first read, and keep it in root.columns.

    The column is each row's product 1 * x_a * x_b * ... of the block's
    variables, in row order; blocks of one and two labels, which variances
    and covariances read, skip the leading 1 and the per-label loop.  On
    exact rows it is (integer numerators, their common denominator), so a
    moment is one integer sum and one normalised Fraction, the same Fraction.
    """
    rows = root.rows
    d = len(rows[0])
    for lab in block:
        if not 0 <= lab < d:
            raise ValueError(f"label {lab} out of range for d={d}")
    if len(block) == 1:
        (a,) = block
        column = [row[a] for row in rows]
    elif len(block) == 2:
        a, b = block
        column = [row[a] * row[b] for row in rows]
    else:
        column = [1] * len(rows)
        for lab in block:
            column = [p * row[lab] for p, row in zip(column, rows)]
    if root.exact:
        column = _scaled(p.as_integer_ratio() for p in column)
    root.columns[block] = column
    return column


def empirical_moment(data, block):
    """Plug-in moment: mean over rows of the product of the block's variables.

    Dataset._moments reads it: a Fraction on exact data, a float otherwise.
    """
    return Dataset._moments(data)(tuple(block))


def evaluate(F, population):
    """Value of the polynomial against a Dataset (plug-in), a MomentTable or a NormalPopulation.

    Each distinct block's moment is read once per call from the population's
    block-moment reader (_moments); on a Dataset it is the block's
    empirical_moment, bit for bit.  An exact polynomial against an exact
    table or Dataset is one Fraction summed in integers (_exact_value); any
    other pair takes the per-term loop (_term_sum).
    """
    if not isinstance(population, (Dataset, MomentTable, NormalPopulation)):
        raise TypeError(f"cannot evaluate against {type(population).__name__}")
    moment = population._moments()
    return _exact_value(F, moment) if F.exact and population.exact else _term_sum(F, moment)


def _term_sum(F, moment):
    """The per-term loop: the sum from 0 over terms of coeff * m_1 * m_2 * ...

    moment(block) gives a block's moment: a scalar, or for _pick_evaluator a
    numpy array of one moment per pick.  It is called once per distinct block.
    """
    # each distinct block's moment once per call: the variance reads (0) twice
    cache = {}
    total = 0
    for term, coeff in F.terms.items():
        v = coeff
        for block in term:
            m = cache.get(block)
            if m is None:
                m = cache[block] = moment(block)
            v = v * m
        total += v
    return total


def _exact_value(F, moment):
    """evaluate of an exact F whose block moments are exact, summed in integers.

    moment(block) gives a block's moment, an int or a Fraction, read as its
    (numerator, denominator).  It is called once per distinct block, in the
    order the per-term loop reads them, so a missing block raises there
    first.  Each term's product is an integer numerator over an integer
    denominator, the terms with one denominator add up first, and those sums
    add over one denominator (_scaled) into one Fraction.  Fractions are
    normalised, so it is the Fraction that adding the terms as Fractions
    gives.  An F with no terms is the int 0, as that sum from 0 is.
    """
    if not F.terms:
        return 0
    cache = {}
    sums = {}
    for term, coeff in F.terms.items():
        num, den = coeff.as_integer_ratio()
        for block in term:
            m = cache.get(block)
            if m is None:
                m = cache[block] = moment(block).as_integer_ratio()
            num *= m[0]
            den *= m[1]
        sums[den] = sums.get(den, 0) + num
    nums, common = _scaled((s, den) for den, s in sums.items())
    return Fraction(sum(nums), common)


def _pick_evaluator(F, data):
    """evaluate(F, .) over a block of picks of data at once; None where bits could move.

    The function returned takes an (R, N) integer array, R picks of N of
    data's rows, and returns their R values as a float64 array, each with
    the bits of evaluate(F, Dataset._picked(data, row)).  It needs float
    coefficients and a Python float in every cell of data's root (an int or
    a Fraction cell would change a product's type or bits); otherwise the
    answer is None.  Its callers have checked that every label of F is a
    column of data (mc._check_data).  It gathers the
    root's columns at the picks and sums each block's row with
    np.add.accumulate, in order as the Dataset reader adds; + 0.0 turns only
    a -0.0 sum into the 0.0 that reader's sum from 0 gives.  _term_sum runs on
    those arrays: IEEE products and sums are the same in numpy as in Python.
    """
    root = data.root or data
    if F.exact or not all(type(v) is float for row in root.rows for v in row):
        return None
    import numpy as np

    blocks = {block for term in F.terms for block in term}
    columns = {block: np.array(root.columns.get(block) or _column(root, block)) for block in blocks}
    outer = None if data.picks is None else np.array(data.picks)

    def values(picks):
        if outer is not None:
            picks = outer[picks]
        n = picks.shape[1]

        def moment(block):
            sums = np.add.accumulate(columns[block][picks], axis=1)[:, -1]
            return (sums + 0.0) / n

        with np.errstate(all="ignore"):
            return _term_sum(F, moment)

    return values


def reachable_blocks(F):
    """Every union of some of a term's blocks: each is a block of some merge.

    Population tables used for exact bias trajectories must cover this set,
    since resampling pushes coefficients onto merged blocks.  A term of more
    than BLOCK_CAP blocks raises CapExceededError before any union is built.
    """
    check_block_cap(F.terms)
    out = set()
    for term in F.terms:
        out.update(term.unions()[1:])
    return out


# -- analytic populations ------------------------------------------------------

def normal_moment_table(d, max_order):
    """NormalPopulation(d)'s moments tabulated at every block up to max_order."""
    moment = NormalPopulation(d).moment
    blocks = (b for k in range(max_order + 1) for b in combinations_with_replacement(range(d), k))
    return MomentTable(d, {block: moment(block) for block in blocks})


# -- serialization -------------------------------------------------------------

def _exact_str(x):
    """str(x), and an int or Fraction in full past the interpreter's int-to-str digit limit.

    The limit (sys.get_int_max_str_digits) stays in force for parsing input;
    decimal's conversion is not subject to it (fractions imports decimal, so
    it costs no import).
    """
    try:
        return str(x)
    except ValueError:
        num, den = x.as_integer_ratio()
        return f"{Decimal(num)}" if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def polynomial_to_dict(F):
    """JSON-ready form: {"d": d, "terms": [{"blocks": [[...]], "coeff": ...}]}."""
    out = []
    for term in sorted(F.terms, key=lambda t: (t.m, t)):
        coeff = F.terms[term]
        out.append(
            {
                "blocks": [list(b) for b in term],
                "coeff": _exact_str(coeff) if F.exact else float(coeff),
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


def population_from_dict(obj, default_d):
    """The population of a population JSON, an analytic law or a moment table.

    {"family": "normal", "d": d} is a NormalPopulation; a normal family
    without "d" takes default_d, the functional's.  {"d": d, "moments":
    [{"block": [labels], "value": ...}, ...]} is a MomentTable, each value a
    JSON scalar (scalar_from_json).  Any other family raises InfeasibleError;
    a malformed object raises KeyError, TypeError or ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    family = obj.get("family")
    if family == "normal":
        return NormalPopulation(obj.get("d", default_d))
    if family is not None:
        raise InfeasibleError(f"unknown population family {family!r}")
    d = obj["d"]
    values = []
    for entry in obj["moments"]:
        block = entry["block"]
        if not isinstance(block, list):
            raise ValueError(f"block {block!r} is not a list")
        values.append((block, scalar_from_json(entry["value"])))
    return MomentTable(d, values)


def dataset_from_csv(path):
    """Read one sample per row, d numeric columns; a non-numeric line 1 is a header.

    A non-numeric row after line 1, a nan/inf cell or a line the csv module
    cannot read (a field over its size limit) raises ValueError naming its
    line of the file (a quoted field may span lines: the record's last);
    blank lines are skipped.  The file is read as UTF-8, and a byte-order mark
    before line 1 is dropped, so it cannot turn a first row into a header.
    A byte that is not UTF-8 raises ValueError naming its line, counted as
    csv counts lines (a line ends at \n, \r\n or \r).
    """
    import csv
    import io

    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(
            f"{path}, line {line}: byte {raw[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        ) from None
    rows = []
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for record_no, record in enumerate(reader, 1):
                if not record:
                    continue
                try:
                    row = [float(v) for v in record]
                except ValueError:
                    if record_no > 1:
                        raise ValueError(
                            f"{path}, line {reader.line_num}: non-numeric row {record}"
                        ) from None
                    continue  # header line
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"{path}, line {reader.line_num}: non-finite cell in {record}")
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return Dataset(rows)
