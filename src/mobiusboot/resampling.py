"""The resampling expectation operator on moment-polynomial coefficients.

One round of drawing N rows with replacement sends the coefficient at a
partition to its coarsenings: duplicate row indices merge blocks.  Each
operator here is a weight law, law(N, b, k, grouping): the weight of b blocks
merged along a grouping into k.  The laws are the factorizations through the
order incidence.  S = R.zeta.C^{-1}, with R = diag(falling(N,#pi)) and
C = diag(N^{#pi}), gives S's law falling(N,k)/N^b (_sampling_law), which is
what makes one resampling round a Moebius-inversion step in disguise.
S^{-1} = C.mu.R^{-1}, whenever N is at least the largest block count, gives
N^k mu(grouping)/falling(N,b) (_inverse_law).  sampling_matrix hands a law to
lattice._incidence_matrix, and apply_S and apply_S_inverse hand theirs to one
merge walk.  Every column of S sums to exactly 1 (the weights enumerate all
index draws), and every row at a partition with more than N blocks is zero,
since no N-sample respects that many distinct blocks.
"""

import math
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice

from .lattice import (
    CapExceededError,
    IncidenceMatrix,
    _groupings,
    _incidence_matrix,
    _mobius_weight,
    check_block_cap,
    enumerate_partitions,
    falling_factorial,
    stirling2,
    zeta_matrix,
)
from .moments import (
    Dataset,
    InfeasibleError,
    LabeledTerm,
    MomentPolynomial,
    _check_sample_size,
    _is_exact,
    _scaled,
    evaluate,
)


def _sampling_law(n, b, k, grouping):
    """S's weight at N for b blocks merged into k: falling(N,k)/N^b."""
    return Fraction(falling_factorial(n, k), n**b)


def _inverse_law(n, b, k, grouping):
    """S^{-1}'s weight at N for b blocks merged along grouping into k.

    N^k mu(grouping)/falling(N,b); falling(N,b) is 0 for b > N, where S^{-1}
    does not exist.
    """
    return Fraction(n**k * _mobius_weight(grouping), falling_factorial(n, b))


def sampling_matrix(m, n):
    """Build S for order m and sample size n, from _sampling_law.

    The weight of b blocks merged into k is one Fraction per grouping row of
    b blocks, shared by every column with b blocks.  m is held to the lattice
    cap, and then the cells to REDUCED_CAP bits, as the level-sum matrix's are.
    """
    _check_sample_size(n)
    index = enumerate_partitions(m)
    _check_cell_bits("sampling matrix", m, n)
    return _incidence_matrix(index, partial(_sampling_law, n))


def factorization(m, n):
    """Diagonal factors (R, C, check) with S = R.zeta.C^{-1}.

    R carries falling(N,#pi) on the zeta's row side, C carries N^{#pi} on the
    column side; the diagonals do not commute past zeta, so the orientation
    matters.  check is the exact entrywise comparison and must always be True:
    every cell s of S, zero or not, must have s * C[j] == R[i] * zeta[i][j],
    compared in integers as s.numerator * C[j] == R[i] * zeta[i][j] * s.denominator.
    Every cell that S or zeta stores is compared; a cell that neither stores
    is 0 on both sides.
    """
    S = sampling_matrix(m, n)
    zeta = zeta_matrix(m)
    R = [falling_factorial(n, pi.block_count) for pi in S.index]
    C = [n ** pi.block_count for pi in S.index]
    check = all(
        s.numerator * C[j] == r * z * s.denominator
        for r, s_cols, s_vals, z_cols, z_vals in zip(
            R, S.columns, S.values, zeta.columns, zeta.values
        )
        for j, s, z in _cells_of_either(s_cols, s_vals, z_cols, z_vals)
    )
    return [Fraction(r) for r in R], [Fraction(c) for c in C], check


def _cells_of_either(a_cols, a_vals, b_cols, b_vals):
    """(j, a, b) for every column j that row a or row b stores, 0 where one does not."""
    if a_cols == b_cols:
        return zip(a_cols, a_vals, b_vals)
    a, b = dict(zip(a_cols, a_vals)), dict(zip(b_cols, b_vals))
    return ((j, a.get(j, 0), b.get(j, 0)) for j in a.keys() | b.keys())


@lru_cache(maxsize=4)
def _merge_plan(terms, law, n):
    """Where each merge of each term lands, under the weight law at N.

    Returns (merged, lands, levels).  merged holds the distinct merged terms in
    first-reached order.  lands is one array('I') of positions in merged: per
    term in turn, one per grouping of its b blocks with a nonzero weight, in
    _groupings(b) order.  levels[b] = (numerators, denominator, floats) holds
    those weights: the lcm of their denominators, each weight as an int
    numerator over it, and float(weight) for float coefficients.  A merge
    reads its blocks from the term's unions by the grouping's masks.  A term
    of more than BLOCK_CAP blocks raises CapExceededError before any table
    is built.
    """
    check_block_cap(terms)
    picks, levels, position, lands = {}, {}, {}, array("I")
    for term in terms:
        b = len(term)
        if b not in levels:
            rows = [(masks, w) for rgs, k, masks in _groupings(b) if (w := law(n, b, k, rgs))]
            picks[b] = [masks for masks, _ in rows]
            nums, den = _scaled(w.as_integer_ratio() for _, w in rows)
            levels[b] = tuple(nums), den, tuple(float(w) for _, w in rows)
        union = term.unions().__getitem__
        for masks in picks[b]:
            merged = sorted(map(union, masks))
            merged.sort(key=len)  # stable: blocks end in (size, labels) order
            merged = tuple.__new__(LabeledTerm, merged)
            lands.append(position.setdefault(merged, len(position)))
    return tuple(position), lands, levels


def _merge_walk(F, n, law):
    """Spread each term's coefficient over the Bell(b) merges of its b blocks.

    The merge of b blocks into k along a grouping gets coeff * law(n, b, k,
    grouping); zero weights are skipped and labels ride along.  Exact sums
    run in integers over one common denominator D, the lcm over terms of
    coeff's denominator times the term's level denominator, and each output
    coefficient is one Fraction(sum, D).  Float coefficients take
    coeff * float(weight), summed term by term in walk order.

    Where the merges land comes from _merge_plan, keyed by F's terms in order,
    the law and N.  exact_bias applies S twice to each iterate, and its later
    iterates share one support, so most calls replay a plan as one arithmetic
    pass.  A plan holds 4 bytes per merge and keeps its key's terms and its
    merged terms alive; the memo keeps the last maxsize = 4 plans, so what
    outlives a call is bounded by the four largest supports used last, about
    0.25 MB for an order-7 iterate of 877 terms and 19302 merges.
    """
    merged, lands, levels = _merge_plan(tuple(F.terms), law, n)
    sums = [0] * len(merged)
    lands = iter(lands)
    if F.exact:
        coeffs, common = _scaled(
            (c.numerator, c.denominator * levels[len(t)][1]) for t, c in F.terms.items()
        )
        for term, c in zip(F.terms, coeffs):
            # the weights first: zip stops at their end without taking a land
            for w, i in zip(levels[len(term)][0], lands):
                sums[i] += c * w
        out = ((t, Fraction(s, common)) for t, s in zip(merged, sums))
    else:
        for term, c in F.terms.items():
            for w, i in zip(levels[len(term)][2], lands):
                sums[i] += c * w
        out = zip(merged, sums)
    # an empty walk has no float coefficient, so its result is exact
    return MomentPolynomial._validated(F.d, out, F.exact or not merged)


def apply_S(F, n):
    """One resampling round on a polynomial, term by term.

    Each term's coefficient spreads over the merges of its blocks with weight
    falling(N,#merged)/N^{#blocks}.
    """
    _check_sample_size(n)
    return _merge_walk(F, n, _sampling_law)


def apply_S_inverse(F, n):
    """S^{-1} F = C.mu.R^{-1} F, term by term.

    Each term's coefficient spreads over the merges of its b blocks with weight
    N^{#merged} mu(term, merged) / falling(N, b).  S^{-1} exists on F's span
    only when N is at least every term's block count; otherwise this raises
    InfeasibleError.
    """
    _check_sample_size(n)
    most = max((term.block_count for term in F.terms), default=0)
    if n < most:
        raise InfeasibleError(f"symmetric statistic needs N >= {most} distinct rows, got N={n}")
    return _merge_walk(F, n, _inverse_law)


def unbiased_evaluate(F, data):
    """The symmetric unbiased estimator of F from a Dataset: evaluate(S^{-1} F, data).

    Its expectation over iid draws of data's N rows is F's population value,
    and it is the only row-symmetric estimator with that property (Halmos
    1946); it averages each term's product over distinct rows.
    """
    if not isinstance(data, Dataset):
        raise TypeError(f"cannot estimate from {type(data).__name__}: a Dataset is needed")
    return evaluate(apply_S_inverse(F, data.n), data)


# A cell of the level-sum matrix, or of S, has up to about
# m x bit_length(max(m, N)) bits: N^m bounds its denominator, and the Stirling
# numbers a level-sum cell carries grow as m log m.  The level-sum matrix holds
# m^2/2 such cells: at the cap, smatrix --reduced takes about 1 s on a 2-core
# x86 host (m = 240 at N = 1000, m = 266 at N = 300).  S holds up to 19302
# (m = 7) or 167894 (m = 8) cells, each printed in full by the artifact.
REDUCED_CAP = 2400


def _check_cell_bits(matrix, m, n):
    """Raise CapExceededError when m x bit_length(max(m, N)) exceeds REDUCED_CAP."""
    bits = m * int(max(m, n)).bit_length()
    if bits > REDUCED_CAP:
        raise CapExceededError(
            f"the {matrix} at m={m}, N={n} has cells of up to"
            f" m x bit_length(max(m, N)) = {bits} bits; at most {REDUCED_CAP} are supported"
        )


def reduced_matrix(m, n):
    """m x m level-sum compression of S, indexed by block counts 1..m.

    Cell (i, j) = stirling2(j,i) * falling(N,i) / N^j for i <= j, stored as its
    upper triangle; the cells below are 0.
    A partition with j blocks has stirling2(j,i) coarsenings with i blocks,
    all receiving the same weight, which is why S acts on level sums.  A row
    i > N, where falling(N,i) = 0, stores Fraction(0) in every cell without
    reading a Stirling number.
    Raises CapExceededError before any cell is built when
    m x bit_length(max(m, N)) exceeds REDUCED_CAP.
    """
    _check_order_and_size(m, n)
    _check_cell_bits("level-sum matrix", m, n)
    columns = tuple(tuple(range(i - 1, m)) for i in range(1, m + 1))
    values = [
        [Fraction(stirling2(j, i) * falling_factorial(n, i), n**j) for j in range(i, m + 1)]
        if i <= n else [Fraction(0)] * (m + 1 - i)
        for i in range(1, m + 1)
    ]
    return IncidenceMatrix(range(1, m + 1), columns, values)


def _check_order_and_size(m, n):
    _check_sample_size(n)
    if m < 1:
        raise ValueError(f"order m must be positive, got {m}")


# -- norms and convergence ratios ----------------------------------------------

def one_norm_id_minus_S(m, n):
    """Closed form for the operator 1-norm of Id - S.

    2(1 - falling(N,m)/N^m) for m <= N, and exactly 2 otherwise: the worst
    column is the finest partition's, whose diagonal weight is smallest.
    """
    return one_norm_id_minus_scaled(m, n, 1)


def one_norm_direct(m, n, eta=1):
    """Max column 1-norm of Id - eta*S from the explicit matrix."""
    return _one_norm(sampling_matrix(m, n), eta)


def _one_norm(S, eta):
    """Max column 1-norm of Id - eta*S for a built S, so one S serves every eta.

    A column's sum runs over its diagonal cell and its nonzero stored cells:
    any other cell adds exactly 0.  The rows are read in order and each cell
    is added to its column's running sum.  An exact eta = p/q on int and
    Fraction cells sums integers over q*den: each cell s is an int over den,
    the lcm of the cells' denominators (_scaled), times p, the identity is
    q*den, and the result is one Fraction.  Otherwise each cell is eta*s and
    the identity 1, so a float eta gives the bits of a sum down each dense
    column.
    """
    exact = _is_exact(eta) and all({int, Fraction}.issuperset(map(type, vals)) for vals in S.values)
    if exact:  # the loop tests the int cell, 0 where s is, and faster
        p, q = eta.as_integer_ratio()
        cells, den = _scaled(s.as_integer_ratio() for vals in S.values for s in vals)
        cells = iter(cells)  # read row by row below
        eta, one, zero = p, q * den, 0
    else:  # an unstored diagonal is eta * 0, as a dense column reads it
        one, zero = 1, eta * 0
    totals = [0] * len(S.index)
    for i, (cols, vals) in enumerate(zip(S.columns, S.values)):
        diagonal = zero
        for j, s in zip(cols, islice(cells, len(vals)) if exact else vals):
            cell = eta * s
            if j == i:
                diagonal = cell
            elif s:
                totals[j] += abs(cell)
        totals[i] += abs(one - diagonal)
    return Fraction(max(0, *totals), one) if exact else max(Fraction(0), *totals)


def one_norm_id_minus_scaled(m, n, eta):
    """Closed form for the operator 1-norm of Id - eta*S.

    A column at a partition with l blocks holds gamma_l = falling(N,l)/N^l on
    the diagonal and nonnegative entries summing to 1 - gamma_l below it, so
    its norm is |1 - eta*gamma_l| + |eta|*(1 - gamma_l).  That never decreases
    as gamma_l decreases, so the finest partition's column (l = m) is the
    worst.  No matrix is built, so m is not held to the cap.
    """
    g = gamma_ratio(m, n)
    return abs(1 - eta * g) + abs(eta) * (1 - g)


def gamma_ratio(m, n):
    """falling(N,m)/N^m as an exact Fraction; 0 when m > N."""
    _check_order_and_size(m, n)
    return Fraction(falling_factorial(n, m), n**m)


def log_gamma_ratio(m, n):
    """log(falling(N,m)/N^m) as a float; -inf when m > N."""
    _check_order_and_size(m, n)
    if m > n:
        return -math.inf
    return sum(math.log1p(-i / n) for i in range(m))


def linear_regime_size(m, alpha):
    """The linear-regime sample size N = max(ceil(alpha*m^2), m+1) for order m.

    alpha must be a finite number > 0, and alpha*m^2 finite too.
    """
    if m < 1:
        raise ValueError(f"order m must be positive, got {m}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
    size = alpha * m * m
    if not math.isfinite(size):
        raise ValueError(f"alpha*m^2 is not a finite number at alpha={alpha}, m={m}")
    return max(math.ceil(size), m + 1)
