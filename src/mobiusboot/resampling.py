"""The resampling expectation operator on moment-polynomial coefficients.

One round of drawing N rows with replacement sends the coefficient at a
partition to its coarsenings: duplicate row indices merge blocks.  The matrix
S over LatticeIndex order has entry(pi, sigma) = falling(N,#pi)/N^{#sigma} for
sigma <= pi and 0 otherwise.  Every column sums to exactly 1 (the weights
enumerate all index draws), and every row at a partition with more than N
blocks is zero, since no N-sample respects that many distinct blocks.

S factors through the order incidence as S = R.zeta.C^{-1} with
R = diag(falling(N,#pi)) and C = diag(N^{#pi}), which is what makes one
resampling round a Moebius-inversion step in disguise; S^{-1} = C.mu.R^{-1}
whenever N is at least the largest block count.
"""

import math
from array import array
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    IncidenceMatrix,
    _groupings,
    _incidence_matrix,
    _mobius_weight,
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
    _is_exact,
    evaluate,
)


def sampling_matrix(m, n):
    """Build S for order m and sample size n.

    The weight of b blocks merged into k, Fraction(falling(N,k), N^b), is one
    object per grouping row of b blocks, shared by every column with b blocks.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    num, den = _sampling_weight(n)
    return _incidence_matrix(
        enumerate_partitions(m), lambda b, k, grouping: Fraction(num(k, grouping), den(b))
    )


def _sampling_weight(n):
    """S's weight for b blocks merged into k, falling(N,k)/N^b, as (numerator, denominator)."""
    return (lambda k, grouping: falling_factorial(n, k)), (lambda b: n**b)


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


def _inverse_weight(n):
    """S^{-1}'s weight for b blocks merged along a grouping into k,
    N^k mu(grouping)/falling(N,b), as (numerator, denominator)."""
    return (lambda k, grouping: n**k * _mobius_weight(grouping)), (lambda b: falling_factorial(n, b))


_WEIGHTS = {"S": _sampling_weight, "S_inv": _inverse_weight}


@lru_cache(maxsize=4)
def _merge_plan(terms, kind, n):
    """Where each merge of each term lands, under the weight _WEIGHTS[kind](n).

    Returns (merged, lands, levels).  merged holds the distinct merged terms in
    first-reached order.  lands is one array('I') of positions in merged: per
    term in turn, one per grouping of its b blocks with a nonzero weight, in
    _groupings(b) order.  levels[b] = (numerators, denominator, floats) holds
    those weights: numerator(k, grouping) as ints, denominator(b), and
    float(Fraction(numerator, denominator)) for float coefficients.  A merge
    reads its blocks from the term's unions by the grouping's masks.
    """
    numerator, denominator = _WEIGHTS[kind](n)
    picks, levels, position, lands = {}, {}, {}, array("I")
    for term in terms:
        b = len(term)
        if b not in levels:
            den = denominator(b)
            rows = [(masks, num) for rgs, k, masks in _groupings(b) if (num := numerator(k, rgs))]
            picks[b] = [masks for masks, _ in rows]
            nums = tuple(num for _, num in rows)
            levels[b] = nums, den, tuple(float(Fraction(num, den)) for num in nums)
        union = term.unions().__getitem__
        for masks in picks[b]:
            merged = sorted(map(union, masks))
            merged.sort(key=len)  # stable: blocks end in (size, labels) order
            merged = tuple.__new__(LabeledTerm, merged)
            lands.append(position.setdefault(merged, len(position)))
    return tuple(position), lands, levels


def _merge_walk(F, n, kind):
    """Spread each term's coefficient over the Bell(b) merges of its b blocks.

    The merge of b blocks into k along a grouping gets coeff * numerator(k,
    grouping) / denominator(b), with (numerator, denominator) = _WEIGHTS[kind](n);
    zero weights are skipped and labels ride along.  Exact sums run in integers
    over one common denominator D, the lcm over terms of coeff's denominator
    times denominator(b), and each output coefficient is one Fraction(sum, D).
    Float coefficients take coeff * float(weight), the bits a Fraction weight
    gives, summed term by term in walk order.

    Where the merges land comes from _merge_plan, keyed by F's terms in order,
    the kind and N.  exact_bias applies S twice to each iterate, and its later
    iterates share one support, so most calls replay a plan as one arithmetic
    pass.  A plan holds 4 bytes per merge and keeps its key's terms and its
    merged terms alive; the memo keeps the last maxsize = 4 plans, so what
    outlives a call is bounded by the four largest supports used last, about
    0.25 MB for an order-7 iterate of 877 terms and 19302 merges.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    merged, lands, levels = _merge_plan(tuple(F.terms), kind, n)
    sums = [0] * len(merged)
    lands = iter(lands)
    if F.exact:
        common = math.lcm(*{c.denominator * levels[len(t)][1] for t, c in F.terms.items()})
        for term, coeff in F.terms.items():
            nums, den, _ = levels[len(term)]
            c = coeff.numerator * (common // (coeff.denominator * den))
            for w, i in zip(nums, lands):  # nums first: zip stops without taking a land
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
    return _merge_walk(F, n, "S")


def apply_S_inverse(F, n):
    """S^{-1} F = C.mu.R^{-1} F, term by term.

    Each term's coefficient spreads over the merges of its b blocks with weight
    N^{#merged} mu(term, merged) / falling(N, b).  S^{-1} exists on F's span
    only when N is at least every term's block count; otherwise this raises
    InfeasibleError.
    """
    most = max((term.block_count for term in F.terms), default=0)
    if n < most:
        raise InfeasibleError(f"symmetric statistic needs N >= {most} distinct rows, got N={n}")
    return _merge_walk(F, n, "S_inv")


def unbiased_evaluate(F, data):
    """The symmetric unbiased estimator of F from a Dataset: evaluate(S^{-1} F, data).

    Its expectation over iid draws of data's N rows is F's population value,
    and it is the only row-symmetric estimator with that property (Halmos
    1946); it averages each term's product over distinct rows.
    """
    if not isinstance(data, Dataset):
        raise TypeError(f"cannot estimate from {type(data).__name__}: a Dataset is needed")
    return evaluate(apply_S_inverse(F, data.n), data)


def reduced_matrix(m, n):
    """m x m level-sum compression of S, indexed by block counts 1..m.

    Cell (i, j) = stirling2(j,i) * falling(N,i) / N^j for i <= j, stored as its
    upper triangle; the cells below are 0.
    A partition with j blocks has stirling2(j,i) coarsenings with i blocks,
    all receiving the same weight, which is why S acts on level sums.
    """
    if m < 1 or n < 1:
        raise ValueError("m and N must be positive")
    columns = tuple(tuple(range(i - 1, m)) for i in range(1, m + 1))
    values = [
        [Fraction(stirling2(j, i) * falling_factorial(n, i), n**j) for j in range(i, m + 1)]
        for i in range(1, m + 1)
    ]
    return IncidenceMatrix._stored(range(1, m + 1), columns, values)


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
    any other cell adds exactly 0.  An exact eta on int and Fraction cells
    sums integers over one common denominator.  Otherwise the rows are read in
    order and each cell is added to its column's running sum, so a float eta
    gives the bits of a sum down each dense column.
    """
    if _is_exact(eta) and _exact_cells(S):
        return _one_norm_exact(S, eta)
    totals = [0] * len(S.index)
    for i, (cols, vals) in enumerate(zip(S.columns, S.values)):
        diagonal = 0
        for j, s in zip(cols, vals):
            if j == i:
                diagonal = s
            elif s:
                totals[j] += abs(0 - eta * s)
        totals[i] += abs(1 - eta * diagonal)
    return max(Fraction(0), *totals)


def _exact_cells(S):
    types = set()
    for vals in S.values:
        types.update(map(type, vals))
    return types <= {int, Fraction}


def _one_norm_exact(S, eta):
    """_one_norm for an exact eta and exact cells, as one Fraction over q*den.

    eta = p/q and every cell s = a/b is a*(den/b)/den, den the lcm of the b,
    so |delta - eta*s| is |q*den*delta - p*a*(den/b)| / (q*den).
    """
    eta = Fraction(eta)
    p, q = eta.numerator, eta.denominator
    den = math.lcm(*{s.denominator for vals in S.values for s in vals})
    totals = [0] * len(S.index)
    for i, (cols, vals) in enumerate(zip(S.columns, S.values)):
        diagonal = 0
        for j, s in zip(cols, vals):
            scaled = p * s.numerator * (den // s.denominator)
            if j == i:
                diagonal = scaled
            else:
                totals[j] += abs(scaled)
        totals[i] += abs(q * den - diagonal)
    return Fraction(max(0, *totals), q * den)


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
    if m < 1 or n < 1:
        raise ValueError("m and N must be positive")
    return Fraction(falling_factorial(n, m), n**m)


def log_gamma_ratio(m, n):
    """log(falling(N,m)/N^m) as a float; -inf when m > N."""
    if m > n:
        return -math.inf
    return sum(math.log1p(-i / n) for i in range(m))


def linear_regime_size(m, alpha):
    """The linear-regime sample size N = max(ceil(alpha*m^2), m+1) for order m."""
    if m < 1 or alpha <= 0:
        raise ValueError("m positive and alpha > 0 required")
    return max(math.ceil(alpha * m * m), m + 1)
