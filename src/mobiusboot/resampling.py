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
from fractions import Fraction

from .lattice import (
    IncidenceMatrix,
    _groupings,
    _incidence_entries,
    _mobius_weight,
    enumerate_partitions,
    falling_factorial,
    stirling2,
    zeta_matrix,
)
from .moments import Dataset, InfeasibleError, LabeledTerm, MomentPolynomial, evaluate


def sampling_matrix(m, n):
    """Build S for order m and sample size n.

    The weight of b blocks merged into k, Fraction(falling(N,k), N^b), is one
    object per grouping row of b blocks, shared by every column with b blocks.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    index = enumerate_partitions(m)
    num, den = _sampling_weight(n)
    entries = _incidence_entries(index, lambda b, k, grouping: Fraction(num(k, grouping), den(b)))
    return IncidenceMatrix(index, entries)


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
    """
    S = sampling_matrix(m, n)
    zeta = zeta_matrix(m)
    R = [falling_factorial(n, pi.block_count) for pi in S.index]
    C = [n ** pi.block_count for pi in S.index]
    check = all(
        s.numerator * c == r * z * s.denominator
        for r, row, zeta_row in zip(R, S.entries, zeta.entries)
        for s, z, c in zip(row, zeta_row, C)
    )
    return [Fraction(r) for r in R], [Fraction(c) for c in C], check


def _merge_walk(F, n, weight):
    """Spread each term's coefficient over the Bell(b) merges of its b blocks.

    With weight = (numerator, denominator), integer functions, the merge of b
    blocks into k along a grouping gets coeff * numerator(k, grouping) /
    denominator(b); zero weights are skipped and labels ride along.  Exact sums
    run in integers over one common denominator D, the lcm over terms of coeff's
    denominator times denominator(b), and each output coefficient is one
    Fraction(sum, D).  Float coefficients take coeff * float(weight), the bits a
    Fraction weight gives.  A merge reads its blocks from the term's unions by
    the grouping's masks.  Weights are worked out once per block count and call,
    and nothing per term outlives its term: cached merge lists would grow with
    every polynomial seen, and benchmarks/bench.py's peak_rss_mb reports the
    high-water mark of its parent, which runs this walk for its oracles.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    numerator, denominator = weight
    if F.exact:
        common = math.lcm(*{c.denominator * denominator(t.block_count)
                             for t, c in F.terms.items()})
    levels, out = {}, {}
    for term, coeff in F.terms.items():
        b = term.block_count
        if b not in levels:
            den = denominator(b)
            levels[b] = [
                (masks, num if F.exact else float(Fraction(num, den)))
                for rgs, k, masks in _groupings(b)
                if (num := numerator(k, rgs))
            ]
        if F.exact:
            coeff = coeff.numerator * (common // (coeff.denominator * denominator(b)))
        union = term.unions().__getitem__
        for masks, w in levels[b]:
            merged = sorted(map(union, masks))
            merged.sort(key=len)  # stable: blocks end in (size, labels) order
            merged = tuple.__new__(LabeledTerm, merged)
            out[merged] = out.get(merged, 0) + coeff * w
    if F.exact:
        out = {t: Fraction(s, common) for t, s in out.items()}
    return MomentPolynomial(F.d, out)


def apply_S(F, n):
    """One resampling round on a polynomial, term by term.

    Each term's coefficient spreads over the merges of its blocks with weight
    falling(N,#merged)/N^{#blocks}.
    """
    return _merge_walk(F, n, _sampling_weight(n))


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
    weight = (lambda k, g: n**k * _mobius_weight(g)), (lambda b: falling_factorial(n, b))
    return _merge_walk(F, n, weight)


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

    entries[i-1][j-1] = stirling2(j,i) * falling(N,i) / N^j for i <= j, else 0.
    A partition with j blocks has stirling2(j,i) coarsenings with i blocks,
    all receiving the same weight, which is why S acts on level sums.
    """
    if m < 1 or n < 1:
        raise ValueError("m and N must be positive")
    entries = [
        [
            Fraction(stirling2(j, i) * falling_factorial(n, i), n**j) if i <= j else Fraction(0)
            for j in range(1, m + 1)
        ]
        for i in range(1, m + 1)
    ]
    return IncidenceMatrix(range(1, m + 1), entries)


# -- norms and convergence ratios ----------------------------------------------

def one_norm_id_minus_S(m, n):
    """Closed form for the operator 1-norm of Id - S.

    2(1 - falling(N,m)/N^m) for m <= N, and exactly 2 otherwise: the worst
    column is the finest partition's, whose diagonal weight is smallest.
    """
    return one_norm_id_minus_scaled(m, n, 1)


def one_norm_direct(m, n, eta=1):
    """Max column 1-norm of Id - eta*S from the explicit matrix.

    A column's sum runs, in row order, over its diagonal cell and its nonzero
    cells: a zero off the diagonal adds exactly 0.
    """
    S = sampling_matrix(m, n)
    best = Fraction(0)
    for j, col in enumerate(zip(*S.entries)):
        total = sum(abs((1 if i == j else 0) - eta * s) for i, s in enumerate(col) if s or i == j)
        best = max(best, total)
    return best


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
