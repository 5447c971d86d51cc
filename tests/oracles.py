"""Routes that left the library, kept as independent references for the tests.

Each one is the code the library ran before a faster or shorter route took
its place, or a helper only the tests call.  The test modules import them by
name from this directory.
"""

import math
from fractions import Fraction

from mobiusboot.lattice import (
    DimensionError,
    _mobius_weight,
    _rgs_strings,
    falling_factorial,
)
from mobiusboot.moments import LabeledTerm, MomentPolynomial


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
    return MomentPolynomial(F.d, out, exact=F.exact)


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
