"""Property checks of the lattice walk and the operator S on generated inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusboot.lattice import (
    Partition,
    bell,
    cover_edges,
    format_partition,
    parse_partition,
)
from mobiusboot.moments import CONSTANT_TERM, LabeledTerm, MomentPolynomial
from mobiusboot.resampling import apply_S, apply_S_inverse, sampling_matrix
import oracles

# reproducible examples, no example database written next to the tests
PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def rgs_strings(draw, min_len=1, max_len=7):
    """A restricted growth string: each entry at most one above the largest before it."""
    length = draw(st.integers(min_len, max_len))
    out, width = [], 0
    for _ in range(length):
        v = draw(st.integers(0, width))
        out.append(v)
        width += v == width
    return out


@st.composite
def partition_and_grouping(draw):
    pi = Partition(draw(rgs_strings()))
    k = pi.block_count
    return pi, draw(rgs_strings(min_len=k, max_len=k))


def _relabel(pi, grouping):
    """The merge by first-appearance relabelling, as coarsenings once did it."""
    merged = [0] * pi.m
    relabel = {}
    for pos in range(pi.m):
        g = grouping[pi.rgs[pos]]
        if g not in relabel:
            relabel[g] = len(relabel)
        merged[pos] = relabel[g]
    return Partition(merged)


@PROPERTY
@given(partition_and_grouping())
def test_merge_equals_relabel_route(case):
    pi, grouping = case
    assert pi.merge(grouping) == _relabel(pi, grouping)


@PROPERTY
@given(rgs_strings().map(Partition))
def test_cover_edges_merge_each_pair_of_blocks(pi):
    blocks = pi.blocks
    want = [
        Partition.from_blocks(
            [blocks[a] + blocks[b]] + [blk for i, blk in enumerate(blocks) if i not in (a, b)]
        )
        for a in range(len(blocks))
        for b in range(a + 1, len(blocks))
    ]
    assert cover_edges([pi]) == [(pi, coarser) for coarser in want]


@PROPERTY
@given(rgs_strings(max_len=10).map(Partition))
def test_format_parse_round_trip(pi):
    assert parse_partition(format_partition(pi)) == pi


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(1, 6),
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=7),
                min_size=bell(m),
                max_size=bell(m),
            ),
        )
    )
)
def test_apply_S_equals_dense_matvec(case):
    m, n, vec = case
    S = sampling_matrix(m, n)
    F = MomentPolynomial(
        m, {LabeledTerm.from_positions(pi, range(m)): v for pi, v in zip(S.index, vec)}
    )
    G = apply_S(F, n)
    got = [G.terms.get(LabeledTerm.from_positions(pi, range(m)), 0) for pi in S.index]
    assert got == S.matvec(vec)


@st.composite
def labeled_polynomial_and_n(draw):
    """A polynomial over d <= 2 labels with at most 5 blocks per term, and N >= L."""
    d = draw(st.integers(1, 2))
    terms = {}
    for rgs in draw(st.lists(rgs_strings(max_len=5), min_size=1, max_size=4)):
        labels = draw(st.lists(st.integers(0, d - 1), min_size=len(rgs), max_size=len(rgs)))
        coeff = draw(st.fractions(min_value=-9, max_value=9, max_denominator=7))
        terms[LabeledTerm.from_positions(Partition(rgs), labels)] = coeff
    F = MomentPolynomial(d, terms)
    most = max((t.block_count for t in F.terms), default=1)
    return F, draw(st.integers(most, 8))


@PROPERTY
@given(labeled_polynomial_and_n())
def test_apply_S_inverse_inverts_apply_S(case):
    F, n = case
    assert apply_S(apply_S_inverse(F, n), n) == F
    assert apply_S_inverse(apply_S(F, n), n) == F


@st.composite
def walk_case(draw):
    """A polynomial for the merge walk, exact or float, and any N in 1..8.

    Labels come from d <= 2, so merges of one term collide on the same merged
    term; the constant term appears; N falls below a term's block count, where
    S's weights vanish.
    """
    d = draw(st.integers(1, 2))
    exact = draw(st.booleans())
    coeffs = (
        st.fractions(min_value=-9, max_value=9, max_denominator=7)
        if exact
        else st.floats(min_value=-9, max_value=9, allow_nan=False).filter(bool)
    )
    terms = {}
    for rgs in draw(st.lists(rgs_strings(max_len=5), min_size=1, max_size=5)):
        labels = draw(st.lists(st.integers(0, d - 1), min_size=len(rgs), max_size=len(rgs)))
        terms[LabeledTerm.from_positions(Partition(rgs), labels)] = draw(coeffs)
    if draw(st.booleans()):
        terms[CONSTANT_TERM] = draw(coeffs)
    return MomentPolynomial(d, terms, exact=exact), draw(st.integers(1, 8))


@settings(PROPERTY, max_examples=150)
@given(walk_case())
def test_merge_walk_matches_fraction_per_merge_oracle(case):
    F, n = case
    got, want = apply_S(F, n), oracles.apply_S(F, n)
    assert got.exact == want.exact == F.exact
    assert list(got.terms.items()) == list(want.terms.items())
    if n >= max((t.block_count for t in F.terms), default=0):
        got, want = apply_S_inverse(F, n), oracles.apply_S_inverse(F, n)
        assert list(got.terms.items()) == list(want.terms.items())


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 8))
def test_sampling_columns_sum_to_one(m, n):
    assert all(sum(col) == Fraction(1) for col in zip(*sampling_matrix(m, n).entries))
