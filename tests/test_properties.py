"""Property checks of the lattice walk and the operator S on generated inputs."""

import math
import tempfile
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusboot import artifact
from mobiusboot.lattice import (
    Partition,
    bell,
    cover_edges,
    format_partition,
    parse_partition,
)
from mobiusboot.mc import chain_expectation, exhaustive_estimate, expansion_coefficients
from mobiusboot.moments import (
    CONSTANT_TERM,
    Dataset,
    LabeledTerm,
    MomentPolynomial,
    empirical_moment,
    evaluate,
    reachable_blocks,
)
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
@given(rgs_strings(max_len=12).map(Partition))
def test_cover_edges_merge_each_pair_of_blocks(pi):
    # partitions beyond the dense cap (m > 8) too: a list of them is merged, not looked up
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

    Terms have up to 6 blocks; labels come from d <= 3, so blocks repeat and
    merges of one term collide on the same merged term; the constant term
    appears; N falls below a term's block count, where S's weights vanish.
    """
    d = draw(st.integers(1, 3))
    exact = draw(st.booleans())
    coeffs = (
        st.fractions(min_value=-9, max_value=9, max_denominator=7)
        if exact
        else st.floats(min_value=-9, max_value=9, allow_nan=False).filter(bool)
    )
    terms = {}
    for rgs in draw(st.lists(rgs_strings(max_len=6), min_size=1, max_size=5)):
        labels = draw(st.lists(st.integers(0, d - 1), min_size=len(rgs), max_size=len(rgs)))
        terms[LabeledTerm.from_positions(Partition(rgs), labels)] = draw(coeffs)
    if draw(st.booleans()):
        terms[CONSTANT_TERM] = draw(coeffs)
    return MomentPolynomial(d, terms), draw(st.integers(1, 8))


@settings(PROPERTY, max_examples=150)
@given(walk_case())
def test_merge_walk_matches_fraction_per_merge_oracle(case):
    # the union walk against one checked merge and one Fraction weight per
    # grouping: same terms in the same order, same Fractions, same float bits
    # (repr tells -0.0 from 0.0)
    F, n = case
    got, want = apply_S(F, n), oracles.apply_S(F, n)
    assert got.exact == want.exact == F.exact
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
    assert all(type(t) is LabeledTerm for t in got.terms)
    if n >= max((t.block_count for t in F.terms), default=0):
        got, want = apply_S_inverse(F, n), oracles.apply_S_inverse(F, n)
        assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
    assert reachable_blocks(F) == oracles.reachable_blocks(F)


@st.composite
def chain_case(draw):
    """An exact polynomial over d <= 2 labels, N <= 5 exact rows and k <= 3 positive steps."""
    F, _ = draw(labeled_polynomial_and_n())
    n = draw(st.integers(1, 5))
    cell = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = draw(st.lists(st.lists(cell, min_size=F.d, max_size=F.d), min_size=n, max_size=n))
    step = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
    return F, Dataset(rows), expansion_coefficients(draw(st.lists(step, max_size=3)))


@PROPERTY
@given(chain_case())
def test_exhaustive_chain_equals_operator_route(case):
    F, data, coeffs = case
    assert exhaustive_estimate(F, data, coeffs) == chain_expectation(F, coeffs, data)


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 8))
def test_sampling_columns_sum_to_one(m, n):
    assert all(sum(col) == Fraction(1) for col in zip(*sampling_matrix(m, n).entries))


# floats that overflow when multiplied (1e300), vanish (subnormals) and carry a sign (-0.0)
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.5, -3.0])
CELLS = {
    "float": st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False)),
    "fraction": st.fractions(min_value=-9, max_value=9, max_denominator=7),
    "int": st.integers(-(2**70), 2**70),
}


@st.composite
def dataset_and_block(draw):
    """A float, Fraction or int dataset and a block of up to 4 labels, repeats allowed."""
    cells = CELLS[draw(st.sampled_from(sorted(CELLS)))]
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=6))
    block = draw(st.lists(st.integers(0, d - 1), max_size=4))
    return Dataset(rows), tuple(block)


@settings(PROPERTY, max_examples=200)
@given(dataset_and_block())
def test_empirical_moment_matches_per_row_loop(case):
    data, block = case
    got, want = empirical_moment(data, block), oracles.empirical_moment(data, block)
    assert type(got) is type(want)
    assert repr(got) == repr(want)  # -0.0, inf and every last bit count


@PROPERTY
@given(dataset_and_block(), st.integers(-3, 5))
def test_empirical_moment_label_error_unchanged(case, bad):
    data, block = case
    if 0 <= bad < data.d:
        bad = data.d
    block = block + (bad,)
    with pytest.raises(ValueError) as got:
        empirical_moment(data, block)
    with pytest.raises(ValueError) as want:
        oracles.empirical_moment(data, block)
    assert str(got.value) == str(want.value)


@st.composite
def dataset_polynomial_picks(draw):
    """A dataset as dataset_and_block draws it, a polynomial over its labels, two picks."""
    data, _ = draw(dataset_and_block())
    block = st.lists(st.integers(0, data.d - 1), min_size=1, max_size=4)
    terms = draw(st.lists(st.lists(block, min_size=1, max_size=3), min_size=1, max_size=4))
    coeff = st.one_of(st.integers(-9, 9), CELLS["fraction"], EDGE_FLOATS)
    F = MomentPolynomial(data.d, {LabeledTerm(term): draw(coeff) for term in terms})
    first = draw(st.lists(st.integers(0, data.n - 1), min_size=1, max_size=6))
    second = draw(st.lists(st.integers(0, len(first) - 1), min_size=1, max_size=6))
    return data, F, first, second


@settings(PROPERTY, max_examples=200)
@given(dataset_polynomial_picks())
def test_evaluate_on_roots_and_picks_matches_row_loop(case):
    # block moments from the root's columns, against the per-row loop on the picked rows
    data, F, first, second = case
    pick = Dataset._picked(data, first)
    pick_of_pick = Dataset._picked(pick, second)
    assert pick_of_pick.root is data
    got = [evaluate(F, ds) for ds in (data, pick, pick_of_pick)]
    for value, ds in zip(got, (data, pick, pick_of_pick)):
        want = oracles.evaluate(F, Dataset(ds.rows))
        assert type(value) is type(want)
        assert repr(value) == repr(want)  # -0.0, inf, nan and every last bit count


# -- the streaming artifact writer against the one that rendered everything first --

FIXED_STAMP = datetime(2024, 5, 6, 7, 8, 9, 123456, tzinfo=timezone.utc)


class _FixedClock:
    @staticmethod
    def now(tz=None):
        return FIXED_STAMP


# text that CSV must quote, or that JSON must escape
ODD_TEXT = st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "grüße", "€😀", "\\"])
TEXT = st.one_of(ODD_TEXT, st.text(max_size=6))
PLAIN_CELLS = st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=9), TEXT)
ANY_CELLS = st.one_of(
    PLAIN_CELLS,
    st.booleans(),
    st.sampled_from([2**70, -(2**70), -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def artifacts(draw):
    """An Artifact with 0-3 tables of plain or mixed cells and a nested extra payload."""
    art = artifact.Artifact(draw(TEXT), draw(st.lists(TEXT, max_size=3)), draw(st.none() | st.integers()))
    for name in draw(st.lists(TEXT, unique=True, max_size=3)):
        headers = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())
        columns = draw(st.lists(headers, max_size=4))
        cells = draw(st.sampled_from([PLAIN_CELLS, ANY_CELLS]))
        art.add_table(name, columns, draw(st.lists(st.lists(cells, max_size=4), max_size=4)))
    extra = draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3))
    art.extra.update((k, v) for k, v in extra.items() if k not in ("provenance", "timestamp", "tables"))
    return art


@settings(PROPERTY, max_examples=200)
@given(artifacts())
def test_streamed_artifact_matches_whole_file_writer(art):
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.object(artifact, "datetime", _FixedClock):
            art.write(Path(tmp, "new"))
        oracles.write_artifact(art, Path(tmp, "old"), FIXED_STAMP.isoformat())
        for suffix in (".csv", ".json"):
            assert Path(tmp, f"new{suffix}").read_bytes() == Path(tmp, f"old{suffix}").read_bytes()
