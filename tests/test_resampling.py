"""Sampling matrix structure, factorization, norms, exhaustive oracle."""

import ast
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusboot import resampling
from mobiusboot.debias import StepSchedule
from mobiusboot.lattice import (
    CapExceededError,
    DimensionError,
    LatticeIndex,
    enumerate_partitions,
    falling_factorial,
    zeta_matrix,
)
from mobiusboot.moments import (
    Dataset,
    LabeledTerm,
    MomentPolynomial,
    evaluate,
)
from mobiusboot.resampling import (
    apply_S,
    apply_S_inverse,
    factorization,
    gamma_ratio,
    linear_regime_size,
    log_gamma_ratio,
    one_norm_direct,
    one_norm_id_minus_S,
    one_norm_id_minus_scaled,
    reduced_matrix,
    sampling_matrix,
)
import oracles
from oracles import level_sums, poly_level_sums, refines

F12 = Fraction(1, 2)


# -- exhaustive resampling oracle ----------------------------------------------
# Ground truth by brute force: the average of evaluate(F, .) over all N^N
# resamples of a dataset must equal evaluate(apply_S(F, N), .), exactly.

def _random_poly(rng, d, m_max, n_terms):
    terms = {}
    for _ in range(n_terms):
        size = rng.randint(1, m_max)
        labels = [rng.randrange(d) for _ in range(size)]
        cut = sorted(rng.sample(range(1, size), rng.randint(0, size - 1))) if size > 1 else []
        blocks, prev = [], 0
        for c in cut + [size]:
            blocks.append(labels[prev:c])
            prev = c
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = LabeledTerm(blocks)
        terms[term] = terms.get(term, 0) + coeff
    return MomentPolynomial(d, terms)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_apply_S_matches_exhaustive_resampling(n, seed):
    rng = random.Random(1000 * n + seed)
    data = Dataset(
        [[Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))] for _ in range(n)]
    )
    F = _random_poly(rng, d=2, m_max=3, n_terms=3)
    total = Fraction(0)
    for pick in product(range(n), repeat=n):
        total += evaluate(F, Dataset([data.rows[i] for i in pick]))
    assert total / n**n == evaluate(apply_S(F, n), data)


# -- matrix structure ------------------------------------------------------------

def test_matrix_m2_n2_frozen():
    S = sampling_matrix(2, 2)
    assert S.entries == [[F12, Fraction(0)], [F12, Fraction(1)]]


def test_diagonal_weights():
    for m, n in [(2, 4), (3, 4), (4, 6)]:
        S = sampling_matrix(m, n)
        for i, pi in enumerate(S.index):
            want = Fraction(falling_factorial(n, pi.block_count), n**pi.block_count)
            assert S.entries[i][i] == want
    assert sampling_matrix(2, 4).entries[0][0] == Fraction(12, 16)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_columns_sum_to_one_rows_vanish(m, n):
    S = sampling_matrix(m, n)
    size = len(S.index)
    for j in range(size):
        assert sum(S.entries[i][j] for i in range(size)) == 1
    for i, pi in enumerate(S.index):
        if pi.block_count > n:
            assert all(v == 0 for v in S.entries[i]), f"row {pi} should vanish"


def test_small_sample_kills_fine_rows_not_columns():
    # n=2 cannot respect three distinct blocks: the finest row of the m=3
    # matrix is zero, while the finest column still averages to mass one.
    S = sampling_matrix(3, 2)
    finest = S.index[0]
    assert finest.block_count == 3
    assert all(v == 0 for v in S.entries[0])
    assert sum(row[0] for row in S.entries) == 1
    assert any(row[0] != 0 for row in S.entries)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 3), (5, 4)])
def test_triangular_support(m, n):
    S = sampling_matrix(m, n)
    for i, pi in enumerate(S.index):
        for j, sigma in enumerate(S.index):
            if S.entries[i][j]:
                assert refines(sigma, pi), f"entry at ({pi}, {sigma}) off support"


# -- factorization ----------------------------------------------------------------

def test_factorization_m1():
    for n in (1, 3, 7):
        R, C, check = factorization(1, n)
        assert R == [n] and C == [n] and check
        assert sampling_matrix(1, n).entries == [[Fraction(1)]]


def test_factorization_m2_n2():
    R, C, check = factorization(2, 2)
    assert R == [2, 2]
    assert C == [4, 2]
    assert check


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_factorization_exact(m, n):
    _, _, check = factorization(m, n)
    assert check


def test_factorization_orientation_is_pinned():
    # the diagonals do not commute past zeta: putting C^{-1} on the row side
    # breaks the identity, so the orientation is load-bearing.
    S = sampling_matrix(2, 2)
    zeta = zeta_matrix(2)
    R, C, _ = factorization(2, 2)
    wrong = [
        [zeta.entries[i][j] * R[j] / C[i] for j in range(2)] for i in range(2)
    ]
    assert wrong != S.entries


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sampling_matrix_matches_per_cell_oracle(m):
    for n in (1, 2, 3, 5, 8):
        got = sampling_matrix(m, n).entries
        want = oracles.sampling_entries(m, n)
        assert got == want, n
        # a Fraction at every comparable cell, zero weights included; int 0 elsewhere
        assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want], n


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sampling_and_level_matrix_stored_cells_match_per_cell_oracle(m):
    support = zeta_matrix(m).support()
    for n in sorted({1, 2, max(m - 1, 1), m, m + 3}):
        S = sampling_matrix(m, n)
        assert S.columns is support
        # a Fraction at every comparable cell, zero weights (n < #pi) included
        oracles.assert_stored_cells(S, oracles.sampling_entries(m, n))
    for n in (max(m - 2, 1), m + 3):
        oracles.assert_stored_cells(reduced_matrix(m, n), oracles.reduced_entries(m, n))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_factorization_matches_fraction_oracle(m):
    for n in (1, 2, 3, 5, 8):
        R, C, check = factorization(m, n)
        assert (R, C, check) == oracles.factorization(m, n)
        assert check and all(type(x) is Fraction for x in R + C)


def _tampered_sampling_matrix(kind):
    """sampling_matrix with one comparable entry moved by 1/N^b, or one structural zero made nonzero."""
    real = resampling.sampling_matrix

    def build(m, n):
        S = real(m, n)
        entries = [list(row) for row in S.entries]
        if kind == "shift":
            # coarsest row, finest column: weight N/N^m, b = m blocks merged
            entries[-1][0] += Fraction(1, n**m)
        else:
            # finest row, coarsest column: the finest partition is not coarser
            entries[0][-1] = Fraction(1, n)
        return oracles.matrix_from_rows(S.index, entries)

    return build


@pytest.mark.parametrize("kind", ["shift", "structural_zero"])
@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 5), (4, 3)])
def test_factorization_detects_tampered_entry(monkeypatch, kind, m, n):
    monkeypatch.setattr(resampling, "sampling_matrix", _tampered_sampling_matrix(kind))
    assert factorization(m, n)[2] is False
    assert oracles.factorization(m, n)[2] is False


# -- apply_S ----------------------------------------------------------------------

def test_apply_S_frozen_column():
    F = MomentPolynomial(1, {LabeledTerm([[0], [0]]): 1})
    G = apply_S(F, 2)
    assert G.terms == {
        LabeledTerm([[0], [0]]): F12,
        LabeledTerm([[0, 0]]): F12,
    }


def test_apply_S_constant_fixed():
    F = MomentPolynomial(2, {LabeledTerm(()): Fraction(5, 3)})
    assert apply_S(F, 4) == F


def _embed(vec, index):
    m = index.m
    return MomentPolynomial(
        m,
        {
            LabeledTerm.from_positions(pi, range(m)): v
            for pi, v in zip(index, vec)
            if v
        },
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_apply_S_agrees_with_matrix(m, n):
    rng = random.Random(10 * m + n)
    S = sampling_matrix(m, n)
    vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in S.index]
    G = apply_S(_embed(vec, S.index), n)
    got = [
        G.terms.get(LabeledTerm.from_positions(pi, range(m)), Fraction(0))
        for pi in S.index
    ]
    assert got == S.matvec(vec)


def test_apply_S_float_mode():
    F = MomentPolynomial(1, {LabeledTerm([[0], [0]]): 1.0})
    G = apply_S(F, 2)
    assert not G.exact
    assert G.terms[LabeledTerm([[0, 0]])] == pytest.approx(0.5)


# -- merge plans ------------------------------------------------------------------
# apply_S and apply_S_inverse replay one memoised plan per (terms, kind, N); a
# replay must give what the checked per-merge walk of tests/oracles.py gives:
# the same terms in the same order, the same Fractions, the same float bits.

def _same_walk(got, want):
    assert got.d == want.d and got.exact == want.exact
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def _check_both(F, n):
    _same_walk(apply_S(F, n), oracles.apply_S(F, n))
    _same_walk(apply_S_inverse(F, n), oracles.apply_S_inverse(F, n))


def _plan_case():
    # d = 2, so merges of one term collide; five blocks at most, so N = 5
    # keeps S^{-1} defined and N = 3 zeroes S's weights into 4 or 5 blocks
    return _random_poly(random.Random(7), 2, 5, 12)


def test_merge_plan_cold_and_warm_calls_match_oracle():
    F = _plan_case()
    resampling._merge_plan.cache_clear()
    _check_both(F, 5)
    hits = resampling._merge_plan.cache_info().hits
    _check_both(F, 5)
    assert resampling._merge_plan.cache_info().hits == hits + 2


def test_merge_plan_same_terms_in_another_order():
    F = _plan_case()
    apply_S(F, 5)
    G = MomentPolynomial(F.d, dict(reversed(F.terms.items())))
    assert list(G.terms) != list(F.terms)
    _check_both(G, 5)
    assert list(apply_S(G, 5).terms) != list(apply_S(F, 5).terms)


def test_merge_plan_same_support_at_another_n():
    F = _plan_case()
    for n in (5, 3, 5, 7):
        _same_walk(apply_S(F, n), oracles.apply_S(F, n))
    _check_both(F, 7)


def test_merge_plan_float_coefficients_keep_their_bits():
    F = _plan_case()
    G = MomentPolynomial(F.d, {t: float(c) / 3 for t, c in F.terms.items()})
    for n in (3, 5):
        apply_S(F, n)  # the exact twin's plan serves the float polynomial too
        _same_walk(apply_S(G, n), oracles.apply_S(G, n))
        _same_walk(apply_S_inverse(G, 5), oracles.apply_S_inverse(G, 5))


@pytest.mark.parametrize("scalar", [Fraction, float])
def test_merge_plan_drops_a_coefficient_that_cancels(scalar):
    # S moves 1/4 of x0 x1 onto E[x0 x1], which the second term takes away
    x0x1, pair = LabeledTerm([[0], [1]]), LabeledTerm([[0, 1]])
    F = MomentPolynomial(2, {x0x1: scalar(1), pair: scalar(-1) / 4})
    for _ in range(2):
        G = apply_S(F, 4)
        assert G.terms == {x0x1: Fraction(3, 4)}
        _same_walk(G, oracles.apply_S(F, 4))


def test_merge_plan_memo_stays_bounded():
    cache = resampling._merge_plan
    for seed in range(cache.cache_parameters()["maxsize"] + 3):
        F = _random_poly(random.Random(seed), 2, 4, 3)
        _check_both(F, 4)
        assert cache.cache_info().currsize <= cache.cache_parameters()["maxsize"]


def test_merge_plan_of_empty_polynomial():
    x = LabeledTerm([[0]])
    G = MomentPolynomial(1, {x: 0.5})
    for F in (MomentPolynomial(1, {}), G - G):
        _check_both(F, 3)


# -- reduced matrix ---------------------------------------------------------------

def test_reduced_m2_n2_frozen():
    R = reduced_matrix(2, 2)
    assert R.entries == [[Fraction(1), F12], [Fraction(0), F12]]


def test_reduced_diagonal_matches_S_levels():
    for m, n in [(3, 3), (4, 5), (5, 2)]:
        R = reduced_matrix(m, n)
        S = sampling_matrix(m, n)
        for i, pi in enumerate(S.index):
            b = pi.block_count
            assert R.entries[b - 1][b - 1] == S.entries[i][i]


@pytest.mark.parametrize(
    "m, n, bits", [(241, 1000, 2410), (267, 300, 2403), (3000, 3, 36000), (1, 2**2400, 2401)]
)
def test_reduced_matrix_over_the_cap_builds_no_cell(monkeypatch, m, n, bits):
    # a cell has up to about m x bit_length(max(m, N)) bits: m = 1600 at N = 7
    # took 10.6 s, and m = 3000 at N = 3 had not ended after 20 s
    def stirling2_not_wanted(j, i):
        raise AssertionError("a cell was built before the cap")

    monkeypatch.setattr(resampling, "stirling2", stirling2_not_wanted)
    with pytest.raises(CapExceededError) as exc:
        reduced_matrix(m, n)
    assert str(exc.value).endswith(f" = {bits} bits; at most 2400 are supported")


def test_reduced_matrix_at_the_cap():
    # N^m bounds a cell's denominator: 2400 bits is 723 decimal digits
    assert resampling.REDUCED_CAP == 2400
    n = 2**1199
    R = reduced_matrix(2, n)
    assert R.values == [[1, Fraction(1, n)], [Fraction(n - 1, n)]]


@pytest.mark.parametrize("m,n", [(3, 2), (4, 4), (5, 3), (6, 7)])
def test_level_sums_commute(m, n):
    rng = random.Random(17 * m + n)
    S = sampling_matrix(m, n)
    R = reduced_matrix(m, n)
    for _ in range(3):
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in S.index]
        assert level_sums(S.matvec(vec), S.index) == R.matvec(level_sums(vec, S.index))


def test_poly_level_sums_tracks_apply_S():
    m, n = 4, 3
    rng = random.Random(99)
    index = LatticeIndex(m, enumerate_partitions(m))
    vec = [Fraction(rng.randint(-5, 5)) for _ in index]
    F = _embed(vec, index)
    got = poly_level_sums(apply_S(F, n), m)
    want = reduced_matrix(m, n).matvec(poly_level_sums(F, m))
    assert got == want


# -- norms and ratios -------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0, -1.0, math.inf, math.nan])
def test_linear_regime_size_rejects_alpha(alpha):
    # nan passed alpha <= 0 and raised from math.ceil, inf raised OverflowError
    with pytest.raises(ValueError, match=f"^alpha must be a finite number > 0, got {alpha}$"):
        linear_regime_size(3, alpha)


def test_one_norm_closed_form_values():
    assert one_norm_id_minus_S(2, 2) == 1
    assert one_norm_id_minus_S(1, 5) == 0
    assert one_norm_id_minus_S(4, 3) == 2
    assert one_norm_id_minus_S(3, 9) == 2 * (1 - Fraction(9 * 8 * 7, 9**3))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_one_norm_direct_equals_closed_form(m):
    for n in (m, m + 1, m + 4, 10):
        assert one_norm_direct(m, n) == one_norm_id_minus_S(m, n)
    if m > 1:
        assert one_norm_direct(m, m - 1) == 2


def test_scaled_one_norm_reduces_to_plain():
    assert one_norm_id_minus_scaled(3, 4, Fraction(1)) == one_norm_id_minus_S(3, 4)
    assert one_norm_id_minus_scaled(3, 4, Fraction(0)) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_scaled_one_norm_closed_form_matches_dense(m):
    for n in sorted({1, 2, 3, m, m + 2, 9}):
        etas = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2)]
        if m <= n:
            # the default schedule's steps 1/gamma_i, the largest of them at i = m
            etas += [Fraction(n**i, falling_factorial(n, i)) for i in range(1, m + 1)]
        for eta in etas:
            assert one_norm_id_minus_scaled(m, n, eta) == one_norm_direct(m, n, eta), (n, eta)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_one_norm_direct_matches_full_scan_oracle(m):
    for n in (1, 2, 3, 5, 8):
        etas = [0, Fraction(1, 3), 1, Fraction(7, 2), -1, Fraction(-5, 3)]
        if m <= n:
            etas += StepSchedule.default(n, m).etas
        for eta in etas:
            assert one_norm_direct(m, n, eta) == oracles.one_norm_direct(m, n, eta), (n, eta)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_one_norm_direct_float_steps_match_full_scan_oracle(m):
    for n in (1, 3, 8):
        for eta in (0.3, 1.0, 2.75, -0.6):
            assert repr(one_norm_direct(m, n, eta)) == repr(oracles.one_norm_direct(m, n, eta))


def test_one_norm_sums_each_column_in_row_order():
    # column 2 adds 1.0, 1.0 and then its diagonal's 1e16: in row order the sum
    # is 1e16 + 2, in any order that takes the diagonal first 1e16 + 1 rounds
    # to 1e16 before the second 1.0 comes in
    entries = [[0.0, 0, -1.0], [0, 0.5, 1.0], [0.125, 0.25, -1e16]]
    S = oracles.matrix_from_rows(range(1, 4), entries)
    want = max(
        sum(abs((1 if i == j else 0) - 1.0 * entries[i][j]) for i in range(3)) for j in range(3)
    )
    assert want == 1e16 + 2
    assert repr(resampling._one_norm(S, 1.0)) == repr(want)


def _dense_one_norm(entries, eta):
    """Each dense column of Id - eta*entries summed in row order from int 0."""
    size = len(entries)
    best = Fraction(0)
    for j in range(size):
        total = 0
        for i in range(size):
            total += abs((1 if i == j else 0) - eta * entries[i][j])
        best = max(best, total)
    return best


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda size: st.lists(
            st.lists(
                st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=9)),
                min_size=size, max_size=size,
            ),
            min_size=size, max_size=size,
        )
    ),
    st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=8)),
)
def test_one_norm_exact_cells_match_dense_scan(entries, eta):
    # any exact cells, zeros and cells off the order included, and any exact eta
    S = oracles.matrix_from_rows(range(1, len(entries) + 1), entries)
    got = resampling._one_norm(S, eta)
    assert type(got) is Fraction and got == _dense_one_norm(entries, eta)


def test_one_norm_exact_eta_on_float_cells_keeps_row_order():
    # an int eta on float cells is float work: the same sums as a float eta
    entries = [[0.0, 0, -1.0], [0, 0.5, 1.0], [0.125, 0.25, -1e16]]
    S = oracles.matrix_from_rows(range(1, 4), entries)
    assert repr(resampling._one_norm(S, 1)) == repr(_dense_one_norm(entries, 1)) == repr(1e16 + 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sampling_matrix_is_int_zero_off_support(m):
    support = zeta_matrix(m).support()
    for n in range(1, 7):
        S = sampling_matrix(m, n)
        assert S.support() is support
        for row, cols in zip(S.entries, support):
            off = set(range(len(row))) - set(cols)
            assert all(type(row[j]) is int and row[j] == 0 for j in off), n
        R = reduced_matrix(m, n)
        for i, (row, cols) in enumerate(zip(R.entries, R.support())):
            assert cols == tuple(range(i, m))
            assert not any(row[:i])


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 5)])
def test_one_norm_direct_reads_a_nonzero_off_the_order(monkeypatch, m, n):
    # finest row, coarsest column: a cell off the order still counts in its column
    real = resampling.sampling_matrix

    def build(m, n):
        S = real(m, n)
        entries = [list(row) for row in S.entries]
        entries[0][-1] = Fraction(5, 2)
        return oracles.matrix_from_rows(S.index, entries)

    monkeypatch.setattr(resampling, "sampling_matrix", build)
    entries = build(m, n).entries
    size = len(entries)
    want = max(
        sum(abs((1 if i == j else 0) - 3 * entries[i][j]) for i in range(size))
        for j in range(size)
    )
    assert one_norm_direct(m, n, 3) == want > oracles.one_norm_direct(m, n, 3)


def test_scaled_one_norm_beyond_dense_cap():
    # no matrix is built, so the order is not held to the lattice cap
    assert one_norm_id_minus_scaled(12, 5, Fraction(1)) == 2
    assert one_norm_id_minus_scaled(12, 30, 1) == one_norm_id_minus_S(12, 30)


def test_matvec_rejects_wrong_length():
    with pytest.raises(DimensionError):
        sampling_matrix(3, 2).matvec([1, 2, 3])
    with pytest.raises(DimensionError):
        reduced_matrix(3, 2).matvec([1, 2])


def test_gamma_ratio_values():
    assert gamma_ratio(1, 7) == 1
    assert gamma_ratio(3, 3) == Fraction(6, 27)
    assert gamma_ratio(5, 4) == 0
    assert log_gamma_ratio(4, 2) == -math.inf
    assert math.exp(log_gamma_ratio(3, 9)) == pytest.approx(float(gamma_ratio(3, 9)), rel=1e-12)


def test_linear_regime_alpha8():
    for m in (1, 2, 5, 13, 27, 50):
        assert math.exp(log_gamma_ratio(m, max(8 * m * m, m + 1))) >= 0.75


def test_linear_regime_does_not_promise_halving():
    # alpha = 1/2, m = 2: N = 3 gives gamma_2 = 2/3, yet one step of Id - S
    # can shrink the bias norm only to 2/3 of itself, not to half
    assert gamma_ratio(2, 3) == Fraction(2, 3) < Fraction(3, 4)
    assert one_norm_id_minus_S(2, 3) == one_norm_direct(2, 3) == Fraction(2, 3)


def test_linear_regime_alpha1_boundary():
    # alpha=1 at m=10 sits between exp(-1/4 - 1/alpha) and the 3/4 mark
    ratio = math.exp(log_gamma_ratio(10, 100))
    assert math.exp(-1.25) <= ratio < 0.75


_VARIANCE = MomentPolynomial(1, {LabeledTerm([[0, 0]]): 1, LabeledTerm([[0], [0]]): -1})


@pytest.mark.parametrize(
    "operator",
    [
        lambda n: apply_S(_VARIANCE, n),
        lambda n: apply_S_inverse(_VARIANCE, n),
        lambda n: sampling_matrix(2, n),
        lambda n: reduced_matrix(2, n),
        lambda n: gamma_ratio(1, n),
        lambda n: log_gamma_ratio(1, n),
    ],
    ids=["apply_S", "apply_S_inverse", "sampling_matrix", "reduced_matrix", "gamma_ratio",
         "log_gamma_ratio"],
)
@pytest.mark.parametrize(
    "n, message",
    [
        (True, "sample size must be an int, got True"),
        (2.0, "sample size must be an int, got 2.0"),
        (2.5, "sample size must be an int, got 2.5"),
        (0, "sample size must be positive, got 0"),
        (-3, "sample size must be positive, got -3"),
    ],
    ids=["True", "2.0", "2.5", "0", "-3"],
)
def test_operators_check_the_sample_size_as_step_schedule_does(operator, n, message):
    # apply_S(F, True) and sampling_matrix(2, True) computed at N = 1, a float
    # N met a bare TypeError from math.perm, and log_gamma_ratio(1, 0) was -inf
    with pytest.raises(ValueError, match=f"^{message}$"):
        operator(n)


def test_operators_check_the_order():
    for operator in (reduced_matrix, gamma_ratio, log_gamma_ratio):
        with pytest.raises(ValueError, match="order m must be positive, got 0"):
            operator(0, 3)


def test_resampling_keeps_one_law_per_operator_and_one_one_norm_loop():
    # each operator is one weight-law function: no string-keyed weight table,
    # the dense S and apply_S read the same S law, apply_S_inverse reads a
    # law too, and one function walks a matrix's cells for the one-norm
    tree = ast.parse(Path(resampling.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and any(isinstance(key, ast.Constant) and isinstance(key.value, str) for key in node.keys)
    ]

    def law_passed(caller, callee):
        # the law argument of caller's call to callee, as a module-level function name
        (call,) = [
            node for node in ast.walk(functions[caller])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == callee
        ]
        law = call.args[-1]
        if isinstance(law, ast.Call) and ast.unparse(law.func) == "partial":
            law = law.args[0]
        assert isinstance(law, ast.Name) and law.id in functions, ast.unparse(call)
        return law.id

    s_law = law_passed("sampling_matrix", "_incidence_matrix")
    assert law_passed("apply_S", "_merge_walk") == s_law
    assert law_passed("apply_S_inverse", "_merge_walk") != s_law
    cell_loops = {
        name
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.For) and ".values" in ast.unparse(node.iter)
    }
    assert cell_loops == {"_one_norm"}


def test_merge_walk_rejects_a_term_over_the_block_cap_before_any_table():
    # _groupings(11) takes about 2 s and 254 MB; a term of 11 blocks now
    # raises before the merge walk builds a grouping table or a union table
    from mobiusboot.lattice import BLOCK_CAP, CapExceededError, _groupings, check_block_cap

    assert BLOCK_CAP == 10
    check_block_cap([LabeledTerm([[i] for i in range(10)])])
    F = MomentPolynomial(11, {LabeledTerm([[i] for i in range(11)]): 1, LabeledTerm([[0]]): 2})
    before = _groupings.cache_info()
    for operator in (apply_S, apply_S_inverse):
        with pytest.raises(CapExceededError, match="^a term has 11 blocks; at most 10 per term"):
            operator(F, 20)
    assert _groupings.cache_info() == before
