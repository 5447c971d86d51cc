"""Moment polynomial evaluation, unbiased evaluation, conversions."""

import ast
import math
import random
import re
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from mobiusboot.lattice import (
    DimensionError,
    LatticeIndex,
    Partition,
    enumerate_partitions,
    falling_factorial,
    mobius_matrix,
    zeta_matrix,
)
from mobiusboot.moments import (
    CONSTANT_TERM,
    Dataset,
    InfeasibleError,
    LabeledTerm,
    MissingMomentError,
    MomentPolynomial,
    MomentTable,
    dataset_from_csv,
    empirical_moment,
    evaluate,
    normal_moment_table,
    polynomial_from_dict,
    scalar_from_json,
    polynomial_to_dict,
    reachable_blocks,
)
from mobiusboot.resampling import apply_S, unbiased_evaluate
import oracles
from oracles import merge, refines


def variance_poly():
    return MomentPolynomial(1, {LabeledTerm([[0, 0]]): 1, LabeledTerm([[0], [0]]): -1})


TWO_POINT = Dataset([[1], [3]])


# -- U-statistic oracle ------------------------------------------------------
# The permutation route to the unbiased estimator: average each term's product
# over injective block-to-row assignments.  Cost grows like falling(N, #blocks);
# unbiased_evaluate must agree with it exactly on exact data.

def symmetric_statistic(data, term):
    """Average of the term's product over injective block-to-row assignments."""
    k = term.block_count
    count = falling_factorial(data.n, k)
    if count == 0:
        raise InfeasibleError(
            f"symmetric statistic needs N >= {k} distinct rows, got N={data.n}"
        )
    total = 0
    for assignment in permutations(range(data.n), k):
        p = 1
        for block, i in zip(term.blocks, assignment):
            row = data.rows[i]
            for lab in block:
                p = p * row[lab]
        total += p
    return Fraction(total, count) if data.exact else total / count


def permutation_unbiased(F, data):
    """Sum of coefficients times symmetric statistics."""
    return sum((coeff * symmetric_statistic(data, term) for term, coeff in F.terms.items()), 0)


def _random_labeled_poly(rng, d, max_order):
    """A few terms with random block shapes and labels below d, plus a constant."""
    terms = {CONSTANT_TERM: Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
    for _ in range(rng.randint(1, 4)):
        m = rng.randint(1, max_order)
        pi = rng.choice(enumerate_partitions(m).partitions)
        term = LabeledTerm.from_positions(pi, [rng.randrange(d) for _ in range(m)])
        terms[term] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return MomentPolynomial(d, terms)


@pytest.mark.parametrize("d", [1, 2])
def test_unbiased_evaluate_matches_permutation_oracle(d):
    rng = random.Random(40 + d)
    for _ in range(25):
        F = _random_labeled_poly(rng, d, 4)
        most = max(t.block_count for t in F.terms)
        n = rng.randint(most, 6)
        data = Dataset(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)] for _ in range(n)]
        )
        assert unbiased_evaluate(F, data) == permutation_unbiased(F, data)


# -- exhaustive unbiasedness oracle -------------------------------------------
# Independent check, enumerated from scratch: averaging a symmetric statistic
# over every ordered iid sample of size N from a finite population must equal
# the product of the population block moments.  Everything else leans on this.

def _population_moment(pop, block):
    return sum(
        Fraction(prod_over(row, block)) for row in pop.rows
    ) / pop.n


def prod_over(row, block):
    p = 1
    for lab in block:
        p *= row[lab]
    return p


@pytest.mark.parametrize(
    "term",
    [
        LabeledTerm([[0]]),
        LabeledTerm([[0, 0]]),
        LabeledTerm([[0], [1]]),
        LabeledTerm([[0, 1], [0]]),
        LabeledTerm([[0], [0], [1]]),
    ],
)
def test_symmetric_statistic_exhaustively_unbiased(term):
    pop = Dataset([[1, 2], [3, -1], [0, 4]])
    n = 3
    total = Fraction(0)
    for pick in product(range(pop.n), repeat=n):
        sample = Dataset([pop.rows[i] for i in pick])
        total += symmetric_statistic(sample, term)
    mean = total / pop.n**n
    want = Fraction(1)
    for block in term.blocks:
        want *= _population_moment(pop, block)
    assert mean == want, f"E[symmetric stat] = {mean}, population product = {want}"


def test_unbiased_evaluate_exhaustively_unbiased():
    pop = Dataset([[2], [-1], [1]])
    F = variance_poly()
    n = 3
    total = Fraction(0)
    for pick in product(range(pop.n), repeat=n):
        sample = Dataset([pop.rows[i] for i in pick])
        total += unbiased_evaluate(F, sample)
    assert total / pop.n**n == evaluate(F, MomentTable.from_dataset(pop, [(0,), (0, 0)]))


# -- frozen small cases --------------------------------------------------------

def test_two_point_values():
    F = variance_poly()
    assert empirical_moment(TWO_POINT, (0, 0)) == 5
    assert symmetric_statistic(TWO_POINT, LabeledTerm([[0], [0]])) == 3
    assert evaluate(F, TWO_POINT) == 1
    assert unbiased_evaluate(F, TWO_POINT) == 2


def test_unbiased_matches_textbook_sample_variance():
    rng = random.Random(7)
    F = variance_poly()
    for _ in range(20):
        n = rng.randint(2, 6)
        data = Dataset([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))] for _ in range(n)])
        xs = [r[0] for r in data.rows]
        mean = sum(xs) / n
        s2 = sum((x - mean) ** 2 for x in xs) / (n - 1)
        assert unbiased_evaluate(F, data) == s2


def test_symmetric_statistic_infeasible_when_sample_too_small():
    term = LabeledTerm([[0], [0], [0]])
    with pytest.raises(InfeasibleError):
        symmetric_statistic(TWO_POINT, term)
    F = MomentPolynomial(1, {term: 1, LabeledTerm([[0]]): 1})
    with pytest.raises(InfeasibleError, match="N >= 3 distinct rows, got N=2"):
        unbiased_evaluate(F, TWO_POINT)


def test_constant_term_statistics():
    assert symmetric_statistic(TWO_POINT, CONSTANT_TERM) == 1
    F = MomentPolynomial(1, {CONSTANT_TERM: Fraction(3, 4)})
    assert evaluate(F, TWO_POINT) == Fraction(3, 4)
    assert unbiased_evaluate(F, TWO_POINT) == Fraction(3, 4)


def test_unbiased_evaluate_rejects_moment_table():
    with pytest.raises(TypeError, match="MomentTable"):
        unbiased_evaluate(variance_poly(), normal_moment_table(1, 2))


def test_row_permutation_invariance():
    data = Dataset([[1, 2], [4, -3], [2, 2], [0, 1]])
    shuffled = Dataset([data.rows[i] for i in (2, 0, 3, 1)])
    term = LabeledTerm([[0, 1], [0]])
    assert symmetric_statistic(data, term) == symmetric_statistic(shuffled, term)
    assert empirical_moment(data, (0, 1)) == empirical_moment(shuffled, (0, 1))


# -- term canonicalization -----------------------------------------------------

def test_labeled_term_canonical_form():
    assert LabeledTerm([[1, 0], [2]]) == LabeledTerm([[2], [0, 1]])
    assert hash(LabeledTerm([[1, 0]])) == hash(LabeledTerm([[0, 1]]))
    assert LabeledTerm([[2], [0, 1]]).blocks == ((2,), (0, 1))


def test_labeled_term_is_the_tuple_of_its_blocks():
    term = LabeledTerm([[1, 0], [2]])
    assert term == ((2,), (0, 1)) and hash(term) == hash(((2,), (0, 1)))
    with pytest.raises(AttributeError):
        term.blocks = ()
    with pytest.raises(AttributeError):
        term.label = 0


@pytest.mark.parametrize("blocks", [[[True]], [[0, False]], [[-1]], [[1.0]], [[]]],
                         ids=["true", "false", "negative", "float", "empty-block"])
def test_labeled_term_rejects_bad_labels(blocks):
    with pytest.raises(ValueError):
        LabeledTerm(blocks)


def test_from_positions():
    pi = Partition((0, 1, 0))
    term = LabeledTerm.from_positions(pi, [5, 1, 5])
    assert term.blocks == ((1,), (5, 5))
    with pytest.raises(ValueError):
        LabeledTerm.from_positions(pi, [1, 2])


def test_merge_blocks():
    term = LabeledTerm([[0], [1], [0, 2]])
    unions = term.unions()
    assert unions == [(), (0,), (1,), (0, 1), (0, 2), (0, 0, 2), (0, 1, 2), (0, 0, 1, 2)]
    merged = merge(term, ((0, 2), (1,)))
    assert merged == LabeledTerm([[0, 0, 2], [1]])
    assert merged.blocks == ((1,), (0, 0, 2))
    assert type(merged) is LabeledTerm
    assert merge(term, ((0, 1, 2),)) == LabeledTerm([[0, 0, 1, 2]])
    # the walk merges along rgs (0, 1, 0), masks 0b101 and 0b010, with weight
    # falling(2, 2) / 2**3
    assert apply_S(MomentPolynomial(3, {term: 1}), 2).terms[merged] == Fraction(1, 4)


def test_polynomial_cleanup_and_arithmetic():
    F = MomentPolynomial(2, {LabeledTerm([[0]]): Fraction(1, 2), LabeledTerm([[1]]): 0})
    assert len(F.terms) == 1 and F.exact
    G = F + F
    assert G.terms[LabeledTerm([[0]])] == 1
    assert (-1 * F + F).terms == {}
    with pytest.raises(ValueError):
        MomentPolynomial(1, {LabeledTerm([[1]]): 1})
    # raw keys with one normal form add up, and cancel to nothing
    xy = LabeledTerm([[0], [1]])
    H = MomentPolynomial(2, {((1,), (0,)): 1, ((0,), (1,)): Fraction(1, 2)})
    assert H.terms == {xy: Fraction(3, 2)} and type(H.terms[xy]) is Fraction
    assert MomentPolynomial(2, {((1,), (0,)): 0.25, xy: -0.25}).terms == {}


def test_reachable_blocks_variance():
    assert reachable_blocks(variance_poly()) == {(0,), (0, 0)}


# -- moment tables -------------------------------------------------------------

def test_table_matches_dataset_evaluation():
    data = Dataset([[1, 0], [2, 2], [-1, 3]])
    F = MomentPolynomial(
        2,
        {
            LabeledTerm([[0, 1]]): Fraction(2),
            LabeledTerm([[0], [1]]): Fraction(-1, 3),
            CONSTANT_TERM: 5,
        },
    )
    table = MomentTable.from_dataset(data, reachable_blocks(F))
    assert evaluate(F, table) == evaluate(F, data)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_table_from_dataset_leaves_the_roots_columns_as_they_were(exact):
    # tabulating every reachable block kept one column of N products per
    # block on the root, though the chains then read only F's own blocks
    rng = random.Random(70)
    cell = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))) if exact else rng.random
    data = Dataset([[cell() for _ in range(3)] for _ in range(12)])
    F = MomentPolynomial(3, {LabeledTerm([[0], [1, 2], [2]]): 1, LabeledTerm([[0, 0]]): -1})
    evaluate(MomentPolynomial(3, {LabeledTerm([[0], [1, 2]]): 1}), data)
    held = dict(data.columns)
    pick = Dataset._picked(data, [rng.randrange(12) for _ in range(7)])
    for ds in (data, pick):
        table = MomentTable.from_dataset(ds, reachable_blocks(F))
        assert data.columns.keys() == held.keys()
        assert all(data.columns[block] is column for block, column in held.items())
        fresh = Dataset(ds.rows)
        assert table.values.keys() == reachable_blocks(F)
        assert all(repr(v) == repr(empirical_moment(fresh, b)) for b, v in table.values.items())


def test_normal_moments_follow_one_rule_for_every_table():
    # normal_moment_table and the tables built from chosen blocks read one
    # per-block rule: (c-1)!! per label of even count c, 0 for an odd count
    full = normal_moment_table(3, 6)
    blocks = [(0,), (1, 1), (0, 0, 2, 2), (0, 1, 1, 1), (2, 2, 2, 2, 2, 2)]
    chosen = MomentTable.normal(3, blocks)
    assert list(chosen.values) == blocks
    assert all(repr(chosen.values[b]) == repr(full.values[b]) for b in blocks)
    assert [chosen.values[b] for b in blocks] == [0, 1, 1, 0, 15]
    with pytest.raises(ValueError, match="d must be a positive integer"):
        MomentTable.normal(0, blocks)


def test_missing_moment_raises():
    table = MomentTable(1, {(0,): 0})
    with pytest.raises(MissingMomentError):
        evaluate(variance_poly(), table)


@pytest.mark.parametrize(
    "d, values, message",
    [
        (0, {(0,): 1}, "d must be a positive integer, got 0"),
        (True, {(0,): 1}, "d must be a positive integer, got True"),
        ("1", {(0,): 1}, "d must be a positive integer, got '1'"),
        (1, {(1,): 1}, "block [1] is not a list of labels in 0..0"),
        (2, {(0, -1): 1}, "block [0, -1] is not a list of labels in 0..1"),
        (2, {(0, True): 1}, "block [0, True] is not a list of labels in 0..1"),
        (2, {(0, 1): 1, (1, 0): 2}, "block [0, 1] is listed twice"),
        (2, [([1, 0], 1), ([1, 0], 2)], "block [0, 1] is listed twice"),
        (1, {(0,): math.nan}, "block [0] moment nan is not finite"),
        (2, {(1, 0): -math.inf}, "block [0, 1] moment -inf is not finite"),
        (1, {(0,): 1, (0, 0): np.float64("inf")}, "block [0, 0] moment inf is not finite"),
        (1, [((0,), np.float32("nan"))], "block [0] moment nan is not finite"),
    ],
    ids=["d-zero", "d-bool", "d-str", "label-out-of-range", "label-negative", "label-bool",
         "duplicate-block", "duplicate-pair", "nan", "-inf", "float64-inf", "float32-nan"],
)
def test_moment_table_rejects_malformed_tables(d, values, message):
    with pytest.raises(ValueError) as exc:
        MomentTable(d, values)
    assert str(exc.value) == message


def test_moment_table_stores_numpy_scalars_as_python_scalars():
    # Dataset's cell rule: an int64 table is exact and takes the integer route,
    # whose value is that of the same table of Python ints
    ints = MomentTable(1, {(0,): np.int64(3), (0, 0): np.int64(2**40)})
    assert ints.exact
    assert [type(v) for v in ints.values.values()] == [int, int]
    assert evaluate(variance_poly(), ints) == Fraction(2**40 - 9)
    assert evaluate(variance_poly(), ints) == evaluate(
        variance_poly(), MomentTable(1, {(0,): 3, (0, 0): 2**40})
    )
    floats = MomentTable(1, {(0,): np.float64(0.5), (0, 0): np.float64(-0.0)})
    assert not floats.exact
    assert [type(v) for v in floats.values.values()] == [float, float]
    assert repr(evaluate(variance_poly(), floats)) == "-0.25"


@pytest.mark.parametrize("d", [0, "1", 1.0])
def test_normal_moment_table_rejects_a_d_that_is_not_a_positive_int(d):
    with pytest.raises(ValueError, match="d must be a positive integer"):
        normal_moment_table(d, 2)


@pytest.mark.parametrize("d", [0, 1.5, True, 2.0])
def test_moment_polynomial_rejects_a_d_that_is_not_a_positive_int(d):
    with pytest.raises(ValueError, match="d must be a positive integer"):
        MomentPolynomial(d, {})


def test_normal_moment_table():
    table = normal_moment_table(2, 6)
    assert table.moment(()) == 1
    assert table.moment((0,)) == 0
    assert table.moment((0, 0)) == 1
    assert table.moment((0, 0, 0)) == 0
    assert table.moment((0, 0, 0, 0)) == 3
    assert table.moment((0,) * 6) == 15
    assert table.moment((0, 1)) == 0
    assert table.moment((0, 0, 1, 1)) == 1
    assert table.moment((0, 0, 0, 1)) == 0
    assert table.exact


# -- exact vs float mode -------------------------------------------------------

def test_scalar_modes():
    exact = Dataset([[Fraction(1, 3)], [Fraction(2, 3)]])
    val = empirical_moment(exact, (0, 0))
    assert isinstance(val, Fraction) and val == Fraction(5, 18)
    approx = Dataset([[0.5], [1.5]])
    assert isinstance(empirical_moment(approx, (0,)), float)
    assert not MomentPolynomial(1, {LabeledTerm([[0]]): 0.5}).exact


def test_polynomial_exact_iff_every_coefficient_is_int_or_fraction():
    x, xx = LabeledTerm([[0]]), LabeledTerm([[0, 0]])
    F = MomentPolynomial(1, {x: 2, xx: Fraction(1, 3)})
    assert F.exact and all(type(c) is Fraction for c in F.terms.values())
    G = MomentPolynomial(1, {x: 2, xx: 0.5})
    assert not G.exact and all(type(c) is float for c in G.terms.values())
    assert MomentPolynomial(1, {}).exact
    # a float zero is dropped but keeps the polynomial float, as do float
    # terms that cancel
    assert not MomentPolynomial(1, {x: 1, xx: 0.0}).exact
    assert not (G - G).exact and (G - G).terms == {}
    # coefficients that already have the scalar type are kept, others converted
    for H in (F + F, F - 3 * F, Fraction(1, 2) * F):
        assert H.exact and all(type(c) is Fraction for c in H.terms.values())
    for H in (G + G, 3 * G, Fraction(1, 3) * G):
        assert not H.exact and all(type(c) is float for c in H.terms.values())
    assert (3 * G).terms == {x: 6.0, xx: 1.5}


# Exact sums and exact scalar products skip __init__'s per-term scan; each
# result must still be what __init__ builds from the same raw coefficients.

def _rebuilt_sum(a, b):
    out = dict(a.terms)
    for t, c in b.terms.items():
        out[t] = out.get(t, 0) + c
    return MomentPolynomial(a.d, out)


def _rebuilt_scale(s, a):
    return MomentPolynomial(a.d, {t: s * c for t, c in a.terms.items()})


def _same_polynomial(got, want):
    assert got.d == want.d and got.exact == want.exact
    assert list(got.terms) == list(want.terms)
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def _operands():
    x, xx, xy, y = (LabeledTerm(b) for b in ([[0]], [[0, 0]], [[0], [1]], [[1]]))
    exact = MomentPolynomial(2, {x: Fraction(1, 3), xx: -2, xy: Fraction(5, 7)})
    other = MomentPolynomial(2, {xy: Fraction(-5, 7), y: 4, x: Fraction(1, 6)})
    approx = MomentPolynomial(2, {xx: 0.5, y: -1.25})
    return {
        "exact": exact,
        "exact-other": other,
        "float": approx,
        "float-empty": approx - approx,
        "exact-empty": MomentPolynomial(2, {}),
    }


@pytest.mark.parametrize("a", list(_operands()))
@pytest.mark.parametrize("b", list(_operands()))
def test_sums_and_differences_match_rebuild(a, b):
    ops = _operands()
    a, b = ops[a], ops[b]
    _same_polynomial(a + b, _rebuilt_sum(a, b))
    _same_polynomial(a - b, _rebuilt_sum(a, _rebuilt_scale(-1, b)))
    _same_polynomial(a - a, _rebuilt_sum(a, _rebuilt_scale(-1, a)))


@pytest.mark.parametrize("a", list(_operands()))
@pytest.mark.parametrize("s", [3, Fraction(-2, 3), 0, 0.25, 0.0, True, False])
def test_scalar_products_match_rebuild(a, s):
    a = _operands()[a]
    _same_polynomial(s * a, _rebuilt_scale(s, a))


def test_cancellation_keeps_the_scalar_type():
    ops = _operands()
    exact, other = ops["exact"], ops["exact-other"]
    xy = LabeledTerm([[0], [1]])
    assert xy not in (exact + other).terms  # 5/7 - 5/7 is dropped
    assert (exact - exact).exact and (exact - exact).terms == {}
    assert not (ops["float"] - ops["float"]).exact


@pytest.mark.parametrize("a", list(_operands()))
def test_apply_S_matches_rebuild(a):
    a = _operands()[a]
    for n in (1, 2, 3):
        _same_polynomial(apply_S(a, n), oracles.apply_S(a, n))


# -- moment/cumulant conversion -------------------------------------------------

def test_cumulant_of_pair_is_covariance_form():
    m = 2
    mu1, mu2, mu12 = Fraction(2), Fraction(-3), Fraction(5)
    mu = [mu1 * mu2, mu12]  # finest first
    kappa = mobius_matrix(m).matvec(mu)
    assert kappa == [mu1 * mu2, mu12 - mu1 * mu2]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_conversion_round_trip(m):
    rng = random.Random(100 + m)
    index = LatticeIndex(m, enumerate_partitions(m))
    kappa = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in index]
    mu = zeta_matrix(m).matvec(kappa)
    assert mobius_matrix(m).matvec(mu) == kappa
    # partial-sum definition, straight from the order relation
    for i, pi in enumerate(index):
        want = sum(kappa[j] for j, sig in enumerate(index) if refines(sig, pi))
        assert mu[i] == want


# -- serialization ---------------------------------------------------------------

def test_polynomial_json_round_trip_exact():
    F = MomentPolynomial(
        3,
        {
            LabeledTerm([[0, 2], [1]]): Fraction(-3, 4),
            LabeledTerm([[1]]): 2,
            CONSTANT_TERM: Fraction(1, 7),
        },
    )
    obj = polynomial_to_dict(F)
    assert all(isinstance(e["coeff"], str) for e in obj["terms"])
    assert polynomial_from_dict(obj) == F


def test_polynomial_json_round_trip_float():
    F = MomentPolynomial(1, {LabeledTerm([[0]]): 0.25})
    obj = polynomial_to_dict(F)
    assert obj["terms"][0]["coeff"] == 0.25
    G = polynomial_from_dict(obj)
    assert not G.exact and G.terms[LabeledTerm([[0]])] == 0.25


def test_scalar_from_json():
    assert scalar_from_json("-3/4") == Fraction(-3, 4)
    assert isinstance(scalar_from_json("2"), Fraction)
    assert scalar_from_json(2) == 2.0 and isinstance(scalar_from_json(2), float)
    assert scalar_from_json(0.25) == 0.25


@pytest.mark.parametrize(
    "val", [True, False, None, [1], float("nan"), float("inf"), -float("inf"), "nan", "x"]
)
def test_scalar_from_json_rejects(val):
    with pytest.raises(ValueError):
        scalar_from_json(val)


def test_dataset_stores_numpy_cells_as_python_scalars():
    # an int64 cell becomes an int, so the fourth power of 2**20 is exact
    # instead of wrapping around in int64; a float64 cell becomes a float
    quartic = MomentPolynomial(1, {LabeledTerm([[0, 0, 0, 0]]): 1})
    ints = Dataset(np.array([[2**20], [3]]))
    assert ints.exact and [type(row[0]) for row in ints.rows] == [int, int]
    assert evaluate(quartic, ints) == Fraction(1208925819614629174706257, 2)
    assert evaluate(quartic, ints) == evaluate(quartic, Dataset([[2**20], [3]]))
    floats = Dataset(np.array([[0.1, -0.0], [1e300, 5e-324]]))
    assert not floats.exact
    assert [type(v) for row in floats.rows for v in row] == [float] * 4
    assert repr(floats.rows) == "((0.1, -0.0), (1e+300, 5e-324))"


@pytest.mark.parametrize(
    "cell",
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf"), np.inf],
    ids=["nan", "inf", "-inf", "float64-nan", "float32-inf", "numpy-inf"],
)
def test_dataset_rejects_non_finite_cells(cell):
    with pytest.raises(ValueError, match="Dataset cell .* is not finite"):
        Dataset([[1.0, 2.0], [3.0, cell]])
    with pytest.raises(ValueError, match="not finite"):
        Dataset(np.array([[1.0], [cell]]))


def test_dataset_from_csv(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x,y\n1.0,2.0\n3.5,-1.0\n")
    data = dataset_from_csv(path)
    assert data.n == 2 and data.d == 2
    assert data.rows[1] == (3.5, -1.0)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_dataset_from_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "rows.csv"
    path.write_text(f"x,y\n1.0,2.0\n3.5,{cell}\n")
    with pytest.raises(ValueError, match="non-finite"):
        dataset_from_csv(path)


def test_dataset_from_csv_rejects_text_after_data(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x\n1.0\nabc\n2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        dataset_from_csv(path)


@pytest.mark.parametrize(
    "text", ["x\n1/2\n-1\n2\n", "a\nb\n1\n"], ids=["fraction-after-header", "second-header"]
)
def test_dataset_from_csv_only_line_1_is_a_header(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="line 2: non-numeric row"):
        dataset_from_csv(path)


def test_dataset_from_csv_names_the_file_line_after_a_multi_line_field(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text('"a\nb"\n1\nx\n')
    with pytest.raises(ValueError, match="line 4: non-numeric row"):
        dataset_from_csv(path)


def test_dataset_from_csv_without_header_keeps_every_row(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("0.5,1\n-1,2\n\n3,4e-3\n")
    assert dataset_from_csv(path).rows == ((0.5, 1.0), (-1.0, 2.0), (3.0, 0.004))


def test_dataset_from_csv_drops_a_byte_order_mark(tmp_path):
    # a UTF-8 BOM before a number does not make line 1 a header, and a BOM
    # before a header does not keep it from being one
    path = tmp_path / "rows.csv"
    path.write_bytes("\ufeff0.5\n1.25\n-2.0\n".encode("utf-8"))
    assert dataset_from_csv(path).rows == ((0.5,), (1.25,), (-2.0,))
    path.write_bytes("\ufeffx,y\n1.0,2.0\n3.5,-1.0\n".encode("utf-8"))
    assert dataset_from_csv(path).rows == ((1.0, 2.0), (3.5, -1.0))


@pytest.mark.parametrize(
    "raw, line",
    [
        (b"x\n0.5\n1.2\xe9\n2.0\n", 3),
        (b"x\r\n0.5\r\n1.2\xe9\r\n", 3),
        (b"x\r0.5\r\n\r1.2\xe9\r", 4),
        (b"\xef\xbb\xbfx\n\xe9", 2),
        (b"\xff\n1\n", 1),
    ],
    ids=["lf", "crlf", "cr-and-blank-line", "after-bom", "line-1"],
)
def test_dataset_from_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, raw, line):
    # the decode fails before csv reads a line, so the line is counted from
    # the byte's offset, ending lines where csv does
    path = tmp_path / "rows.csv"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: byte 0x.. is not UTF-8"):
        dataset_from_csv(path)


def test_conversion_rejects_mismatched_sizes():
    with pytest.raises(DimensionError):
        mobius_matrix(3).matvec([1, 2])
    with pytest.raises(DimensionError):
        zeta_matrix(2).matvec([1] * 5)


def test_evaluate_reads_each_distinct_block_once_per_call():
    built, calls = [], []

    class ReadColumns(dict):
        def get(self, block):
            calls.append(block)
            return dict.get(self, block)

        def __setitem__(self, block, column):
            built.append(block)
            dict.__setitem__(self, block, column)

    F = MomentPolynomial(
        2,
        {
            LabeledTerm([[0], [0]]): -1.0,
            LabeledTerm([[0, 0]]): 1.0,
            LabeledTerm([[0], [1]]): 2.5,
            LabeledTerm([[0, 1], [0]]): 1.0,
        },
    )
    data = Dataset([[1.5, 2.0], [3.0, -1.0], [0.25, 4.0]])
    data.columns = ReadColumns()
    blocks = {block for term in F.terms for block in term}
    got = evaluate(F, data)
    assert sorted(calls) == sorted(blocks) == sorted(built)
    assert evaluate(F, data) == got and len(calls) == 2 * len(blocks)  # no moment memo across calls
    assert len(built) == len(blocks)  # the columns stay with the root
    want = 0
    for term, coeff in F.terms.items():
        v = coeff
        for block in term:
            v = v * empirical_moment(data, block)
        want += v
    assert repr(got) == repr(want)


def _nodes_by_function(tree):
    """(name of the innermost enclosing function, node) for every node below tree."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else function
            yield name, child
            yield from walk(child, name)

    return list(walk(tree, None))


def test_moments_keeps_one_copy_of_each_evaluation_step():
    # one function builds and stores a root's column, evaluate reads blocks
    # through the population's reader alone, and two loops form a value from
    # F's terms: the integer one and the per-term one
    from mobiusboot import moments

    nodes = _nodes_by_function(ast.parse(Path(moments.__file__).read_text()))

    def is_columns(node):
        return (isinstance(node, ast.Attribute) and node.attr == "columns") or (
            isinstance(node, ast.Name) and node.id == "columns"
        )

    stores = {
        function
        for function, node in nodes
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and is_columns(node.value))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("setdefault", "update") and is_columns(node.func.value))
    }
    assert stores == {"_column"}
    read = {node.attr for function, node in nodes if function == "evaluate" and isinstance(node, ast.Attribute)}
    assert read & {"root", "picks", "columns"} == set()
    assert "_moments" in read  # the walk sees evaluate's attribute reads
    term_loops = {
        function
        for function, node in nodes
        if isinstance(node, (ast.For, ast.comprehension)) and ast.unparse(node.iter) == "F.terms.items()"
    }
    assert term_loops == {"_term_sum", "_exact_value"}


def test_one_helper_scales_every_exact_value_to_one_denominator():
    # moments._scaled alone calls math.lcm, in each module that scales exact
    # values to integers, and the block-moment readers take no flag
    from mobiusboot import debias, mc, moments, resampling

    lcm_calls = set()
    for module in (debias, moments, resampling, mc):
        for function, node in _nodes_by_function(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.lcm", "lcm"):
                lcm_calls.add((module.__name__, function))
    assert lcm_calls == {("mobiusboot.moments", "_scaled")}
    readers = [
        node for _, node in _nodes_by_function(ast.parse(Path(moments.__file__).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_moments"
    ]
    assert len(readers) == 2
    assert [ast.unparse(reader.args) for reader in readers] == ["self", "self"]


def test_exact_columns_sum_numerators_over_one_denominator():
    # an exact root keeps each block's products as integers over their common
    # denominator; every moment is still the Fraction the row loop gives
    rng = random.Random(51)
    F = MomentPolynomial(2, {
        LabeledTerm([[0, 1, 1]]): Fraction(2, 3),
        LabeledTerm([[0], [1]]): -1,
        LabeledTerm([[1, 1], [0]]): Fraction(5, 4),
    })
    for _ in range(40):
        rows = [
            [rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
             for _ in range(2)]
            for _ in range(rng.randint(1, 6))
        ]
        data = Dataset(rows)
        pick = Dataset._picked(data, [rng.randrange(data.n) for _ in range(rng.randint(1, 7))])
        for ds in (data, pick, Dataset._picked(pick, [0] * pick.n)):
            got = evaluate(F, ds)
            assert type(got) is Fraction and got == oracles.evaluate(F, Dataset(ds.rows))
        numerators, den = data.columns[(0, 1, 1)]
        assert all(type(p) is int for p in numerators)
        products = [Fraction(x) * y * y for x, y in data.rows]
        assert [Fraction(p, den) for p in numerators] == products
        assert den == math.lcm(*[p.denominator for p in products])
