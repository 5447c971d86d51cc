"""Chain simulation: coefficients, exhaustive oracle, seeded replicas."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mobiusboot.debias import StepSchedule, nonstationary_debias, richardson_debias
from mobiusboot.mc import (
    EstimatorCoefficients,
    bias_experiment,
    exhaustive_estimate,
    expansion_coefficients,
    mc_estimate,
    normal_sampler,
    resample,
    _mc_values,
    _multiset_picks,
    _as_functional,
)
from mobiusboot.moments import (
    Dataset,
    LabeledTerm,
    MomentPolynomial,
    MomentTable,
    evaluate,
    normal_moment_table,
)
from mobiusboot.resampling import apply_S


def variance_poly():
    return MomentPolynomial(1, {LabeledTerm([[0, 0]]): 1, LabeledTerm([[0], [0]]): -1})


DATA4 = Dataset([[Fraction(1)], [Fraction(-2)], [Fraction(3)], [Fraction(0)]])


# -- resample ---------------------------------------------------------------------

def test_resample_single_row_identity():
    data = Dataset([[2.0, 5.0]])
    out = resample(data, np.random.default_rng(0))
    assert out.rows == data.rows


def test_resample_deterministic():
    a = resample(DATA4, np.random.default_rng(42))
    b = resample(DATA4, np.random.default_rng(42))
    assert a.rows == b.rows
    assert all(row in DATA4.rows for row in a.rows)


def test_resample_frequency_law():
    rng = np.random.default_rng(7)
    reps, hits = 20000, 0
    for _ in range(reps):
        hits += sum(1 for row in resample(DATA4, rng).rows if row == DATA4.rows[0])
    mean = hits / reps
    se = math.sqrt((1 - 1 / DATA4.n) / reps)
    assert abs(mean - 1) < 5 * se


# -- expansion coefficients ---------------------------------------------------------

def test_stationary_coefficients_are_signed_binomials():
    assert expansion_coefficients(0).coeffs == (1,)
    assert expansion_coefficients(1).coeffs == (2, -1)
    assert expansion_coefficients(2).coeffs == (3, -3, 1)
    for k in (3, 5, 8):
        got = expansion_coefficients(k).coeffs
        want = tuple(
            Fraction(math.comb(k + 1, j + 1) * (-1) ** j) for j in range(k + 1)
        )
        assert got == want


def test_default_schedule_coefficients_frozen():
    assert expansion_coefficients(StepSchedule.default(2, 2)).coeffs == (4, -5, 2)
    assert expansion_coefficients(StepSchedule.default(10, 2)).coeffs == (
        Fraction(28, 9),
        Fraction(-29, 9),
        Fraction(10, 9),
    )


def test_coefficients_sum_to_one():
    rng = random.Random(2)
    for _ in range(10):
        etas = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        coeffs = expansion_coefficients(StepSchedule(12, etas))
        assert sum(coeffs.coeffs) == 1


def _poly_from_coeffs(F, n, coeffs):
    total = MomentPolynomial(F.d, {})
    g = F
    for j, a in enumerate(coeffs):
        if j > 0:
            g = apply_S(g, n)
        total = total + a * g
    return total


def test_coefficients_reproduce_iterates():
    rng = random.Random(31)
    F = MomentPolynomial(
        2,
        {
            LabeledTerm([[0, 1], [0]]): Fraction(3, 2),
            LabeledTerm([[1], [1]]): Fraction(-2),
            LabeledTerm([[0]]): Fraction(1, 3),
        },
    )
    n = 4
    for k in (1, 2, 3):
        assert _poly_from_coeffs(F, n, expansion_coefficients(k)) == richardson_debias(
            F, n, k
        )
    sched = StepSchedule.default(n, 3)
    assert _poly_from_coeffs(F, n, expansion_coefficients(sched)) == nonstationary_debias(
        F, n, sched
    )


# -- exhaustive chains ----------------------------------------------------------------

def ordered_exhaustive(F, data, coeffs):
    """Oracle: the chain expectation over all N^N ordered picks at every level."""
    fn = _as_functional(F)
    coeffs = list(coeffs)
    n = data.n
    picks = list(product(range(n), repeat=n))
    weight = Fraction(1, len(picks))

    def level(ds, j):
        total = coeffs[j] * fn(ds)
        if j + 1 < len(coeffs):
            sub = 0
            for pick in picks:
                sub += level(Dataset([ds.rows[i] for i in pick]), j + 1)
            total += weight * sub
        return total

    total = 0
    for pick in picks:
        total += level(Dataset([data.rows[i] for i in pick]), 0)
    return weight * total


def row_max(ds):
    return max(row[0] for row in ds.rows)


COVARIANCE_PLUS = MomentPolynomial(
    2,
    {
        LabeledTerm([[0, 1]]): Fraction(1),
        LabeledTerm([[0], [1]]): Fraction(-1),
        LabeledTerm([[0], [0], [1]]): Fraction(-7, 2),
    },
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiset_picks_are_a_distribution(n):
    picks = _multiset_picks(n)
    assert len(picks) == math.comb(2 * n - 1, n)
    assert sum(w for _, w in picks) == 1
    assert all(list(pick) == sorted(pick) for pick, _ in picks)


@pytest.mark.parametrize(
    "n, depth", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
)
def test_multiset_walk_equals_ordered_walk(n, depth):
    rng = random.Random(10 * n + depth)
    data = Dataset(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)] for _ in range(n)]
    )
    coeffs = expansion_coefficients(StepSchedule.default(4, depth))
    for F in (COVARIANCE_PLUS, row_max):
        got = exhaustive_estimate(F, data, coeffs)
        assert isinstance(got, Fraction)
        assert got == ordered_exhaustive(F, data, coeffs)


@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_matches_coefficient_space(n):
    data = Dataset([[Fraction(v)] for v in range(1, n + 1)])
    F = variance_poly()
    for coeffs_src in (1, StepSchedule.default(n, 2)):
        coeffs = expansion_coefficients(coeffs_src)
        got = exhaustive_estimate(F, data, coeffs)
        G = _poly_from_coeffs(F, n, coeffs)
        assert got == evaluate(apply_S(G, n), data)


def test_exhaustive_unbiased_after_default_schedule():
    # two default steps at m=2: the chain estimator's exact expectation
    # equals the plug-in value on the source data
    n = 3
    data = Dataset([[Fraction(0)], [Fraction(2)], [Fraction(-1)]])
    F = variance_poly()
    coeffs = expansion_coefficients(StepSchedule.default(n, 2))
    assert exhaustive_estimate(F, data, coeffs) == evaluate(F, data)


# -- mc_estimate -----------------------------------------------------------------------

def test_mc_linear_functional_recovers_mean():
    F = MomentPolynomial(1, {LabeledTerm([[0]]): 1})
    data = Dataset([[1.0], [2.0], [3.0], [6.0]])
    report = mc_estimate(F, data, expansion_coefficients(0), 3000, seed=5)
    want = evaluate(F, data)
    assert abs(report.estimate - want) <= 3 * report.se
    assert report.se > 0


def test_mc_seeded_determinism():
    F = variance_poly()
    data = Dataset([[float(v)] for v in (0.0, 1.5, -2.0, 0.5)])
    coeffs = expansion_coefficients(1)
    a = mc_estimate(F, data, coeffs, 500, seed=11)
    b = mc_estimate(F, data, coeffs, 500, seed=11)
    assert a == b
    c = mc_estimate(F, data, coeffs, 500, seed=12)
    assert c.estimate != a.estimate


def test_replica_substreams_are_prefix_stable():
    F = variance_poly()
    data = Dataset([[float(v)] for v in (0.0, 1.5, -2.0, 0.5)])
    fn = _as_functional(F)
    coeffs = expansion_coefficients(1)
    draw = lambda rng: resample(data, rng)
    short = _mc_values(fn, draw, coeffs, 100, 9)
    long = _mc_values(fn, draw, coeffs, 400, 9)
    assert long[:100] == short


def test_float_chain_bit_identical_to_fraction_coefficients():
    # the float-coefficient path for polynomials must reproduce, bit for bit,
    # Fraction coefficients times float evaluations
    rng = random.Random(3)
    data = Dataset([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(12)])
    coeffs = expansion_coefficients(StepSchedule.default(12, 2))
    assert all(isinstance(a, Fraction) for a in coeffs)
    slow_fn = lambda ds: evaluate(COVARIANCE_PLUS, ds)
    for draw in (lambda r: resample(data, r), lambda r: normal_sampler(2)(r, 7)):
        fast = _mc_values(COVARIANCE_PLUS, draw, coeffs, 200, 17)
        slow = _mc_values(slow_fn, draw, coeffs, 200, 17)
        assert fast == slow


def test_exact_data_keeps_fraction_coefficients():
    data = Dataset(
        [[Fraction(1), Fraction(2)], [Fraction(-3), Fraction(1, 2)], [Fraction(0), Fraction(5)]]
    )
    coeffs = expansion_coefficients(StepSchedule.default(3, 2))
    draw = lambda r: resample(data, r)
    want = []
    for chain in _replayed_chains(draw, len(coeffs), 50, 8):
        total = 0.0
        for a, ds in zip(coeffs, chain):
            total += a * evaluate(COVARIANCE_PLUS, ds)  # exact product, rounded once
        want.append(total)
    assert _mc_values(COVARIANCE_PLUS, draw, coeffs, 50, 8) == want


def _replayed_chains(first_draw, length, replicas, seed):
    for child in np.random.SeedSequence(seed).spawn(replicas):
        rng = np.random.default_rng(child)
        chain = [first_draw(rng)]
        while len(chain) < length:
            chain.append(resample(chain[-1], rng))
        yield chain


def test_normal_sampler_rows_are_python_floats():
    ds = normal_sampler(3)(np.random.default_rng(0), 4)
    assert ds.n == 4 and ds.d == 3 and not ds.exact
    assert all(type(v) is float for row in ds.rows for v in row)
    assert all(type(row) is tuple for row in ds.rows)
    assert ds.rows == tuple(map(tuple, np.random.default_rng(0).standard_normal((4, 3)).tolist()))


def test_mc_data_as_x1_convention():
    # without the opening redraw, coeffs (1,) is deterministic: F(data) itself
    F = variance_poly()
    data = Dataset([[1.0], [4.0]])
    report = mc_estimate(
        F, data, expansion_coefficients(0), 50, seed=1, resample_first=False
    )
    assert report.estimate == pytest.approx(evaluate(F, data))
    assert report.se == 0


def test_mc_functional_error_names_replica():
    def bad(ds):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="replica 0"):
        mc_estimate(bad, Dataset([[1.0]]), expansion_coefficients(0), 3, seed=0)


def test_se_scaling_with_replicas():
    F = variance_poly()
    data = Dataset([[float(v)] for v in (0.0, 1.0, 2.0, 5.0, -3.0)])
    coeffs = expansion_coefficients(1)
    ratios = []
    for g in range(20):
        small = mc_estimate(F, data, coeffs, 300, seed=100 + g)
        big = mc_estimate(F, data, coeffs, 1200, seed=100 + g)
        ratios.append(small.se / big.se)
    mean_ratio = sum(ratios) / len(ratios)
    assert 1.7 < mean_ratio < 2.3


# -- bias_experiment ---------------------------------------------------------------------

def test_bias_experiment_normal_population():
    F = variance_poly()
    pop = normal_moment_table(1, 4)
    rows = bias_experiment(
        F, pop, n=10, k_max=2, replicas=4000, mode="schedule",
        seed=2024, sampler=normal_sampler(1),
    )
    assert [r.k for r in rows] == [0, 1, 2]
    assert rows[0].exact_bias == Fraction(-1, 10)
    assert rows[2].exact_bias == 0
    for row in rows:
        assert abs(row.report.estimate - float(row.exact_bias)) <= 3 * row.report.se
        assert row.bound >= abs(float(row.exact_bias)) - 1e-12


def test_bias_experiment_dataset_population():
    rng = random.Random(8)
    pop = Dataset([[Fraction(rng.randint(-3, 3))] for _ in range(150)])
    F = variance_poly()
    rows = bias_experiment(F, pop, n=6, k_max=1, replicas=3000, mode="stationary", seed=7)
    table = MomentTable.from_dataset(pop, [(0,), (0, 0)])
    v = evaluate(F, table)
    assert rows[0].exact_bias == -v * Fraction(1, 6)
    assert rows[1].exact_bias == -v * Fraction(1, 36)
    for row in rows:
        assert abs(row.report.estimate - float(row.exact_bias)) <= 3 * row.report.se


def test_bias_experiment_requires_sampler_for_tables():
    with pytest.raises(ValueError):
        bias_experiment(variance_poly(), normal_moment_table(1, 4), 10, 1, 10)


def test_exact_column_independent_of_replicas():
    F = variance_poly()
    pop = normal_moment_table(1, 4)
    a = bias_experiment(F, pop, 10, 1, 50, mode="stationary", seed=1, sampler=normal_sampler(1))
    b = bias_experiment(F, pop, 10, 1, 200, mode="stationary", seed=9, sampler=normal_sampler(1))
    assert [r.exact_bias for r in a] == [r.exact_bias for r in b]
