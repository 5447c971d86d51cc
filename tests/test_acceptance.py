"""Acceptance suite: twelve end-to-end checks at stated tolerances and runtimes.

Run with -v for one pass/fail line per check; -s additionally shows a ✓ line
with the measured time for each.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from mobiusboot.lattice import (
    enumerate_partitions,
    falling_factorial,
    mobius_matrix,
    zeta_matrix,
)
from mobiusboot.moments import (
    Dataset,
    LabeledTerm,
    MomentPolynomial,
    evaluate,
    normal_moment_table,
)
from mobiusboot.resampling import (
    apply_S,
    factorization,
    log_gamma_ratio,
    one_norm_direct,
    one_norm_id_minus_S,
    reduced_matrix,
    sampling_matrix,
)
from mobiusboot.debias import (
    StepSchedule,
    general_bound,
    neumann_trace_bound,
    nonstationary_debias,
)
from mobiusboot.mc import (
    bias_experiment,
    exhaustive_estimate,
    expansion_coefficients,
    normal_sampler,
)
from oracles import poly_level_sums


def _embed(pi, m):
    """Basis vector for pi as a moment polynomial with distinct labels."""
    return MomentPolynomial(m, {LabeledTerm.from_positions(pi, range(m)): Fraction(1)})


def _random_vector_poly(rng, m, max_terms):
    """Sparse rational vector over the partition basis, distinct labels."""
    parts = enumerate_partitions(m)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        pi = parts[rng.randrange(len(parts))]
        terms[LabeledTerm.from_positions(pi, range(m))] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 5)
        )
    return MomentPolynomial(m, terms)


def _random_statistic(rng, m, d):
    """Random rational functional of order m on d-column data."""
    parts = enumerate_partitions(m)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        pi = parts[rng.randrange(len(parts))]
        labels = [rng.randrange(d) for _ in range(m)]
        term = LabeledTerm.from_positions(pi, labels)
        terms[term] = terms.get(term, 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MomentPolynomial(d, terms)


def test_01_m3_incidence_matrices_match_known_tables():
    # The 1 ms cap holds for the fastest of several builds: one build alone
    # can stall past it whenever a busy host takes the CPU away.
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        Z = zeta_matrix(3)
        M = mobius_matrix(3)
        times.append(time.perf_counter() - t0)
    zeta_expected = [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0],
        [1, 0, 0, 1, 0],
        [1, 1, 1, 1, 1],
    ]
    mobius_expected = [
        [1, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0],
        [-1, 0, 1, 0, 0],
        [-1, 0, 0, 1, 0],
        [2, -1, -1, -1, 1],
    ]
    ok = Z.entries == zeta_expected and M.entries == mobius_expected
    dt = min(times)
    assert ok
    assert all(isinstance(x, int) for row in M.entries for x in row)
    assert dt < 1e-3
    print(f"✓ [ 1/12] m=3 zeta and Moebius matrices match the known 5x5 tables, exact ints ({dt * 1000:.2f} ms)")


def test_02_column_sums_one_and_starved_rows_vanish():
    # Columns indexed by blocks(sigma) <= N sum to 1; in fact every column
    # does, because the resampling weights are a probability distribution for
    # any N >= 1.  The partitions needing more than N distinct rows die on
    # the row side: their falling factorial is zero.
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, 9):
            S = sampling_matrix(m, n)
            size = len(S.entries)
            for j in range(size):
                total = sum(S.entries[i][j] for i in range(size))
                assert total == 1, (m, n, j)
            for i, pi in enumerate(S.index):
                if pi.block_count > n:
                    assert all(S.entries[i][j] == 0 for j in range(size)), (m, n, i)
    dt = time.perf_counter() - t0
    assert dt < 10
    print(f"✓ [ 2/12] all S columns sum to 1 and rows with more blocks than N vanish, m<=6, N<=8, exact ({dt:.2f} s)")


def test_03_one_norm_closed_form():
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, 11):
            if m <= n:
                expected = 2 - 2 * Fraction(falling_factorial(n, m), n**m)
            else:
                expected = Fraction(2)
            direct = one_norm_direct(m, n)
            assert direct == expected, (m, n)
            assert one_norm_id_minus_S(m, n) == expected, (m, n)
    dt = time.perf_counter() - t0
    print(f"✓ [ 3/12] max-column 1-norm of Id-S equals 2(1 - falling(N,m)/N^m), m<=6, N<=10, exact ({dt:.2f} s)")


def test_04_diagonal_factorization():
    # S factors through the zeta matrix between two diagonals: the resampling
    # weight splits as falling(N,#pi) on the row side over N^{#sigma} on the
    # column side, i.e. S = R.zeta.C^-1 entrywise.
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, 9):
            R, C, ok = factorization(m, n)
            assert ok, (m, n)
            S = sampling_matrix(m, n)
            Z = zeta_matrix(m)
            size = len(S.entries)
            for i in range(size):
                for j in range(size):
                    assert S.entries[i][j] == Fraction(R[i] * Z.entries[i][j], C[j]), (m, n, i, j)
    dt = time.perf_counter() - t0
    print(f"✓ [ 4/12] S = R.zeta.C^-1 exactly, m<=6, N<=8 ({dt:.2f} s)")


def test_05_level_sums_commute_with_reduced_matrix():
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    for m in range(1, 9):
        for n in range(1, 11):
            R = reduced_matrix(m, n)
            for _ in range(100):
                f = _random_vector_poly(rng, m, 3)
                lhs = poly_level_sums(apply_S(f, n), m)
                rhs = R.matvec(poly_level_sums(f, m))
                assert lhs == rhs, (m, n)
    dt = time.perf_counter() - t0
    print(f"✓ [ 5/12] level_sums(S.f) = reduced @ level_sums(f) for 100 random rational f per (m<=8, N<=10), exact ({dt:.2f} s)")


def _average_over_all_resamples(F, data):
    total = Fraction(0)
    for combo in product(range(data.n), repeat=data.n):
        Y = Dataset([data.rows[i] for i in combo])
        total += evaluate(F, Y)
    return total / data.n**data.n


def test_06_exhaustive_resampling_oracle():
    t0 = time.perf_counter()
    rng = random.Random(99)
    for n in (2, 3):
        for m in (1, 2, 3):
            data = Dataset(
                [
                    tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
                    for _ in range(n)
                ]
            )
            for _ in range(20):
                F = _random_statistic(rng, m, 2)
                brute = _average_over_all_resamples(F, data)
                operator = evaluate(apply_S(F, n), data)
                assert brute == operator, (n, m)
    dt = time.perf_counter() - t0
    assert dt < 30
    print(f"✓ [ 6/12] averaging over all N^N resamples equals evaluate(apply_S(F,N), data), N in {{2,3}}, m<=3, 20 random F each, exact ({dt:.2f} s)")


def test_07_default_schedule_annihilates_every_basis_vector():
    # Flagship: the m-step product (Id - eta_m S)...(Id - eta_1 S)(S - Id)
    # is identically zero, checked on every basis vector by running the
    # scheduled recursion and applying S once more.
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 7):
        for n in range(m, m + 4):
            schedule = StepSchedule.default(n, m)
            for pi in enumerate_partitions(m):
                e = _embed(pi, m)
                g = nonstationary_debias(e, n, schedule)
                residual = apply_S(g, n) - e
                assert not residual.terms, (m, n, pi)
                checked += 1
    dt = time.perf_counter() - t0
    print(f"✓ [ 7/12] default m-step schedule leaves zero bias on all {checked} basis vectors, m<=6, N in {{m..m+3}}, exact ({dt:.2f} s)")


def test_08_gamma_ratio_regimes():
    t0 = time.perf_counter()
    floor_log = math.log(0.75)
    for m in range(1, 51):
        n = max(8 * m * m, m + 1)
        assert log_gamma_ratio(m, n) >= floor_log, m
    # shrinking N = m^2/4 pushes the ratio below exp(-1/4) * 3/4 once m grows
    converse = math.exp(-0.25) * 0.75
    ratios = [math.exp(log_gamma_ratio(m, m * m // 4)) for m in (20, 30, 40, 50)]
    assert all(r < converse for r in ratios)
    dt = time.perf_counter() - t0
    print(f"✓ [ 8/12] gamma_ratio(m, max(8m^2, m+1)) >= 3/4 for m<=50; at N=m^2/4 it falls to {ratios[-1]:.3f} < exp(-1/4)*3/4 ({dt:.2f} s)")


def test_09_iterates_contract_entrywise():
    t0 = time.perf_counter()
    crossings = {}
    for m in range(1, 6):
        S = sampling_matrix(m, m)
        size = len(S.entries)
        E = np.eye(size) - np.array([[float(x) for x in row] for row in S.entries])
        P = E.copy()
        k = 1
        while np.abs(P).max() >= 1e-6:
            P = P @ E
            k += 1
            assert k <= 10_000, m
        crossings[m] = k
    dt = time.perf_counter() - t0
    assert max(crossings.values()) <= 10_000
    print(f"✓ [ 9/12] max |(Id-S)^k| < 1e-6 within k <= 10^4 at N=m, m<=5 (worst k={max(crossings.values())}) ({dt:.2f} s)")


def test_10_monte_carlo_bias_agreement():
    t0 = time.perf_counter()
    variance = MomentPolynomial(
        1, {LabeledTerm([[0, 0]]): 1, LabeledTerm([[0], [0]]): -1}
    )
    rows = bias_experiment(
        variance,
        normal_moment_table(1, 2),
        StepSchedule.default(10, 2),
        100_000,
        seed=42,
        sampler=normal_sampler(1),
    )
    plugin, _, scheduled = rows
    assert plugin.exact_bias == Fraction(-1, 10)
    assert scheduled.exact_bias == 0
    assert abs(plugin.report.estimate - (-0.1)) <= 3 * plugin.report.se
    assert abs(scheduled.report.estimate) <= 3 * scheduled.report.se
    dt = time.perf_counter() - t0
    assert dt < 60
    print(f"✓ [10/12] variance at N=10, 1e5 replicas: plug-in bias {plugin.report.estimate:+.4f} ~ -0.1, default 2-step bias {scheduled.report.estimate:+.5f} ~ 0, both within 3 SE ({dt:.1f} s)")


def test_11_bound_calculators():
    t0 = time.perf_counter()
    k, bound = neumann_trace_bound(0.5, 32)
    assert (k, bound) == (1, 4.0)
    for tenth in range(1, 10):
        sigma = tenth / 10
        gammas = [sigma**j / (1 - sigma) for j in range(9)]
        for n in (32, 72, 128, 200, 288, 392, 512):
            _, got = general_bound(gammas, n)
            closed = 4 / (1 - sigma) * sigma ** math.sqrt(n / 32)
            assert abs(math.log(got) - math.log(closed)) < 1e-12, (sigma, n)
    dt = time.perf_counter() - t0
    print(f"✓ [11/12] trace bound (1, 4) at sigma=1/2, N=32; general bound matches (4/(1-s))s^sqrt(N/32) within 1e-12 on the grid ({dt:.2f} s)")


def test_12_black_box_unbiased_after_default_schedule():
    # The paper's last claim on opaque callables: L >= m default steps make the
    # chain estimator of an order-m moment polynomial exactly unbiased for its
    # plug-in value, with only row symmetry of the callable used.
    t0 = time.perf_counter()
    rng = random.Random(12)
    cases = 12
    for _ in range(cases):
        d, m = rng.randint(1, 2), rng.randint(1, 4)
        F = _random_statistic(rng, m, d) + _random_statistic(rng, rng.randint(1, m), d)
        steps = rng.randint(m, 5)
        n = rng.randint(steps, 5)
        data = Dataset(
            [
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
                for _ in range(n)
            ]
        )
        coeffs = expansion_coefficients(StepSchedule.default(n, steps))
        got = exhaustive_estimate(lambda ds: evaluate(F, ds), data, coeffs)
        assert got == evaluate(F, data), (d, m, steps, n)
    dt = time.perf_counter() - t0
    assert dt < 30
    print(f"✓ [12/12] default L-step chain on {cases} black-box order-m functionals (d<=2, m<=4, m<=L<=N<=5) is exactly unbiased over all resample chains ({dt:.2f} s)")
