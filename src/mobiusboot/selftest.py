"""The exact invariant suite that `mobiusboot selftest` runs.

SELFTEST_CHECKS lists (name, check) in the order they run.  A check returns
None when its identity holds and raises SelfTestFailure, naming the case,
when it does not: zeta . mobius = I, the column sums and the diagonal
factorization of S, the closed-form one-norms, annihilation after m default
steps, the Richardson bias identity and the chain's expansion coefficients.
"""

import math
from fractions import Fraction

from .lattice import Partition, enumerate_partitions, mobius_matrix, zeta_matrix
from .moments import Dataset, LabeledTerm, MomentPolynomial
from .resampling import (
    _one_norm,
    apply_S,
    apply_S_inverse,
    factorization,
    one_norm_id_minus_S,
    one_norm_id_minus_scaled,
    sampling_matrix,
)
from .debias import StepSchedule, nonstationary_debias, richardson_debias
from . import mc as mc_mod


class SelfTestFailure(Exception):
    pass


def _ensure(cond, msg):
    if not cond:
        raise SelfTestFailure(msg)


def _check_mobius_small():
    Z = zeta_matrix(3)
    M = mobius_matrix(3)
    expect = [
        [1, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0],
        [-1, 0, 1, 0, 0],
        [-1, 0, 0, 1, 0],
        [2, -1, -1, -1, 1],
    ]
    _ensure(M.entries == expect, "m=3 Moebius matrix differs from the known table")
    _ensure(_is_identity(Z, M), "zeta . mobius is not the identity at m=3")


def _is_identity(Z, M):
    """Whether Z.M is the identity, column by column of M."""
    n = len(M.index)
    return all(
        Z.matvec(col) == [int(i == j) for i in range(n)]
        for j, col in enumerate(zip(*M.entries))
    )


def _check_inverse_pair():
    for m in range(1, 6):
        _ensure(_is_identity(zeta_matrix(m), mobius_matrix(m)), f"zeta.mobius != I at m={m}")


def _check_column_sums():
    for m in range(1, 5):
        for n in range(1, 6):
            S = sampling_matrix(m, n)
            for col in zip(*S.entries):
                _ensure(sum(col) == 1, f"column sum != 1 at m={m}, n={n}")
            for vals, pi in zip(S.values, S.index):
                if pi.block_count > n:
                    _ensure(
                        not any(vals),
                        f"row with too many blocks is not zero at m={m}, n={n}",
                    )


def _check_factorization():
    for m in range(1, 5):
        for n in (1, 2, 3, 5):
            _, _, ok = factorization(m, n)
            _ensure(ok, f"diagonal factorization fails at m={m}, n={n}")


def _check_one_norm():
    # one dense S per (m, n) serves every eta
    for m in range(1, 5):
        for n in (1, 2, 3, 5, 8):
            S = sampling_matrix(m, n)
            _ensure(
                one_norm_id_minus_S(m, n) == _one_norm(S, 1),
                f"one-norm closed form != direct at m={m}, n={n}",
            )
            etas = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2)]
            if m <= n:
                etas += StepSchedule.default(n, m).etas
            for eta in etas:
                _ensure(
                    one_norm_id_minus_scaled(m, n, eta) == _one_norm(S, eta),
                    f"scaled one-norm closed form != direct at m={m}, n={n}, eta={eta}",
                )


def _basis_poly(pi, m):
    return MomentPolynomial(m, {LabeledTerm.from_positions(pi, range(m)): Fraction(1)})


def _check_annihilation():
    # the m-step iterate G has S G = F, and S is invertible at N = m
    for m in range(1, 5):
        n = m
        schedule = StepSchedule.default(n, m)
        for pi in enumerate_partitions(m):
            F = _basis_poly(pi, m)
            _ensure(
                nonstationary_debias(F, n, schedule) == apply_S_inverse(F, n),
                f"m-step default schedule iterate differs from S^-1 F at m={m}",
            )


def _check_richardson_identity():
    n = 3
    for m in (1, 2, 3):
        F = _basis_poly(Partition.finest(m), m)
        for k in range(3):
            g = richardson_debias(F, n, k)
            bias = apply_S(g, n) - F
            power = F
            for _ in range(k + 1):
                power = power - apply_S(power, n)
            expect = MomentPolynomial(F.d, {}) - power
            _ensure(
                bias.terms == expect.terms,
                f"Richardson bias identity fails at m={m}, k={k}",
            )


def _check_expansion_coefficients():
    for k in range(6):
        coeffs = mc_mod.expansion_coefficients([1] * k)
        expect = tuple(
            Fraction((-1) ** j * math.comb(k + 1, j + 1)) for j in range(k + 1)
        )
        _ensure(tuple(coeffs) == expect, f"stationary coefficients differ at k={k}")
        _ensure(sum(coeffs) == 1, f"coefficients do not sum to 1 at k={k}")


def _check_exhaustive_chain():
    data = Dataset([(Fraction(0),), (Fraction(1),)])
    var = MomentPolynomial(
        1, {LabeledTerm([[0, 0]]): Fraction(1), LabeledTerm([[0], [0]]): Fraction(-1)}
    )
    coeffs = mc_mod.expansion_coefficients([1])
    got = mc_mod.exhaustive_estimate(var, data, coeffs)
    want = mc_mod.chain_expectation(var, coeffs, data)
    _ensure(got == want, "exhaustive chain average != operator route at n=2")


SELFTEST_CHECKS = [
    ("mobius_small_table", _check_mobius_small),
    ("zeta_mobius_inverse", _check_inverse_pair),
    ("sampling_column_sums", _check_column_sums),
    ("diagonal_factorization", _check_factorization),
    ("one_norm_closed_form", _check_one_norm),
    ("default_schedule_annihilation", _check_annihilation),
    ("richardson_bias_identity", _check_richardson_identity),
    ("expansion_coefficients", _check_expansion_coefficients),
    ("exhaustive_chain", _check_exhaustive_chain),
]
