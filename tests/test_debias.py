"""Iteration algebra, exact bias trajectories, bound calculators."""

import math
import random
from fractions import Fraction

import pytest

from mobiusboot.debias import (
    BiasReport,
    StepSchedule,
    bandlimited_bound,
    bias_bound,
    exact_bias,
    general_bound,
    neumann_trace_bound,
    nonstationary_debias,
    richardson_debias,
    richardson_neumann,
)
from mobiusboot.lattice import DEFAULT_CAP, CapExceededError, LatticeIndex, enumerate_partitions
from mobiusboot.moments import (
    InfeasibleError,
    LabeledTerm,
    MomentPolynomial,
    MomentTable,
    normal_moment_table,
    reachable_blocks,
)
from mobiusboot.resampling import (
    apply_S,
    apply_S_inverse,
    one_norm_direct,
    one_norm_id_minus_S,
)
from oracles import general_bound_at


def variance_poly():
    return MomentPolynomial(1, {LabeledTerm([[0, 0]]): 1, LabeledTerm([[0], [0]]): -1})


def _embed_basis(pi, m):
    return MomentPolynomial(m, {LabeledTerm.from_positions(pi, range(m)): Fraction(1)})


def _random_poly(rng, m):
    index = enumerate_partitions(m)
    return MomentPolynomial(
        m,
        {
            LabeledTerm.from_positions(pi, range(m)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 4)
            )
            for pi in index
            if rng.random() < 0.7
        },
    )


def _one_norm(F):
    return sum(abs(c) for c in F.terms.values())


# -- schedules ---------------------------------------------------------------------

def test_default_schedule_values():
    assert StepSchedule.default(2, 2).etas == (1, 2)
    assert StepSchedule.default(3, 3).etas == (1, Fraction(3, 2), Fraction(9, 2))
    assert StepSchedule.default(10, 2).etas == (1, Fraction(10, 9))


def test_default_schedule_at_least_one():
    for n in (2, 5, 9):
        for k in range(1, n + 1):
            assert all(eta >= 1 for eta in StepSchedule.default(n, k))


def test_default_schedule_infeasible():
    with pytest.raises(InfeasibleError):
        StepSchedule.default(2, 3)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: StepSchedule.unit(4, -1), "step count must be nonnegative"),
        (lambda: StepSchedule.default(4, -2), "step count must be nonnegative"),
        (lambda: richardson_debias(variance_poly(), 4, -1), "step count must be nonnegative"),
        (lambda: StepSchedule(0, []), "sample size must be positive"),
        (lambda: StepSchedule(-3, [Fraction(1)]), "sample size must be positive"),
        (lambda: StepSchedule.unit(0, 0), "sample size must be positive"),
        (lambda: StepSchedule.default(0, 0), "sample size must be positive"),
        (lambda: StepSchedule.default(-1, 1), "sample size must be positive"),
    ],
    ids=["unit-k-negative", "default-k-negative", "richardson-k-negative", "n0-empty",
         "n-negative", "unit-n0", "default-n0", "default-n-negative"],
)
def test_schedule_rejects_bad_sizes(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "4", None])
def test_schedule_rejects_a_sample_size_that_is_not_an_int(n):
    # True used to build a schedule whose n is True, and 2.5 one that failed
    # later inside math.perm
    for build in (
        lambda: StepSchedule(n, [Fraction(1)]),
        lambda: StepSchedule.unit(n, 1),
        lambda: StepSchedule.default(n, 1),
    ):
        with pytest.raises(ValueError, match="sample size must be an int"):
            build()


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, True, False])
def test_schedule_rejects_non_finite_and_bool_steps(eta):
    # nan passed the eta <= 0 check and wrote nan rows into exact_bias
    with pytest.raises(ValueError, match="finite numbers"):
        StepSchedule(5, [Fraction(1), eta])


@pytest.mark.parametrize(
    "build",
    [lambda: StepSchedule.unit(4, 2**20), lambda: StepSchedule.default(4, 2**20),
     lambda: StepSchedule(4, [Fraction(1)] * 2**20)],
    ids=["unit", "default", "etas"],
)
def test_schedule_holds_the_step_cap(build):
    # a step list of 2**20 entries is already 8 MB; default's k <= N rule
    # (InfeasibleError) comes after the cap
    with pytest.raises(CapExceededError, match=r"^step count must be < 2\*\*20, got 1048576$"):
        build()


def test_schedule_keeps_finite_steps_of_every_scalar_type():
    etas = (Fraction(10**400), 2, 0.5)
    assert StepSchedule(5, etas).etas == etas


# -- stationary iteration ------------------------------------------------------------

def test_richardson_k0_identity():
    F = variance_poly()
    assert richardson_debias(F, 5, 0) == F
    assert richardson_neumann(F, 5, 0) == F


def test_variance_is_eigenvector():
    F = variance_poly()
    for n in (2, 3, 10):
        lam = 1 - Fraction(1, n)
        assert apply_S(F, n) == lam * F
        assert apply_S(apply_S(F, n), n) == lam**2 * F


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_neumann_equals_recursion(m):
    rng = random.Random(40 + m)
    F = _random_poly(rng, m)
    for n in (m, m + 2):
        for k in range(7):
            assert richardson_neumann(F, n, k) == richardson_debias(F, n, k)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 5), (4, 6)])
def test_richardson_bias_identity(m, n):
    # S f^(k) - f = -(Id-S)^(k+1) f
    rng = random.Random(m * n)
    F = _random_poly(rng, m)
    for k in range(5):
        lhs = apply_S(richardson_debias(F, n, k), n) - F
        p = F
        for _ in range(k + 1):
            p = p - apply_S(p, n)
        assert lhs == -1 * p


# -- scheduled iteration --------------------------------------------------------------

def test_unit_schedule_matches_richardson():
    rng = random.Random(5)
    F = _random_poly(rng, 3)
    for k in (0, 1, 2, 4):
        assert nonstationary_debias(F, 4, StepSchedule.unit(4, k)) == richardson_neumann(
            F, 4, k
        )


def test_schedule_sample_size_must_match():
    # N = 5 for S with N = 10 steps would leave bias -1/225 where the pair leaves 0
    with pytest.raises(ValueError, match="N=10"):
        nonstationary_debias(variance_poly(), 5, StepSchedule.default(10, 2))


def test_two_step_default_kills_bias_m2_n2():
    F = variance_poly()
    G = nonstationary_debias(F, 2, StepSchedule.default(2, 2))
    assert (apply_S(G, 2) - F).terms == {}


def test_three_step_default_kills_bias_m3_n3():
    rng = random.Random(11)
    F = _random_poly(rng, 3)
    G = nonstationary_debias(F, 3, StepSchedule.default(3, 3))
    assert (apply_S(G, 3) - F).terms == {}


def test_schedule_order_invariance():
    rng = random.Random(23)
    F = _random_poly(rng, 3)
    n = 5
    etas = list(StepSchedule.default(n, 4))
    biases = []
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        sched = StepSchedule(n, [etas[i] for i in order])
        G = nonstationary_debias(F, n, sched)
        biases.append(apply_S(G, n) - F)
    assert biases[0] == biases[1] == biases[2]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_exact_annihilation_all_basis_vectors(m):
    for n in (m, m + 2):
        sched = StepSchedule.default(n, m)
        for pi in enumerate_partitions(m):
            e = _embed_basis(pi, m)
            G = nonstationary_debias(e, n, sched)
            assert (apply_S(G, n) - e).terms == {}, f"bias survives at {pi}, N={n}"


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_default_iterate_is_closed_form_inverse(m):
    # S G_k = F once k >= L, and S is invertible on F's span when N >= L
    rng = random.Random(70 + m)
    for F in (_random_poly(rng, m), _random_poly(rng, m), variance_poly()):
        most = max((t.block_count for t in F.terms), default=1)
        for n in (most, most + 2):
            G = apply_S_inverse(F, n)
            for k in range(most, n + 1):
                assert nonstationary_debias(F, n, StepSchedule.default(n, k)) == G
        if most > 1:
            with pytest.raises(InfeasibleError, match=f"N >= {most}"):
                apply_S_inverse(F, most - 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_monotone_contraction_large_n(m):
    n = 8 * m * m
    for pi in enumerate_partitions(m):
        e = _embed_basis(pi, m)
        assert _one_norm(e - apply_S(e, n)) <= Fraction(1, 2)


# -- exact bias reports ----------------------------------------------------------------

def test_variance_trajectory_against_normal_population():
    F = variance_poly()
    pop = normal_moment_table(1, 4)
    report = exact_bias(F, StepSchedule.unit(10, 2), pop)
    assert report.target == 1
    assert [r.signed_bias for r in report.records] == [
        Fraction(-1, 10),
        Fraction(-1, 100),
        Fraction(-1, 1000),
    ]
    assert [r.k for r in report.records] == [0, 1, 2]
    assert all(r.abs_bias == abs(r.signed_bias) for r in report.records)


def test_schedule_trajectory_hits_zero():
    F = variance_poly()
    pop = normal_moment_table(1, 4)
    report = exact_bias(F, StepSchedule.default(10, 2), pop)
    assert report.records[0].signed_bias == Fraction(-1, 10)
    assert report.records[-1].signed_bias == 0


def test_bias_bound_dominates_exact_bias():
    rng = random.Random(3)
    pop = normal_moment_table(1, 8)
    for _ in range(5):
        F = MomentPolynomial(
            1,
            {
                LabeledTerm([[0, 0]]): Fraction(rng.randint(-4, 4)),
                LabeledTerm([[0], [0]]): Fraction(rng.randint(-4, 4)),
                LabeledTerm([[0, 0, 0], [0]]): Fraction(rng.randint(-2, 2)),
            },
        )
        for schedule in (StepSchedule.unit(6, 3), StepSchedule.default(6, 3)):
            report = exact_bias(F, schedule, pop)
            for r in report.records:
                assert float(r.abs_bias) <= r.bound + 1e-12


def _dense_bound_column(F, n, etas, pop):
    """Bound column recomputed with the dense column norms of Id - eta*S."""
    m = F.max_order()
    mu_inf = max(abs(pop.moment(b)) for b in reachable_blocks(F))
    bound = mu_inf * sum(abs(c) for c in F.terms.values()) * one_norm_direct(m, n)
    column = [float(bound)]
    for eta in etas:
        bound = bound * one_norm_direct(m, n, eta)
        column.append(float(bound))
    return column


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["stationary", "default", "custom"])
def test_bound_column_matches_dense_route(m, kind):
    n, k = m + 2, 3
    F = _random_poly(random.Random(40 + m), m)
    # random nonzero moments: a normal table is 0 on every block of distinct labels
    rng = random.Random(90 + m)
    pop = MomentTable(
        m, {b: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for b in reachable_blocks(F)}
    )
    if kind == "stationary":
        report = exact_bias(F, StepSchedule.unit(n, k), pop)
        etas = [1] * k
    else:
        schedule = (
            StepSchedule.default(n, k) if kind == "default"
            else StepSchedule(n, [Fraction(1, 3), Fraction(7, 2), Fraction(2)])
        )
        report = exact_bias(F, schedule, pop)
        etas = list(schedule)
    column = [r.bound for r in report.records]
    assert column == _dense_bound_column(F, n, etas, pop)
    # ||Id-S||_1 = 0 at m = 1, so only there is the whole column 0
    assert any(b > 0 for b in column) == (m > 1)


def test_exact_bias_beyond_dense_cap():
    # order 11 lies past the dense lattice cap; no sampling matrix is needed
    F = MomentPolynomial(1, {LabeledTerm([[0] * 11]): 1, LabeledTerm([[0], [0]]): -1})
    assert F.max_order() > DEFAULT_CAP
    pop = normal_moment_table(1, 11)
    for schedule in (StepSchedule.unit(12, 2), StepSchedule.default(12, 2)):
        report = exact_bias(F, schedule, pop)
        assert report.records[0].signed_bias == Fraction(-1, 12)
        # mu_inf = E[x^2] = 1 (odd normal moments vanish) and f_one = 2
        assert report.records[0].bound == float(2 * one_norm_id_minus_S(11, 12))
        assert all(float(r.abs_bias) <= r.bound for r in report.records)
    assert report.records[-1].signed_bias == 0


def test_exact_bias_over_the_block_cap_reads_no_moment(monkeypatch):
    # a term of 11 blocks raises in reachable_blocks, before mu_inf reads the table
    def moment_not_wanted(self, block):
        raise AssertionError("a moment was read before the block cap")

    F = MomentPolynomial(11, {LabeledTerm([[i] for i in range(11)]): 1})
    pop = normal_moment_table(11, 1)
    monkeypatch.setattr(MomentTable, "moment", moment_not_wanted)
    with pytest.raises(CapExceededError, match="^a term has 11 blocks; at most 10 per term"):
        exact_bias(F, StepSchedule.unit(20, 1), pop)


def test_exact_bias_holds_the_trajectory_to_its_bit_budget(monkeypatch):
    # an exact row takes about m x bit_length(N) bits plus its step's bits
    # more than the last, so the rows' bits grow as k^2; the budget is checked
    # before any moment is read or any row built
    from mobiusboot import debias

    def moment_not_wanted(self, block):
        raise AssertionError("a moment was read")

    monkeypatch.setattr(MomentTable, "moment", moment_not_wanted)
    pop = normal_moment_table(1, 2)
    with pytest.raises(CapExceededError, match=r"^the exact trajectory at N=10 takes about \d+ bits"
                       r" by row 2590 of 100000 \(m x bit_length\(N\) = 8 more per row"):
        exact_bias(variance_poly(), StepSchedule.unit(10, 100000), pop)
    assert debias.TRAJECTORY_CAP == 2**25
    # within the budget: 2589 unit steps, float coefficients, and exact steps
    # up to a float one, after which the iterates are floats
    float_variance = MomentPolynomial(1, {LabeledTerm([[0, 0]]): 1.0, LabeledTerm([[0], [0]]): -1.0})
    for F, schedule in [
        (variance_poly(), StepSchedule.unit(10, 2589)),
        (float_variance, StepSchedule.unit(10, 100000)),
        (variance_poly(), StepSchedule(10, [1] * 2000 + [0.5] + [1] * 100000)),
    ]:
        with pytest.raises(AssertionError, match="a moment was read"):
            exact_bias(F, schedule, pop)


def test_bias_report_rows_shape():
    report = exact_bias(variance_poly(), StepSchedule.unit(4, 1), normal_moment_table(1, 4))
    rows = report.rows()
    assert rows[0][0] == 0 and len(rows) == 2 and len(rows[0]) == 4


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_unit_schedule_bound_equals_bias_bound(m):
    # the stationary bound mu_inf * f_one * ||Id-S||_1^(j+1), computed directly
    n, k = m + 1, 4
    rng = random.Random(70 + m)
    F = _random_poly(rng, m)
    # random nonzero moments: a normal table is 0 on every block of distinct labels
    pop = MomentTable(
        m, {b: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for b in reachable_blocks(F)}
    )
    mu_inf = max(abs(pop.moment(b)) for b in reachable_blocks(F))
    assert mu_inf > 0
    f_one = sum(abs(c) for c in F.terms.values())
    report = exact_bias(F, StepSchedule.unit(n, k), pop)
    assert [r.bound for r in report.records] == [
        float(bias_bound(m, n, j, mu_inf, f_one)) for j in range(k + 1)
    ]


# -- bound calculators -------------------------------------------------------------------

def test_bias_bound_values():
    assert bias_bound(2, 2, 0, 1, 1) == 1
    b0 = bias_bound(3, 9, 0, Fraction(2), Fraction(3, 2))
    b1 = bias_bound(3, 9, 1, Fraction(2), Fraction(3, 2))
    assert b1 == b0 * one_norm_id_minus_S(3, 9)
    for m in range(1, 7):
        assert one_norm_id_minus_S(m, 8 * m * m) <= Fraction(1, 2)


def test_general_bound_frozen_example():
    k, bound = general_bound([1, Fraction(1, 256)], 8)
    assert k == 4
    assert bound == pytest.approx(0.25, rel=1e-12)


def test_general_bound_constant_sequence():
    k, bound = general_bound([5.0, 5.0, 5.0], 8)
    assert k == 0
    assert bound == pytest.approx(math.sqrt(16 * 25), rel=1e-12)


def test_general_bound_two_term_tradeoff():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.choice([8, 32, 72, 128])
        cut = math.ceil(math.sqrt(n / 8))
        seq = [rng.uniform(0.5, 2.0)]
        for _ in range(cut + rng.randint(0, 3)):
            seq.append(seq[-1] * rng.uniform(0.05, 1.0))
        k_star, bound = general_bound(seq, n)
        assert general_bound_at(seq, n, k_star) <= bound + 1e-12
        assert bound == pytest.approx(4 * math.sqrt(seq[0] * seq[cut]), rel=1e-12)


@pytest.mark.parametrize("n", [0, -1, -72, 0.5])
def test_general_bound_rejects_n_below_one(n):
    # at N = 0 the cut index is 0 and the bound read (0, 4.0); below 0 sqrt
    # failed.  One shared check rejects N, here and in neumann_trace_bound
    message = "^sample size must be " + ("an int" if n == 0.5 else "positive") + f", got {n}$"
    with pytest.raises(ValueError, match=message):
        general_bound([1.0, 0.5, 0.25], n)
    with pytest.raises(ValueError, match=message):
        neumann_trace_bound(0.5, n)


@pytest.mark.parametrize(
    "bound",
    [
        lambda n: general_bound([1.0, 0.5, 0.2], n),
        lambda n: neumann_trace_bound(0.5, n),
        lambda n: bandlimited_bound(1, 0.05, n),
    ],
    ids=["general", "neumann_trace", "bandlimited"],
)
@pytest.mark.parametrize("n", [2.5, True, 1e6], ids=["2.5", "True", "1e6"])
def test_bounds_reject_a_sample_size_that_is_not_an_int(bound, n):
    # general_bound(..., 2.5) and (..., True) returned (0, 2.83), and
    # neumann_trace_bound(0.5, True) returned (0, 7.08)
    with pytest.raises(ValueError, match="sample size must be an int"):
        bound(n)


def test_general_bound_validation():
    with pytest.raises(ValueError):
        general_bound([1.0, 2.0, 3.0], 8)
    with pytest.raises(ValueError):
        general_bound([1.0], 72)
    with pytest.raises(ValueError):
        general_bound([1.0, -0.5], 8)


def test_trace_bound_frozen():
    k, bound = neumann_trace_bound(0.5, 32)
    assert k == 1
    assert bound == pytest.approx(4.0, rel=1e-12)
    k2, bound2 = neumann_trace_bound(0.5, 128)
    assert k2 == 2
    assert bound2 == pytest.approx(2.0, rel=1e-12)


def test_trace_bound_monotone_in_sigma():
    vals = [neumann_trace_bound(s, 32)[1] for s in (0.1, 0.5, 0.9)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        neumann_trace_bound(1.0, 32)


def test_bandlimited_frozen_point():
    d, theta, n = 1, 0.05, 32
    k, bound = bandlimited_bound(d, theta, n)
    head = 1 + 8 * d * theta * (4 * d * theta) ** (4 * d * theta)
    ratio = 4 * d * theta / math.sqrt(n / 8)
    assert k == math.floor(0.5 * (math.log(head) - math.sqrt(n / 8) * math.log(ratio)))
    assert bound == pytest.approx(4 * head * ratio ** math.sqrt(n / 32), rel=1e-9)


def test_bandlimited_monotone_in_n():
    vals = [bandlimited_bound(1, 0.05, n)[1] for n in (16, 32, 64, 128, 512)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bandlimited_precondition():
    with pytest.raises(ValueError):
        bandlimited_bound(1, 0.05, 8)
    with pytest.raises(ValueError):
        bandlimited_bound(1, 0.0, 100)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_bandlimited_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        bandlimited_bound(1, theta, 10**6)


def test_bandlimited_threshold_saturates():
    # 8*(8*d*theta+1)^2 overflowed a float and raised OverflowError
    with pytest.raises(ValueError, match=r"= inf at d=1, theta=1e\+200$"):
        bandlimited_bound(1, 1e200, 10)


def test_bandlimited_survives_huge_dtheta():
    # (4*d*theta)^(4*d*theta) alone is ~1e1666 here; the log path must not raise.
    # Just past the precondition the bound is astronomically large: saturate to inf.
    k, bound = bandlimited_bound(10, 15, 8 * (8 * 10 * 15 + 1) ** 2)
    assert k >= 0 and bound == math.inf
    # at much larger N the same inputs give a tiny (underflowing) finite bound
    k2, bound2 = bandlimited_bound(10, 15, 8 * 6000**2)
    assert k2 > 0 and 0.0 <= bound2 < 1e-300
