"""Exact bias-correction iterations and the bound calculators.

One iteration form covers every estimator: G_j = G_(j-1) + eta_j*(f - S G_(j-1)),
G_0 = f, with bias Prod_i (Id - eta_i S)(S f - f).  A StepSchedule holds the
sample size N and the steps eta_1..eta_k.  The stationary (classical bootstrap)
iteration is StepSchedule.unit(N, k), every eta_i = 1, whose bias after k steps
is -(Id-S)^(k+1) f.  With step sizes eta_i = (falling(N,i)/N^i)^(-1)
(StepSchedule.default) the i-th factor kills the i-block level, so k = m steps
with N >= m leave exactly zero bias.

Everything here is coefficient-space algebra on MomentPolynomial; nothing
draws samples.  Bound calculators work in log space so they survive inputs
far beyond double range.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .lattice import CapExceededError, falling_factorial
from .moments import (
    InfeasibleError,
    MomentPolynomial,
    MomentTable,
    NormalPopulation,
    _check_sample_size,
    _is_exact,
    _scaled,
    evaluate,
    reachable_blocks,
)
from .resampling import apply_S, one_norm_id_minus_S, one_norm_id_minus_scaled


def _check_size(n, k):
    _check_sample_size(n)
    if k < 0:
        raise ValueError(f"step count must be nonnegative, got {k}")
    if k >= 2**20:  # a step list of 2**20 entries is already 8 MB
        raise CapExceededError(f"step count must be < 2**20, got {k}")


class StepSchedule:
    """A sample size N >= 1 together with step sizes eta_1..eta_k."""

    def __init__(self, n, etas):
        self.n = n
        self.etas = tuple(etas)
        _check_size(n, len(self.etas))
        for eta in self.etas:
            if isinstance(eta, bool) or (isinstance(eta, float) and not math.isfinite(eta)):
                raise ValueError(f"step sizes must be finite numbers, got {eta!r}")
            if eta <= 0:
                raise ValueError("step sizes must be positive")

    @classmethod
    def default(cls, n, k):
        """eta_i = N^i (N-i)! / N!, the reciprocal level-i diagonal weight."""
        _check_size(n, k)
        if k > n:
            raise InfeasibleError(
                f"default schedule needs k <= N, got k={k} steps at N={n}"
            )
        return cls(n, [Fraction(n**i, falling_factorial(n, i)) for i in range(1, k + 1)])

    @classmethod
    def unit(cls, n, k):
        _check_size(n, k)
        return cls(n, [Fraction(1)] * k)

    def __len__(self):
        return len(self.etas)

    def __iter__(self):
        return iter(self.etas)

    def __getitem__(self, i):
        return self.etas[i]

    def __repr__(self):
        return f"StepSchedule(N={self.n}, etas={self.etas})"


# -- iterations ------------------------------------------------------------------

def richardson_debias(F, n, k):
    """k corrected steps of the stationary iteration, recursion form."""
    return nonstationary_debias(F, n, StepSchedule.unit(n, k))


def richardson_neumann(F, n, k):
    """Same estimator as the partial sum sum_{i<=k} (Id-S)^i f.

    Deliberately a second, independent route; tests compare the two.
    """
    if k < 0:
        raise ValueError(f"step count must be nonnegative, got {k}")
    total = F
    p = F
    for _ in range(k):
        p = p - apply_S(p, n)
        total = total + p
    return total


def nonstationary_debias(F, n, schedule):
    """Scheduled steps G_j = G_(j-1) + eta_j*(f - S G_(j-1)), G_0 = f.

    n must be the schedule's own sample size; an empty schedule returns f.
    """
    if n != schedule.n:
        raise ValueError(f"sample size {n} differs from the schedule's N={schedule.n}")
    g = F
    for eta in schedule:
        g = g + eta * (F - apply_S(g, n))
    return g


# -- exact bias trajectories -------------------------------------------------------

BiasRecord = namedtuple("BiasRecord", "k estimator signed_bias abs_bias bound")


class BiasReport(namedtuple("BiasReport", "target records")):
    __slots__ = ()

    def rows(self):
        """(k, signed_bias, abs_bias, bound) per iteration."""
        return [(r.k, r.signed_bias, r.abs_bias, r.bound) for r in self.records]


def exact_bias(F, schedule, population):
    """Bias trajectory of the scheduled iterates against a MomentTable or a NormalPopulation.

    The schedule carries the sample size N and the steps eta_1..eta_k; the
    stationary iteration is StepSchedule.unit(N, k).  Signed bias at step j is
    evaluate(S g_j - f, population); the bound column is
    mu_inf * f_one * ||Id-S||_1 times the running product of the step norms
    ||Id-eta_i*S||_1.  The population must give a moment for every block the
    terms of F can merge into.  A term of more than BLOCK_CAP blocks raises
    CapExceededError (from reachable_blocks) before any moment is read.
    """
    if not isinstance(population, (MomentTable, NormalPopulation)):
        raise TypeError("population must be a MomentTable or a NormalPopulation")
    n = schedule.n
    m = F.max_order()
    mu_inf = max((abs(population.moment(b)) for b in reachable_blocks(F)), default=0)
    f_one = sum(abs(c) for c in F.terms.values())
    target = evaluate(F, population)

    def norm(eta):
        # a constant F (m = 0) carries no bias, so its bound is 0
        return one_norm_id_minus_scaled(m, n, eta) if m >= 1 else Fraction(0)

    etas = schedule.etas
    records = []
    g = F
    bound = mu_inf * f_one * norm(1)
    for j in range(len(etas) + 1):
        signed = evaluate(apply_S(g, n), population) - target
        records.append(BiasRecord(j, g, signed, abs(signed), _saturated(float, bound)))
        if j == len(etas):
            break
        eta = etas[j]
        g = _step(g, eta, F, apply_S(g, n))
        bound = bound * norm(eta)
    return BiasReport(target, tuple(records))


def _step(g, eta, F, Sg):
    """The next iterate g + eta*(F - Sg), as nonstationary_debias forms it.

    For an exact g, F and eta = p/q, one integer pass over one common
    denominator: with D the lcm of the coefficients' denominators (_scaled),
    each term sums q*D*g_t + p*D*F_t - p*D*Sg_t and becomes one Fraction
    over q*D.
    The terms come in the order the operator arithmetic leaves them (g's,
    then F's, then Sg's, zeros dropped), which keeps every merge plan key.
    Any other step takes that arithmetic.
    """
    if not (g.exact and F.exact and _is_exact(eta)):
        return g + eta * (F - Sg)
    p, q = Fraction(eta).as_integer_ratio()
    nums, den = _scaled(c.as_integer_ratio() for P in (g, F, Sg) for c in P.terms.values())
    nums = iter(nums)
    sums = {}
    for P, w in ((g, q), (F, p), (Sg, -p)):
        for t, num in zip(P.terms, nums):  # the terms first: zip stops at their end
            sums[t] = sums.get(t, 0) + w * num
    return MomentPolynomial._validated(
        g.d, ((t, Fraction(s, q * den)) for t, s in sums.items()), True
    )


# -- bound calculators --------------------------------------------------------------

def bias_bound(m, n, k, mu_inf, f_one):
    """mu_inf * f_one * (2(1 - falling(N,m)/N^m))^(k+1)."""
    if m < 1 or n < 1 or k < 0:
        raise ValueError("need m, N >= 1 and k >= 0")
    return mu_inf * f_one * one_norm_id_minus_S(m, n) ** (k + 1)


def _check_gammas(gammas):
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("gamma sequence is empty")
    if any(g < 0 for g in gammas):
        raise ValueError("gamma sequence must be nonnegative")
    if any(a < b for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gamma sequence must be nonincreasing")
    return gammas


def _cut_index(n):
    return math.ceil(math.sqrt(n / 8))


def _saturated(to_float, x):
    # a bound beyond double range carries no information; saturate instead of raising
    try:
        return to_float(x)
    except OverflowError:
        return math.inf


def general_bound(gammas, n):
    """(k_star, bound) from a tail-mass sequence gamma_0 >= gamma_1 >= ...

    k_star = floor(log2(gamma_0/gamma_cut)/2) and bound =
    sqrt(16 * gamma_0 * gamma_cut), where cut = ceil(sqrt(N/8)).
    """
    gammas = _check_gammas(gammas)
    if n < 1:
        raise ValueError("N must be positive")
    _check_sample_size(n)
    cut = _cut_index(n)
    if cut >= len(gammas):
        raise ValueError(
            f"gamma sequence of length {len(gammas)} has no index {cut} = ceil(sqrt(N/8))"
        )
    g0, gc = gammas[0], gammas[cut]
    if gc == 0 or g0 == 0:
        return math.inf if gc == 0 and g0 > 0 else 0, 0.0
    k_star = math.floor(0.5 * (math.log2(g0) - math.log2(gc)))
    bound = 4.0 * math.exp(0.5 * (math.log(g0) + math.log(gc)))
    return k_star, bound


def bandlimited_bound(d, theta, n):
    """(k, bound) for a bandlimited function of a sub-Gaussian mean.

    Requires N >= 8(8 d theta + 1)^2 so the high-order tail contracts.
    All products are assembled from logs; (4 d theta)^(4 d theta) alone
    overflows doubles near d*theta ~ 40.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if d < 1 or theta <= 0:
        raise ValueError("need d >= 1 and theta > 0")
    _check_sample_size(n)
    least = _saturated(lambda t: 8 * (8 * d * t + 1) ** 2, theta)
    if n < least:
        raise ValueError(
            f"N={n} below the required 8*(8*d*theta+1)^2 = {least:.6g} at d={d}, theta={theta}"
        )
    x = 4 * d * theta
    t = math.log(8 * d * theta) + x * math.log(x)
    log_head = t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))
    root = math.sqrt(n / 8)
    log_ratio = math.log(x) - math.log(root)
    k = math.floor(0.5 * (log_head - root * log_ratio))
    log_bound = math.log(4) + log_head + math.sqrt(n / 32) * log_ratio
    return k, _saturated(math.exp, log_bound)


def neumann_trace_bound(sigma, n):
    """(k, bound) for the trace of an inverted random-matrix mean.

    k = floor(-sqrt(N/8) * log(sigma)); bound = 4 sigma^sqrt(N/32)/(1-sigma).
    """
    if not 0 < sigma < 1:
        raise ValueError(f"sigma must lie in (0,1), got {sigma}")
    if n < 1:
        raise ValueError("N must be positive")
    _check_sample_size(n)
    k = math.floor(-math.sqrt(n / 8) * math.log(sigma))
    # sigma^sqrt(N/32) <= 1 and 4/(1-sigma) stays within double range, so the
    # direct product is safe and exact at round powers where exp(log .) is not
    bound = 4 / (1 - sigma) * sigma ** math.sqrt(n / 32)
    return k, bound
