"""Monte Carlo and exhaustive simulation of resampling chains.

A chain starts from X^1 (the data, or one redraw of it) and repeatedly
resamples N rows with replacement; the estimator sum_j a_j F(X^{j+1})
realizes the coefficient-space iterates in expectation.

Seed contract: every replica owns one generator, spawned from the run seed and
keyed by replica index, and draws one resample per chain link from it, so
enlarging the replica count extends earlier runs instead of reshuffling them.
A replica step does only float work on float data: the coefficients a_j and
those of a polynomial F are converted to float once per run (bit-identical,
since Fraction times float is computed as float(a) * b), and picked rows skip
Dataset validation.  Batching replicas into numpy blocks would change the
seed-to-value mapping and waits for a benchmark change that re-pins the
per-link evaluate/resample counts.

The exhaustive route walks the C(2N-1, N) row multisets of each resample with
multinomial weights instead of the N^N ordered picks.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .debias import StepSchedule, bias_bound, exact_bias
from .moments import (
    Dataset,
    MomentPolynomial,
    MomentTable,
    evaluate,
    reachable_blocks,
)
from .resampling import apply_S


@dataclass(frozen=True)
class EstimatorCoefficients:
    """Scalars a_0..a_k of the chain estimator sum_j a_j F(X^{j+1})."""

    coeffs: tuple

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    @property
    def depth(self):
        """Resampling rounds needed beyond X^1."""
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class McReport:
    replicas: int
    estimate: float
    se: float
    target: object
    seed: object


@dataclass(frozen=True)
class ExperimentRow:
    k: int
    report: McReport
    exact_bias: object
    bound: float


def expansion_coefficients(schedule):
    """Coefficients of the iterate as a combination of chain depths.

    Accepts a StepSchedule or an integer k (stationary, all steps unit).
    Follows a_0' = a_0 + eta, a_j' = a_j - eta*a_{j-1}; stationary k yields
    the signed binomials binom(k+1, j+1)(-1)^j.  The coefficients always sum
    to 1: each step adds eta and subtracts eta times the previous total.
    """
    if isinstance(schedule, int):
        if schedule < 0:
            raise ValueError(f"step count must be nonnegative, got {schedule}")
        etas = [Fraction(1)] * schedule
    else:
        etas = list(schedule)
    coeffs = [Fraction(1)]
    for eta in etas:
        nxt = [coeffs[0] + eta]
        nxt.extend(coeffs[j] - eta * coeffs[j - 1] for j in range(1, len(coeffs)))
        nxt.append(-eta * coeffs[-1])
        coeffs = nxt
    return EstimatorCoefficients(tuple(coeffs))


def _take(data, indices):
    """The rows of data at the given indices, as a Dataset of the same exactness."""
    rows = data.rows
    return Dataset._validated(tuple([rows[i] for i in indices]), data.exact)


def _draw(data, n, rng):
    """n rows drawn i.i.d. uniformly from data's rows."""
    return _take(data, rng.integers(data.n, size=n).tolist())


def resample(data, rng):
    """N rows drawn i.i.d. uniformly from data's rows."""
    return _draw(data, data.n, rng)


def _as_functional(F):
    if isinstance(F, MomentPolynomial):
        return lambda ds: evaluate(F, ds)
    if callable(F):
        return F
    raise TypeError(f"functional must be a MomentPolynomial or callable, not {type(F).__name__}")


def _float_chain(F, coeffs):
    """Functional and coefficients for chains over float data.

    A polynomial with a non-constant term evaluates to a float on float data,
    and Fraction times float is float(a) * b, so float coefficients give the
    same bits without the Fraction fallback.  A callable, or a constant
    polynomial (which evaluates to a Fraction), keeps its exact coefficients.
    """
    if isinstance(F, MomentPolynomial) and F.max_order() > 0:
        F_float = MomentPolynomial(F.d, F.terms, exact=False)
        return _as_functional(F_float), tuple(float(a) for a in coeffs)
    return _as_functional(F), tuple(coeffs)


def _chain_value(fn, coeffs, first, rng):
    ds = first
    total = 0.0
    for j, a in enumerate(coeffs):
        if j > 0:
            ds = resample(ds, rng)
        try:
            total += a * fn(ds)
        except Exception as exc:
            raise RuntimeError(f"functional failed at chain depth {j + 1}") from exc
    return total


def _mc_values(F, first_draw, coeffs, replicas, seed):
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    exact_chain = _as_functional(F), tuple(coeffs)
    float_chain = _float_chain(F, coeffs)
    children = np.random.SeedSequence(seed).spawn(replicas)
    values = []
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        try:
            first = first_draw(rng)
            fn, chain_coeffs = exact_chain if first.exact else float_chain
            values.append(_chain_value(fn, chain_coeffs, first, rng))
        except RuntimeError as exc:
            raise RuntimeError(f"replica {r}: {exc}") from exc
    return values


def _report(values, target, seed):
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return McReport(replicas=n, estimate=mean, se=se, target=target, seed=seed)


def mc_estimate(F, data, coeffs, replicas, seed, resample_first=True, target=None):
    """Average the chain estimator over seeded replicas.

    With resample_first the chain opens with a redraw of data, so the
    estimator is unbiased for evaluate(apply_S(G), data) where G carries the
    coefficients; without it the data itself serves as X^1 and the a_0 term
    is deterministic.
    """
    if resample_first:
        first_draw = lambda rng: resample(data, rng)
    else:
        first_draw = lambda rng: data
    values = _mc_values(F, first_draw, coeffs, replicas, seed)
    return _report(values, target, seed)


def _multiset_picks(n):
    """Every multiset of n row indices from range(n), with its probability.

    n uniform picks land on a multiset with counts c_i with probability
    n!/prod(c_i!) / n^n; there are C(2n-1, n) multisets.
    """
    ordered = n**n
    out = []
    for pick in combinations_with_replacement(range(n), n):
        ways = math.factorial(n)
        for c in Counter(pick).values():
            ways //= math.factorial(c)
        out.append((pick, Fraction(ways, ordered)))
    return out


def exhaustive_estimate(F, data, coeffs):
    """Exact expectation of the chain estimator by total enumeration.

    F must be symmetric in the rows (every MomentPolynomial is), so each
    resample is walked as a row multiset with its multinomial weight: C(2N-1, N)
    branches per chain level instead of N^N, 35 instead of 256 at N = 4.
    Feasible for N <= 4 and shallow chains only; exact on exact data.  X^1 is
    a redraw of data, matching mc_estimate's resample_first convention.
    """
    fn = _as_functional(F)
    coeffs = list(coeffs)
    picks = _multiset_picks(data.n)

    def level(ds, j):
        total = coeffs[j] * fn(ds)
        if j + 1 < len(coeffs):
            for pick, weight in picks:
                total += weight * level(_take(ds, pick), j + 1)
        return total

    total = 0
    for pick, weight in picks:
        total += weight * level(_take(data, pick), 0)
    return total


def normal_sampler(d):
    """Sampler drawing n rows of d independent standard normals."""

    def draw(rng, n):
        rows = tuple(map(tuple, rng.standard_normal((n, d)).tolist()))
        return Dataset._validated(rows, exact=False)

    return draw


def bias_experiment(
    F,
    population,
    n,
    k_max,
    replicas,
    mode="stationary",
    seed=0,
    schedule=None,
    sampler=None,
):
    """Empirical bias per iteration count against its exact value and bound.

    For each k in 0..k_max the chain estimator is averaged over fresh
    replicas with X^1 drawn from the population (by row resampling for a
    Dataset population, through sampler for an analytic MomentTable), and
    compared against debias.exact_bias.  Returns one ExperimentRow per k.
    """
    if isinstance(population, MomentTable):
        if sampler is None:
            raise ValueError("an analytic population needs a sampler to draw X^1")
        table = population
        first_draw = lambda rng: sampler(rng, n)
    elif isinstance(population, Dataset):
        table = MomentTable.from_dataset(population, reachable_blocks(F))
        first_draw = lambda rng: _draw(population, n, rng)
    else:
        raise TypeError("population must be a Dataset or MomentTable")

    if mode == "schedule" and schedule is not None and len(schedule) != k_max:
        raise ValueError("schedule length must equal k_max")
    exact = exact_bias(F, n, k_max, table, mode=mode, schedule=schedule)
    target = exact.target
    m = max(F.max_order(), 1)
    f_one = sum(abs(c) for c in F.terms.values())
    mu_inf = max((abs(table.moment(b)) for b in reachable_blocks(F)), default=0)

    seeds = np.random.SeedSequence(seed).generate_state(k_max + 1)
    rows = []
    for k in range(k_max + 1):
        if mode == "schedule":
            coeffs = expansion_coefficients(
                StepSchedule(n, list(schedule)[:k]) if schedule else StepSchedule.default(n, k)
            )
        else:
            coeffs = expansion_coefficients(k)
        values = _mc_values(F, first_draw, coeffs, replicas, int(seeds[k]))
        biased = [v - float(target) for v in values]
        report = _report(biased, float(exact.records[k].signed_bias), int(seeds[k]))
        rows.append(
            ExperimentRow(
                k=k,
                report=report,
                exact_bias=exact.records[k].signed_bias,
                bound=float(bias_bound(m, n, k, mu_inf, f_one))
                if mode == "stationary"
                else exact.records[k].bound,
            )
        )
    return rows
