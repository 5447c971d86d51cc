"""Monte Carlo and exhaustive simulation of resampling chains.

A chain starts from X^1 (the data, or one redraw of it) and repeatedly
resamples N rows with replacement; the estimator sum_j a_j F(X^{j+1})
realizes the coefficient-space iterates in expectation.

Seed contract: the run seed is a nonnegative int.  Every replica owns one
generator, keyed by its index i: the PCG64 stream that numpy's
SeedSequence(seed).spawn(R)[i] seeds.  The seed words of a block of replicas
are derived in one vectorised pass (_spawn_states, numpy's SeedSequence hash
in uint32 arithmetic), with numpy's own spawn as the test oracle, so no
SeedSequence object is built per replica.  Each replica draws one resample per
chain link from its generator, and enlarging the replica count extends earlier
runs instead of reshuffling them.  numpy loads on the first draw, so the exact
routes and the CLI commands that never draw run without it.

A chain runs in index space.  All of its draws over one row count come from
one integers(n, size=(count, n)) call (_Draws), which numpy fills with what
count calls of integers(n, size=n) return, so every seed keeps its values.
Each link is a pick, the row indices of the chain's root, and
Dataset._picked composes a pick of a pick into a pick of the root; evaluate
sums the root's columns of per-row products at the picks (moments.Dataset).
Every chain opens through _start: a sampler draws a new root per replica,
and a Dataset source (mc_estimate's data, a Dataset population) is picked
from by every replica itself, so it builds each block's column once; when it
has N rows, X^1 is drawn in the links' block.  A replica step does only
float work on float data: the coefficients a_j and those of a polynomial F
are converted to float once per run (bit-identical, since Fraction times
float is computed as float(a) * b).  Batching replicas into numpy blocks
would change the seed-to-value mapping and waits for a benchmark change that
re-pins the per-link evaluate/resample counts.

The exhaustive route pushes the exact law of the resampled row multiset one
chain level at a time: C(2N-1, N) states per level with multinomial weights,
instead of the N^N ordered picks, so its cost is linear in the chain length.
"""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

from .debias import exact_bias
from .moments import (
    Dataset,
    MomentPolynomial,
    MomentTable,
    _is_int,
    evaluate,
    reachable_blocks,
)
from .resampling import apply_S


McReport = namedtuple("McReport", "replicas estimate se seed")
ExperimentRow = namedtuple("ExperimentRow", "k report exact_bias bound")


def expansion_coefficients(schedule):
    """The tuple (a_0, ..., a_k) of the chain estimator sum_j a_j F(X^{j+1}).

    Takes the steps: a StepSchedule or a sequence of step sizes.
    Follows a_0' = a_0 + eta, a_j' = a_j - eta*a_{j-1}; k unit steps (the
    stationary iteration) yield the signed binomials binom(k+1, j+1)(-1)^j.
    The coefficients always sum to 1: each step adds eta and subtracts eta
    times the previous total.
    """
    coeffs = [Fraction(1)]
    for eta in schedule:
        nxt = [coeffs[0] + eta]
        nxt.extend(coeffs[j] - eta * coeffs[j - 1] for j in range(1, len(coeffs)))
        nxt.append(-eta * coeffs[-1])
        coeffs = nxt
    return tuple(coeffs)


def _draw(data, n, rng):
    """n rows drawn i.i.d. uniformly from data's rows.

    rng is a Generator, or a chain's _Draws, whose next row holds the n draws.
    """
    if type(rng) is _Draws:
        return Dataset._picked(data, next(rng.rows))
    return Dataset._picked(data, rng.integers(data.n, size=n).tolist())


def resample(data, rng):
    """N rows drawn i.i.d. uniformly from data's rows."""
    return _draw(data, data.n, rng)


class _Draws:
    """count draws of rng.integers(n, size=n) for one chain, made by one call.

    rng.integers(n, size=(count, n)) fills its rows with what count calls of
    rng.integers(n, size=n) return, in order (test_mc.py holds numpy to it),
    so a chain that takes its draws from here keeps its seed's values.
    """

    __slots__ = ("rows",)

    def __init__(self, rng, n, count):
        self.rows = iter(rng.integers(n, size=(count, n)).tolist())


def _as_functional(F):
    if isinstance(F, MomentPolynomial):
        return partial(evaluate, F)
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
        F_float = MomentPolynomial(F.d, {t: float(c) for t, c in F.terms.items()})
        return _as_functional(F_float), tuple(float(a) for a in coeffs)
    return _as_functional(F), tuple(coeffs)


def _chain_value(fn, coeffs, first, draws):
    ds = first
    total = 0.0
    for j, a in enumerate(coeffs):
        if j > 0:
            ds = resample(ds, draws)
        try:
            total += a * fn(ds)
        except Exception as exc:
            raise RuntimeError(f"functional failed at chain depth {j + 1}") from exc
    return total


# numpy's SeedSequence constants (pool of 4 uint32 words)
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# replicas whose seed words are derived, and generators built, at a time
_SPAWN_BLOCK = 4096


def _check_run(seed, replicas):
    """Reject a seed that is not a nonnegative int, and a replica count outside 1..2**32-1.

    Each replica's spawn key is one uint32 word, hence the cap.
    """
    if not _is_int(seed):
        raise TypeError(f"seed must be a nonnegative int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {seed!r}")
    if not _is_int(replicas) or not 1 <= replicas < 2**32:
        raise ValueError(f"replicas must be an int in 1..2**32-1, got {replicas!r}")


def _spawn_states(seed, start, stop):
    """Rows i = start..stop-1 of SeedSequence(seed).spawn(stop)[i].generate_state(4, np.uint64).

    The same hash, vectorised over replicas in uint32 arithmetic: the entropy
    is the seed's 32-bit words (low first, padded to the pool size because a
    spawn key follows) and then the spawn key i; hashmix/mix fold it into a
    pool of 4 words, and generate_state hashes the pool into 8 words, read
    pairwise as little-endian uint64.  The hash constant only depends on the
    step, so it stays a Python int.  Needs 0 <= start <= stop <= 2**32.
    """
    import numpy as np
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    count = stop - start
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))

    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))

    state = np.empty((count, 2 * _POOL), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _replica_generators(seed, replicas):
    """The generator of every replica 0..replicas-1, in order, built block by block.

    Replica i's generator is Generator(PCG64(s)) for s the i-th child of
    SeedSequence(seed), which is what default_rng(child) builds; the child's
    generate_state is replaced by its row of _spawn_states.
    """
    # numpy loads here, on the first draw, not when the package is imported
    import numpy as np
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SpawnedState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    for start in range(0, replicas, _SPAWN_BLOCK):
        for words in _spawn_states(seed, start, min(start + _SPAWN_BLOCK, replicas)):
            yield Generator(PCG64(SpawnedState(words)))


def _chain_coefficients(coeffs):
    """coeffs as a tuple; a chain estimator needs a_0 at least."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("chain coefficients are empty: need at least a_0")
    return coeffs


def _start(source, n, rng, links):
    """X^1 of a chain of n rows and its links' _Draws (None without links).

    A sampler source draws a new root.  A Dataset source is picked from by
    rng, X^1 in the links' block when the Dataset has n rows.
    """
    if isinstance(source, Dataset) and source.n == n:
        draws = _Draws(rng, n, links + 1)
        return _draw(source, n, draws), draws
    first = _draw(source, n, rng) if isinstance(source, Dataset) else source(rng, n)
    return first, _Draws(rng, n, links) if links else None


def _mc_values(F, source, n, coeffs, replicas, seed):
    """The chain value of every replica 0..replicas-1, in order, each opened by _start."""
    _check_run(seed, replicas)
    coeffs = _chain_coefficients(coeffs)
    exact_chain = _as_functional(F), coeffs
    float_chain = _float_chain(F, coeffs)
    links = len(coeffs) - 1
    values = []
    for r, rng in enumerate(_replica_generators(seed, replicas)):
        try:
            first, draws = _start(source, n, rng, links)
            fn, chain_coeffs = exact_chain if first.exact else float_chain
            values.append(_chain_value(fn, chain_coeffs, first, draws))
        except RuntimeError as exc:
            raise RuntimeError(f"replica {r}: {exc}") from exc
    return values


def _report(values, seed):
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return McReport(n, mean, se, seed)


def mc_estimate(F, data, coeffs, replicas, seed):
    """Average the chain estimator over seeded replicas.

    The chain opens with a redraw of data as X^1, so the estimator is unbiased
    for evaluate(apply_S(G), data) where G carries the coefficients.
    """
    values = _mc_values(F, data, data.n, coeffs, replicas, seed)
    return _report(values, seed)


def _multiset_picks(n):
    """Every multiset of n row indices from range(n), with its ordered-pick count.

    n uniform picks land on a multiset with counts c_i in n!/prod(c_i!) of the
    n^n ordered ways; there are C(2n-1, n) multisets.
    """
    out = []
    for pick in combinations_with_replacement(range(n), n):
        ways = math.factorial(n)
        for c in Counter(pick).values():
            ways //= math.factorial(c)
        out.append((pick, ways))
    return out


def exhaustive_estimate(F, data, coeffs):
    """Exact expectation of the chain estimator by total enumeration.

    F must be symmetric in the rows (every MomentPolynomial is), so X^{j+1} is
    known by its row multiset, a sorted tuple of data's row indices.  The exact
    law of that multiset starts at data (X^1 is a redraw of data, as in
    mc_estimate); each level pushes it through the C(2N-1, N) multinomial picks
    and adds a_j E[F].  Linear in k: F is evaluated once per distinct multiset,
    at most C(2N-1, N) times, and a state's picks are summed per target once,
    not once per level.  The law holds integer counts of ordered paths over one
    denominator, N^(N*level); each multiset's probability becomes one Fraction
    when its level is summed, and Fraction times float is float(Fraction) *
    float.  Exact on exact data.
    """
    coeffs = _chain_coefficients(coeffs)
    fn = _as_functional(F)
    n = data.n
    picks = _multiset_picks(n)
    law = {tuple(range(n)): 1}
    moves = {}
    values = {}
    den = 1
    total = 0
    for a in coeffs:
        nxt = {}
        for rows, p in law.items():
            if rows not in moves:
                moves[rows] = targets = Counter()
                for pick, w in picks:
                    targets[tuple(sorted([rows[i] for i in pick]))] += w
            for key, w in moves[rows].items():
                nxt[key] = nxt.get(key, 0) + p * w
        law = nxt
        den *= n**n
        # a plain loop, not sum(): from Python 3.12 sum compensates float sums
        level = 0
        for rows, p in law.items():
            if rows not in values:
                values[rows] = fn(Dataset._picked(data, rows))
            level += Fraction(p, den) * values[rows]
        total += a * level
    return total


def chain_expectation(F, coeffs, data):
    """Exact expectation of the chain estimator, by the operator route.

    With X^1 a redraw of data (N = data.n rows), the chain estimator
    sum_j a_j F(X^{j+1}) has expectation evaluate(S G, data), where
    G = sum_j a_j S^j F.  This is the value that mc_estimate and
    exhaustive_estimate estimate.
    """
    coeffs = _chain_coefficients(coeffs)
    n = data.n
    total = MomentPolynomial(F.d, {})
    g = F
    for j, a in enumerate(coeffs):
        if j > 0:
            g = apply_S(g, n)
        total = total + a * g
    return evaluate(apply_S(total, n), data)


def normal_sampler(d):
    """Sampler drawing n rows of d independent standard normals."""

    def draw(rng, n):
        rows = tuple(map(tuple, rng.standard_normal((n, d)).tolist()))
        return Dataset._validated(rows, exact=False)

    return draw


def bias_experiment(F, population, schedule, replicas, seed=0, sampler=None):
    """Empirical bias per iteration count against its exact value and bound.

    The schedule carries the sample size N and the steps eta_1..eta_k_max;
    StepSchedule.unit(N, k_max) gives the stationary iteration.  For each k in
    0..k_max the chain estimator with coefficients
    expansion_coefficients(schedule.etas[:k]) is averaged over fresh replicas
    with X^1 drawn from the population (by row resampling for a Dataset
    population, through sampler for an analytic MomentTable), and compared
    against row k of debias.exact_bias, which also supplies the bound.
    Returns one ExperimentRow per k.
    """
    _check_run(seed, replicas)
    n = schedule.n
    if isinstance(population, MomentTable):
        if sampler is None:
            raise ValueError("an analytic population needs a sampler to draw X^1")
        table, source = population, sampler
    elif isinstance(population, Dataset):
        table = MomentTable.from_dataset(population, reachable_blocks(F))
        source = population
    else:
        raise TypeError("population must be a Dataset or MomentTable")

    from numpy.random import SeedSequence
    exact = exact_bias(F, schedule, table)
    target = float(exact.target)
    seeds = SeedSequence(seed).generate_state(len(schedule) + 1)
    rows = []
    for k, record in enumerate(exact.records):
        coeffs = expansion_coefficients(schedule.etas[:k])
        values = _mc_values(F, source, n, coeffs, replicas, int(seeds[k]))
        biased = [v - target for v in values]
        report = _report(biased, int(seeds[k]))
        rows.append(ExperimentRow(k, report, record.signed_bias, record.bound))
    return rows
