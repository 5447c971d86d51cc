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

A chain runs in index space.  Each link is a pick, the row indices of the
chain's root, and Dataset._picked composes a pick of a pick into a pick of
the root; evaluate sums the root's columns of per-row products at the picks
(moments.Dataset).  A Dataset source (mc_estimate's data, a Dataset
population) is picked from by every replica itself, so it builds each
block's column once.  A replica step does only float work on float data: the
coefficients a_j and those of a polynomial F are converted to float once per
run (bit-identical, since Fraction times float is computed as float(a) * b).

A chain over a Dataset picks in blocks of replicas (_replica_picks) and keeps
the seed's values.  Each replica reads the raw words of its draws from its
PCG64, and Generator.integers' rule (Lemire's bounded integers on 32-bit
halves, low half first) turns them into X^1's picks of the source's rows and
its links' picks of N rows.  numpy redraws a replica whose draw it would
reject, and every replica of a chain whose row count or N is 2**32 or more:
integers(rows, size=N), then integers(N, size=(links, N)), which numpy fills
with what one call per link returns.  Only the evaluation differs: a
polynomial that moments._pick_evaluator takes is evaluated a block at a
time, in the order and with the IEEE operations of evaluate; any other
functional runs link by link (_chain_value).  A NormalPopulation source draws
a new root per replica from the replica's generator (its draw), then its
links' picks in one call.

The exhaustive route pushes the exact law of the resampled row multiset one
chain level at a time: C(2N-1, N) states per level with multinomial weights,
instead of the N^N ordered picks, so its cost is linear in the chain length.
"""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, islice

from .debias import exact_bias
from .lattice import CapExceededError, check_block_cap
from .moments import (
    Dataset,
    InfeasibleError,
    MomentPolynomial,
    MomentTable,
    NormalPopulation,
    _is_int,
    _pick_evaluator,
    _scaled,
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


def resample(data, rng):
    """N rows drawn i.i.d. uniformly from data's rows.

    rng is a Generator, or an iterator over a chain's link picks, whose next
    item holds the N picks.
    """
    if hasattr(rng, "__next__"):
        return Dataset._picked(data, next(rng))
    return Dataset._picked(data, rng.integers(data.n, size=data.n).tolist())


def _as_functional(F):
    if isinstance(F, MomentPolynomial):
        return partial(evaluate, F)
    if callable(F):
        return F
    raise TypeError(f"functional must be a MomentPolynomial or callable, not {type(F).__name__}")


def _float_chain(F, coeffs):
    """F and coefficients for chains over float data, as floats where that keeps the bits.

    A polynomial with a non-constant term evaluates to a float on float data,
    and Fraction times float is float(a) * b, so float coefficients give the
    same bits without the Fraction fallback.  A callable, or a constant
    polynomial (which evaluates to a Fraction), keeps its exact coefficients.
    """
    if isinstance(F, MomentPolynomial) and F.max_order() > 0:
        F_float = MomentPolynomial(F.d, {t: float(c) for t, c in F.terms.items()})
        return F_float, tuple(float(a) for a in coeffs)
    return F, tuple(coeffs)


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
# cells per array of a replica block (_replica_picks): draws, picks, products
_BLOCK_CELLS = 2**13
# a drawn replica holds its N x d root cells and k x N link picks as Python
# objects, about 200 bytes a cell: 2**20 cells peak near 220 MB
_DRAW_CAP = 2**20


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


def _pcg64_seeder():
    """The function from a replica's row of _spawn_states to its PCG64.

    Replica i's bit generator is PCG64(s) for s the i-th child of
    SeedSequence(seed), which is what default_rng(child) builds; the child's
    generate_state is replaced by its row of _spawn_states.
    """
    # numpy loads here, on the first draw, not when the package is imported
    import numpy as np
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SpawnedState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: PCG64(SpawnedState(words))


def _replica_states(seed, replicas):
    """The _spawn_states row of every replica 0..replicas-1, in order, derived block by block."""
    for start in range(0, replicas, _SPAWN_BLOCK):
        yield from _spawn_states(seed, start, min(start + _SPAWN_BLOCK, replicas))


def _replica_generators(seed, replicas):
    """The generator of every replica 0..replicas-1, in order."""
    from numpy.random import Generator

    pcg64 = _pcg64_seeder()
    return (Generator(pcg64(words)) for words in _replica_states(seed, replicas))


def _bounded(halves, bound):
    """What Generator.integers(bound) draws from 32-bit halves, and where it draws again.

    For 2 <= bound < 2**32 numpy takes each half u of PCG64's raw words, low
    half first, to (u * bound) >> 32 (Lemire, ACM TOMACS 2019), but rejects
    u, and reads the next half instead, when the low 32 bits of u * bound lie
    below 2**32 % bound.  Returns the picks of all halves as intp and the mask
    of rejected halves; from the first rejected half on, the picks are not
    numpy's.
    """
    import numpy as np
    product = halves.astype(np.uint64) * np.uint64(bound)
    rejected = product & np.uint64(_MASK32) < np.uint64(2**32 % bound)
    return (product >> np.uint64(32)).astype(np.intp), rejected


def _replica_picks(seed, replicas, rows, n, links):
    """X^1's picks (count, n) and the links' picks (count, links, n) of every replica, by blocks.

    A replica's draws are X^1's n picks of the source's rows, then its links'
    picks of n rows, in numpy's order; a bound of 1 takes no half.  So each
    replica reads from its PCG64 the raw words of those picks (_bounded), a
    block of replicas at a time.  A replica with a rejected half, and every
    replica when a bound is 2**32 or more (numpy's 64-bit route), takes its
    picks from its Generator instead.
    """
    import numpy as np
    from numpy.random import Generator

    def draw(halves, bound, shape):
        if bound == 1 or bound > _MASK32:
            return np.zeros(shape, dtype=np.intp), np.full(len(halves), bound > 1)
        picks, rejected = _bounded(halves, bound)
        return picks.reshape(shape), rejected.any(axis=1)

    first = n if rows > 1 else 0
    halves = first + (links * n if n > 1 else 0)
    size = max(1, _BLOCK_CELLS // ((links + 1) * n))
    raw = np.empty((size, (halves + 1) // 2), dtype=np.uint64)
    pcg64 = _pcg64_seeder()
    states = _replica_states(seed, replicas)
    while block := list(islice(states, size)):
        count = len(block)
        for i, words in enumerate(block):
            raw[i] = pcg64(words).random_raw(raw.shape[1])
        u = raw[:count].astype("<u8").view("<u4")[:, :halves]
        picks, rejected = draw(u[:, :first], rows, (count, n))
        steps, rejected_steps = draw(u[:, first:], n, (count, links, n))
        for i in np.flatnonzero(rejected | rejected_steps).tolist():
            rng = Generator(pcg64(block[i]))
            picks[i] = rng.integers(rows, size=n)
            steps[i] = rng.integers(n, size=(links, n))
        yield picks, steps


def _block_values(evaluate_picks, coeffs, picks, steps):
    """The chain values of a block of replicas, from their X^1 picks and link picks.

    Links are picks of picks (take_along_axis), and evaluate_picks is a
    moments._pick_evaluator, so every value has the bits of the replica's own
    chain.
    """
    import numpy as np

    total = np.zeros(len(picks))
    with np.errstate(all="ignore"):
        for j, a in enumerate(coeffs):
            if j > 0:
                picks = np.take_along_axis(picks, steps[:, j - 1], axis=1)
            total += a * evaluate_picks(picks)
    return total.tolist()


def _check_data(data):
    if not isinstance(data, Dataset):
        raise TypeError(f"cannot run a chain on {type(data).__name__}: a Dataset is needed")


def _chain_coefficients(coeffs):
    """coeffs as a tuple; a chain estimator needs a_0 at least."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("chain coefficients are empty: need at least a_0")
    return coeffs


def _mc_values(F, source, n, coeffs, replicas, seed):
    """The chain value of every replica 0..replicas-1, in order.

    A Dataset source is picked from in replica blocks (_replica_picks); a
    polynomial that moments._pick_evaluator takes is evaluated a block at a
    time (_block_values), every other functional by _chain_value, one replica
    at a time.  Any other source (a NormalPopulation) draws each replica's
    root (source.draw) and links from the replica's generator.  Every route
    gives the replica's own bits.
    """
    _check_run(seed, replicas)
    coeffs = _chain_coefficients(coeffs)
    exact_chain = _as_functional(F), coeffs
    float_F, float_coeffs = _float_chain(F, coeffs)
    float_chain = _as_functional(float_F), float_coeffs
    links = len(coeffs) - 1

    def replica_value(r, first, link_picks):
        fn, chain_coeffs = exact_chain if first.exact else float_chain
        try:
            return _chain_value(fn, chain_coeffs, first, iter(link_picks))
        except RuntimeError as exc:
            raise RuntimeError(f"replica {r}: {exc}") from exc

    values = []
    if not isinstance(source, Dataset):
        for r, rng in enumerate(_replica_generators(seed, replicas)):
            first = source.draw(rng, n)
            link_picks = rng.integers(n, size=(links, n)).tolist() if links else ()
            values.append(replica_value(r, first, link_picks))
        return values
    # float_F is F with float coefficients when F is a non-constant polynomial
    evaluate_picks = _pick_evaluator(float_F, source) if float_F is not F else None
    for picks, steps in _replica_picks(seed, replicas, source.n, n, links):
        if evaluate_picks is not None:
            values += _block_values(evaluate_picks, float_coeffs, picks, steps)
        else:
            for first, link_picks in zip(picks.tolist(), steps.tolist()):
                values.append(replica_value(len(values), Dataset._picked(source, first), link_picks))
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
    _check_data(data)
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
    mc_estimate), and each level pushes it through the C(2N-1, N) multinomial
    picks; a state's picks are summed per target once, not once per level.
    The law holds integer counts of ordered paths over N^(N*level), and each
    multiset's chain weight sum_j a_j P(X^{j+1} = multiset) is summed in
    integers over one denominator.  Linear in k: F is then read once per
    multiset, at most C(2N-1, N) times, and the weighted values are summed
    once, exactly, in the order the multisets were first reached.  On float
    data the sum is rounded once, so F's own roundings are the only others
    and the a_j's cancellation costs no digits; a nan or inf value makes the
    sum a float from there on.  Each a_j is taken as an exact Fraction, so a
    float a_j must be finite.  Exact on exact data.
    """
    _check_data(data)
    coeffs = [Fraction(a).as_integer_ratio() for a in _chain_coefficients(coeffs)]
    fn = _as_functional(F)
    n = data.n
    picks = _multiset_picks(n)
    scales, den = _scaled((a, q * n ** (n * level)) for level, (a, q) in enumerate(coeffs, 1))
    law = {tuple(range(n)): 1}
    moves = {}
    weights = {}
    for scale in scales:
        nxt = {}
        for rows, p in law.items():
            if rows not in moves:
                moves[rows] = targets = Counter()
                for pick, w in picks:
                    targets[tuple(sorted([rows[i] for i in pick]))] += w
            for key, w in moves[rows].items():
                nxt[key] = nxt.get(key, 0) + p * w
        law = nxt
        for rows, p in law.items():
            weights[rows] = weights.get(rows, 0) + p * scale
    # one exact sum of the finite values, rounded once if any was a float
    total, floats = 0, False
    for rows, w in weights.items():
        v = fn(Dataset._picked(data, rows))
        if isinstance(v, float) and math.isfinite(v):
            v, floats = Fraction(v), True
        total += Fraction(w, den) * v
    return float(total) if floats else total


def chain_expectation(F, coeffs, data):
    """Exact expectation of the chain estimator, by the operator route.

    With X^1 a redraw of data (N = data.n rows), the chain estimator
    sum_j a_j F(X^{j+1}) has expectation evaluate(S G, data), where
    G = sum_j a_j S^j F.  This is the value that mc_estimate and
    exhaustive_estimate estimate.
    """
    _check_data(data)
    coeffs = _chain_coefficients(coeffs)
    n = data.n
    total = MomentPolynomial(F.d, {})
    g = F
    for j, a in enumerate(coeffs):
        if j > 0:
            g = apply_S(g, n)
        total = total + a * g
    return evaluate(apply_S(total, n), data)


def bias_experiment(F, population, schedule, replicas, seed=0):
    """Empirical bias per iteration count against its exact value and bound.

    The schedule carries the sample size N and the steps eta_1..eta_k_max;
    StepSchedule.unit(N, k_max) gives the stationary iteration.  For each k in
    0..k_max the chain estimator with coefficients
    expansion_coefficients(schedule.etas[:k]) is averaged over fresh replicas
    with X^1 drawn from the population, by row resampling for a Dataset and
    through draw for a NormalPopulation, and compared against row k of
    debias.exact_bias, which reads the same population and also supplies the
    bound.  Returns one ExperimentRow per k.

    Before any table or trajectory is built, a term of more than BLOCK_CAP
    blocks raises CapExceededError, an explicit-moment MomentTable, which
    has no law to draw from, InfeasibleError, and a NormalPopulation replica
    of more than 2**20 cells (N x (d + k)) CapExceededError.
    """
    _check_run(seed, replicas)
    check_block_cap(F.terms)
    n = schedule.n
    if isinstance(population, MomentTable):
        raise InfeasibleError("an explicit moment table has no law to draw X^1 from")
    if not isinstance(population, (Dataset, NormalPopulation)):
        raise TypeError("population must be a Dataset, NormalPopulation or MomentTable")
    drawn = isinstance(population, NormalPopulation)
    cells = n * (population.d + len(schedule))
    if drawn and cells > _DRAW_CAP:
        raise CapExceededError(
            f"one replica draws N x (d + k) = {cells} cells; at most 2**20 are supported"
        )
    table = population if drawn else MomentTable.from_dataset(population, reachable_blocks(F))

    from numpy.random import SeedSequence
    exact = exact_bias(F, schedule, table)
    target = float(exact.target)
    seeds = SeedSequence(seed).generate_state(len(schedule) + 1)
    rows = []
    for k, record in enumerate(exact.records):
        coeffs = expansion_coefficients(schedule.etas[:k])
        values = _mc_values(F, population, n, coeffs, replicas, int(seeds[k]))
        biased = [v - target for v in values]
        report = _report(biased, int(seeds[k]))
        rows.append(ExperimentRow(k, report, record.signed_bias, record.bound))
    return rows
