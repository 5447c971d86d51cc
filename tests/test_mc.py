"""Chain simulation: coefficients, exhaustive oracle, seeded replicas."""

import ast
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobiusboot
import oracles

from mobiusboot.debias import StepSchedule, nonstationary_debias, richardson_debias
from mobiusboot.mc import (
    _report,
    bias_experiment,
    chain_expectation,
    exhaustive_estimate,
    expansion_coefficients,
    mc_estimate,
    resample,
    _mc_values,
    _multiset_picks,
    _as_functional,
    _bounded,
    _replica_generators,
    _spawn_states,
)
from mobiusboot.lattice import CapExceededError
from mobiusboot.moments import (
    Dataset,
    InfeasibleError,
    LabeledTerm,
    MomentPolynomial,
    MomentTable,
    NormalPopulation,
    _pick_evaluator,
    evaluate,
    normal_moment_table,
    reachable_blocks,
)
from mobiusboot.debias import exact_bias
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
    assert type(expansion_coefficients([1])) is tuple
    assert expansion_coefficients([]) == (1,)
    assert expansion_coefficients([1]) == (2, -1)
    assert expansion_coefficients([1, 1]) == (3, -3, 1)
    for k in (3, 5, 8):
        got = expansion_coefficients([1] * k)
        want = tuple(
            Fraction(math.comb(k + 1, j + 1) * (-1) ** j) for j in range(k + 1)
        )
        assert got == want


def test_default_schedule_coefficients_frozen():
    assert expansion_coefficients(StepSchedule.default(2, 2)) == (4, -5, 2)
    assert expansion_coefficients(StepSchedule.default(10, 2)) == (
        Fraction(28, 9),
        Fraction(-29, 9),
        Fraction(10, 9),
    )


def test_coefficients_sum_to_one():
    rng = random.Random(2)
    for _ in range(10):
        etas = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        coeffs = expansion_coefficients(StepSchedule(12, etas))
        assert sum(coeffs) == 1


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
        assert _poly_from_coeffs(F, n, expansion_coefficients([1] * k)) == richardson_debias(
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
    assert sum(w for _, w in picks) == n**n  # ordered-pick counts of n draws
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
    for coeffs_src in ([1], StepSchedule.default(n, 2)):
        coeffs = expansion_coefficients(coeffs_src)
        got = exhaustive_estimate(F, data, coeffs)
        G = _poly_from_coeffs(F, n, coeffs)
        assert got == evaluate(apply_S(G, n), data)


@pytest.mark.parametrize("n", [2, 3])
def test_chain_expectation_equals_exhaustive_walk(n):
    rng = random.Random(60 + n)
    data = Dataset(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)] for _ in range(n)]
    )
    for schedule in (StepSchedule.unit(n, 2), StepSchedule(n, [Fraction(1, 2), Fraction(3)])):
        coeffs = expansion_coefficients(schedule)
        assert chain_expectation(COVARIANCE_PLUS, coeffs, data) == exhaustive_estimate(
            COVARIANCE_PLUS, data, coeffs
        )


def test_exhaustive_evaluates_each_multiset_once():
    # N = 4 rows have C(7, 4) = 35 row multisets; nine chain levels reach each
    # of them, yet F of a multiset does not depend on the level
    data = Dataset([[Fraction(v)] for v in (3, -1, 2, 5)])
    calls = []

    def counted(ds):
        calls.append(ds.rows)
        return evaluate(variance_poly(), ds)

    coeffs = expansion_coefficients(StepSchedule.unit(4, 8))
    assert exhaustive_estimate(counted, data, coeffs) == exhaustive_estimate(
        variance_poly(), data, coeffs
    )
    assert len(calls) == math.comb(7, 4) == len(set(calls))


@pytest.mark.parametrize("k", [20, 40, 80])
def test_exhaustive_keeps_its_digits_on_float_data_as_k_grows(k):
    # the a_j of k unit steps alternate in sign and grow with k: each
    # multiset's chain weight is summed exactly, so their cancellation costs
    # no digits; summed in floats level by level it cost about log10 sum|a_j|
    data = Dataset([[0.5], [1.25], [-2.0], [3.5]])
    coeffs = expansion_coefficients(StepSchedule.unit(4, k))
    got = exhaustive_estimate(variance_poly(), data, coeffs)
    assert type(got) is float
    assert got == pytest.approx(chain_expectation(variance_poly(), coeffs, data), rel=1e-12, abs=0)


def test_exhaustive_keeps_a_non_finite_value():
    # the exact sum takes finite floats only: inf stays inf, and inf - inf is nan
    data = Dataset([[0.5], [1.25], [-2.0]])
    assert exhaustive_estimate(lambda ds: math.inf, data, (1,)) == math.inf
    assert math.isnan(exhaustive_estimate(lambda ds: math.inf, data, (1, -1)))


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
    report = mc_estimate(F, data, expansion_coefficients([]), 3000, seed=5)
    want = evaluate(F, data)
    assert abs(report.estimate - want) <= 3 * report.se
    assert report.se > 0


def test_mc_seeded_determinism():
    F = variance_poly()
    data = Dataset([[float(v)] for v in (0.0, 1.5, -2.0, 0.5)])
    coeffs = expansion_coefficients([1])
    a = mc_estimate(F, data, coeffs, 500, seed=11)
    b = mc_estimate(F, data, coeffs, 500, seed=11)
    assert a == b
    c = mc_estimate(F, data, coeffs, 500, seed=12)
    assert c.estimate != a.estimate


def test_replica_substreams_are_prefix_stable():
    F = variance_poly()
    data = Dataset([[float(v)] for v in (0.0, 1.5, -2.0, 0.5)])
    fn = _as_functional(F)
    coeffs = expansion_coefficients([1])
    short = _mc_values(fn, data, data.n, coeffs, 100, 9)
    long = _mc_values(fn, data, data.n, coeffs, 400, 9)
    assert long[:100] == short


SPAWN_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128, 2**130 + 3]


@pytest.mark.parametrize("seed", SPAWN_SEEDS)
@pytest.mark.parametrize("replicas", [1, 7, 1000])
def test_spawn_states_match_numpy_spawn(seed, replicas):
    want = [
        child.generate_state(4, np.uint64)
        for child in np.random.SeedSequence(seed).spawn(replicas)
    ]
    got = _spawn_states(seed, 0, replicas)
    assert got.dtype == np.uint64 and got.shape == (replicas, 4)
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("seed", SPAWN_SEEDS)
def test_spawn_states_are_prefix_stable(seed):
    assert np.array_equal(_spawn_states(seed, 0, 200)[:50], _spawn_states(seed, 0, 50))
    assert np.array_equal(_spawn_states(seed, 0, 200)[120:], _spawn_states(seed, 120, 200))


def test_replica_generators_equal_default_rng_of_spawned_children():
    # 5000 replicas span two blocks of the generator pass
    got = [rng.integers(2**62, size=3).tolist() for rng in _replica_generators(2**40 + 5, 5000)]
    want = [
        np.random.default_rng(child).integers(2**62, size=3).tolist()
        for child in np.random.SeedSequence(2**40 + 5).spawn(5000)
    ]
    assert got == want


@pytest.mark.parametrize(
    "seed, error",
    [(None, TypeError), (True, TypeError), (1.0, TypeError), ("7", TypeError), (-1, ValueError)],
)
def test_bad_seed_rejected_before_any_replica(seed, error):
    calls = []
    population = NormalPopulation(1)
    population.draw = lambda rng, n: calls.append(rng) or DATA4
    with pytest.raises(error, match="seed must be a nonnegative int"):
        _mc_values(variance_poly(), population, 4, (1,), 3, seed)
    with pytest.raises(error, match=repr(seed)):
        mc_estimate(variance_poly(), DATA4, (1,), 3, seed)
    with pytest.raises(error, match="seed must be a nonnegative int"):
        bias_experiment(variance_poly(), population, StepSchedule.unit(4, 1), 3, seed=seed)
    assert calls == []


@pytest.mark.parametrize("replicas", [0, 2**32, 2**40, 3.0, True])
def test_replica_count_outside_uint32_keys_rejected(replicas):
    with pytest.raises(ValueError, match="replicas must be an int in 1..2\\*\\*32-1"):
        mc_estimate(variance_poly(), DATA4, (1,), replicas, 0)
    with pytest.raises(ValueError, match="replicas must be an int"):
        bias_experiment(variance_poly(), NormalPopulation(1), StepSchedule.unit(4, 1), replicas)


def test_cli_import_leaves_numpy_random_unloaded():
    # the generator pass imports numpy.random on first use: loading it with the
    # package would raise every CLI run's peak memory; the result records are
    # named tuples, so neither dataclasses nor the inspect it imports loads.
    # The same holds for the writer and the selftest imported on their own,
    # and `import mobiusboot` loads neither, so its cost does not grow by them
    env = dict(os.environ, PYTHONPATH=str(Path(mobiusboot.__file__).parents[1]))
    cases = [
        (module, ["numpy.random", "dataclasses", "inspect"])
        for module in ("mobiusboot.cli", "mobiusboot.artifact", "mobiusboot.selftest")
    ]
    cases.append(("mobiusboot", ["mobiusboot.artifact", "mobiusboot.selftest"]))
    for module, names in cases:
        code = f"import sys, {module}; print([n for n in {names!r} if n in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]", module


def test_only_drawing_commands_load_numpy(tmp_path):
    # numpy loads on the first Monte Carlo draw: every exact command runs
    # without it, and only the replica run loads it
    (tmp_path / "var.json").write_text(
        '{"d": 1, "terms": [{"blocks": [[0], [0]], "coeff": "-1"},'
        ' {"blocks": [[0, 0]], "coeff": "1"}]}'
    )
    (tmp_path / "pop.json").write_text('{"family": "normal", "d": 1}')
    (tmp_path / "data.csv").write_text("x\n0.0\n1.0\n2.0\n")
    chain = ["mc-run", "--functional", "var.json", "--data", "data.csv", "--k", "2"]
    commands = [
        ["lattice", "--m", "4", "--out", "lat"],
        ["smatrix", "--m", "3", "--n", "3", "--out", "sm"],
        ["smatrix", "--m", "4", "--n", "3", "--reduced", "--out", "red"],
        ["bias", "--functional", "var.json", "--population", "pop.json", "--n", "4", "--k", "2",
         "--out", "bias"],
        ["selftest"],
        chain + ["--exhaustive", "--out", "ex"],
        chain + ["--replicas", "20", "--out", "mc"],
    ]
    code = (
        "import json, sys\n"
        "from mobiusboot.cli import main\n"
        "print(json.dumps([[main(argv), 'numpy' in sys.modules] for argv in json.loads(sys.argv[1])]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mobiusboot.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == [[0, False]] * (len(commands) - 1) + [[0, True]]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux's /proc")
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "two"])
def test_mc_run_starts_numpy_with_one_blas_thread(tmp_path, setting):
    # an OpenBLAS worker thread would only spin, since no route calls BLAS:
    # cli.main starts numpy with one thread, keeps a caller's own setting,
    # and importing the package sets nothing
    (tmp_path / "var.json").write_text(
        '{"d": 1, "terms": [{"blocks": [[0], [0]], "coeff": "-1"},'
        ' {"blocks": [[0, 0]], "coeff": "1"}]}'
    )
    (tmp_path / "data.csv").write_text("x\n0.0\n1.0\n2.0\n")
    argv = ["mc-run", "--functional", "var.json", "--data", "data.csv", "--k", "2",
            "--replicas", "20", "--out", "mc"]
    code = (
        "import json, os, sys\n"
        "from mobiusboot.cli import main\n"
        "imported = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        "rc = main(sys.argv[1:])\n"
        "print(json.dumps([rc, 'numpy' in sys.modules, imported,"
        " os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task'))]))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(mobiusboot.__file__).parents[1])
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    rc, loaded, imported, threads, tasks = json.loads(out.stdout.splitlines()[-1])
    assert [rc, loaded, imported, threads] == [0, True, setting, setting or "1"]
    if setting is None:
        assert tasks == 1


def test_float_chain_bit_identical_to_fraction_coefficients():
    # the float-coefficient path for polynomials must reproduce, bit for bit,
    # Fraction coefficients times float evaluations
    rng = random.Random(3)
    data = Dataset([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(12)])
    coeffs = expansion_coefficients(StepSchedule.default(12, 2))
    assert all(isinstance(a, Fraction) for a in coeffs)
    slow_fn = lambda ds: evaluate(COVARIANCE_PLUS, ds)
    for source, n in ((data, data.n), (NormalPopulation(2), 7)):
        fast = _mc_values(COVARIANCE_PLUS, source, n, coeffs, 200, 17)
        slow = _mc_values(slow_fn, source, n, coeffs, 200, 17)
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
    assert _mc_values(COVARIANCE_PLUS, data, data.n, coeffs, 50, 8) == want


def _replayed_chains(first_draw, length, replicas, seed):
    for child in np.random.SeedSequence(seed).spawn(replicas):
        rng = np.random.default_rng(child)
        chain = [first_draw(rng)]
        while len(chain) < length:
            chain.append(resample(chain[-1], rng))
        yield chain


class RecordedDraws:
    """A generator that records the size of each draw it makes."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, high, size):
        self.sizes.append(size)
        return self.rng.integers(high, size=size)

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("links", [0, 1, 3])
def test_sampler_draws_x1_then_the_links_block(monkeypatch, links):
    # a normal population draws a new root per replica from the replica's generator, X^1
    # of (n, d) normals, then every link's picks in one integers(n, size=(links, n))
    # call (none without links); the links are picks of that root
    from mobiusboot import mc

    recorded = []

    def generators(seed, replicas):
        for child in np.random.SeedSequence(seed).spawn(replicas):
            recorded.append(RecordedDraws(child))
            yield recorded[-1]

    monkeypatch.setattr(mc, "_replica_generators", generators)
    calls = counted_evaluate(monkeypatch)
    population, n, F = NormalPopulation(2), 4, cubic_poly(2)
    coeffs = expansion_coefficients([1] * links)
    got = _mc_values(F, population, n, coeffs, 5, 40)
    assert [rng.sizes for rng in recorded] == [[(n, 2)] + ([(links, n)] if links else [])] * 5
    assert_same_values(got, oracles.chain_values(F, population, n, coeffs, 5, 40))
    assert len(calls) == 5 * (links + 1)
    for r in range(5):
        first, *chain = calls[r * (links + 1):(r + 1) * (links + 1)]
        assert first.picks is None and first.n == n
        assert all(ds.root is first and ds.n == n for ds in chain)


@pytest.mark.parametrize(
    "run",
    [
        lambda coeffs: mc_estimate(variance_poly(), DATA4, coeffs, 3, 0),
        lambda coeffs: exhaustive_estimate(variance_poly(), DATA4, coeffs),
        lambda coeffs: chain_expectation(variance_poly(), coeffs, DATA4),
    ],
    ids=["mc_estimate", "exhaustive_estimate", "chain_expectation"],
)
@pytest.mark.parametrize("empty", [(), [], iter(())], ids=["tuple", "list", "iterator"])
def test_empty_coefficients_rejected_by_every_chain_route(run, empty):
    # a chain estimator has a_0 at least; no route returns 0 or leaks StopIteration
    with pytest.raises(ValueError, match="chain coefficients are empty"):
        run(empty)


NOT_DATA = pytest.mark.parametrize(
    "data", [normal_moment_table(1, 2), [[1.0], [2.0]]], ids=["MomentTable", "list"]
)


def _not_reached(*args):
    raise AssertionError("reached before data was checked")


@NOT_DATA
def test_mc_estimate_names_data_that_is_not_a_dataset(data, monkeypatch):
    # checked before any replica is drawn, so before numpy loads
    monkeypatch.setattr(mobiusboot.mc, "_replica_picks", _not_reached)
    monkeypatch.setattr(mobiusboot.mc, "_pcg64_seeder", _not_reached)
    with pytest.raises(TypeError, match=f"cannot run a chain on {type(data).__name__}"):
        mc_estimate(variance_poly(), data, (1, -1), 3, 0)


@NOT_DATA
def test_exhaustive_estimate_names_data_that_is_not_a_dataset(data, monkeypatch):
    monkeypatch.setattr(mobiusboot.mc, "_multiset_picks", _not_reached)
    with pytest.raises(TypeError, match=f"cannot run a chain on {type(data).__name__}"):
        exhaustive_estimate(variance_poly(), data, (1, -1))


@NOT_DATA
def test_chain_expectation_names_data_that_is_not_a_dataset(data, monkeypatch):
    monkeypatch.setattr(mobiusboot.mc, "apply_S", _not_reached)
    with pytest.raises(TypeError, match=f"cannot run a chain on {type(data).__name__}"):
        chain_expectation(variance_poly(), (1, -1), data)


def test_mc_reads_no_pick_layout():
    # the pick layout (root, picks, columns) stays behind Dataset: mc composes
    # picks through Dataset._picked alone, so the layout can change in one module
    from mobiusboot import mc

    tree = ast.parse(Path(mc.__file__).read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert attrs & {"root", "picks", "columns"} == set()
    assert "_picked" in attrs  # the walk sees attribute reads


def test_normal_population_draws_python_floats():
    ds = NormalPopulation(3).draw(np.random.default_rng(0), 4)
    assert ds.n == 4 and ds.d == 3 and not ds.exact
    assert all(type(v) is float for row in ds.rows for v in row)
    assert all(type(row) is tuple for row in ds.rows)
    assert ds.rows == tuple(map(tuple, np.random.default_rng(0).standard_normal((4, 3)).tolist()))


def test_mc_functional_error_names_replica():
    def bad(ds):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="replica 0"):
        mc_estimate(bad, Dataset([[1.0]]), expansion_coefficients([]), 3, seed=0)


def test_se_scaling_with_replicas():
    F = variance_poly()
    data = Dataset([[float(v)] for v in (0.0, 1.0, 2.0, 5.0, -3.0)])
    coeffs = expansion_coefficients([1])
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
    rows = bias_experiment(F, NormalPopulation(1), StepSchedule.default(10, 2), replicas=4000, seed=2024)
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
    rows = bias_experiment(F, pop, StepSchedule.unit(6, 1), replicas=3000, seed=7)
    table = MomentTable.from_dataset(pop, [(0,), (0, 0)])
    v = evaluate(F, table)
    assert rows[0].exact_bias == -v * Fraction(1, 6)
    assert rows[1].exact_bias == -v * Fraction(1, 36)
    for row in rows:
        assert abs(row.report.estimate - float(row.exact_bias)) <= 3 * row.report.se


def _exact_bias_not_wanted(*args):
    raise AssertionError("the exact trajectory ran before the check")


def test_bias_experiment_over_the_block_cap_tabulates_nothing(monkeypatch):
    # 13 singleton blocks over 200 rows spent 0.85 s in from_dataset's 2^13
    # unions before exact_bias reached the block cap
    def from_dataset_not_wanted(cls, data, blocks):
        raise AssertionError("the moment table was tabulated before the block cap")

    monkeypatch.setattr(MomentTable, "from_dataset", classmethod(from_dataset_not_wanted))
    monkeypatch.setattr(mobiusboot.mc, "exact_bias", _exact_bias_not_wanted)
    rng = random.Random(77)
    pop = Dataset([[rng.random() for _ in range(13)] for _ in range(200)])
    F = MomentPolynomial(13, {LabeledTerm([[i] for i in range(13)]): 1})
    for population in (pop, NormalPopulation(13), normal_moment_table(13, 1)):
        # an explicit moment table, which has no law to draw from, meets the cap first, too
        with pytest.raises(CapExceededError, match="^a term has 13 blocks; at most 10 per term"):
            bias_experiment(F, population, StepSchedule.unit(20, 1), 10)


def test_bias_experiment_rejects_explicit_moment_tables(monkeypatch):
    # a MomentTable gives moments but no law to draw X^1 from; exact_bias
    # reads moments only, so it accepts one
    monkeypatch.setattr(mobiusboot.mc, "exact_bias", _exact_bias_not_wanted)
    with pytest.raises(InfeasibleError, match="^an explicit moment table has no law to draw X\\^1 from$"):
        bias_experiment(variance_poly(), normal_moment_table(1, 4), StepSchedule.unit(10, 1), 10)
    with pytest.raises(TypeError, match="^population must be a Dataset, NormalPopulation or MomentTable$"):
        bias_experiment(variance_poly(), [[1.0], [2.0]], StepSchedule.unit(10, 1), 10)


@pytest.mark.parametrize("d, n, k", [(1, 2**20 + 1, 0), (3, 2**18, 2), (1, 2**19 + 1, 1)])
def test_bias_experiment_over_the_draw_cap_runs_no_trajectory(monkeypatch, d, n, k):
    # a normal population's replica draws N x d root cells and k x N link picks
    monkeypatch.setattr(mobiusboot.mc, "exact_bias", _exact_bias_not_wanted)
    with pytest.raises(CapExceededError, match=rf"^one replica draws N x \(d \+ k\) = {n * (d + k)} cells"):
        bias_experiment(variance_poly(), NormalPopulation(d), StepSchedule.unit(n, k), 1)
    # 2**20 cells are allowed: the run goes on to the exact trajectory
    with pytest.raises(AssertionError, match="the exact trajectory ran"):
        bias_experiment(variance_poly(), NormalPopulation(1), StepSchedule.unit(2**19, 1), 1)


def test_exact_column_independent_of_replicas():
    F = variance_poly()
    pop = NormalPopulation(1)
    unit = StepSchedule.unit(10, 1)
    a = bias_experiment(F, pop, unit, 50, seed=1)
    b = bias_experiment(F, pop, unit, 200, seed=9)
    assert [r.exact_bias for r in a] == [r.exact_bias for r in b]


# -- chains in index space against the per-link oracle ----------------------------------

# reproducible examples, no example database written next to the tests
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# mixed magnitudes, so that a sum in another order rounds to other bits
FLOAT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1 / 3, -3.0, 1e16, -7e15]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
EXACT_CELLS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def chain_inputs(draw, max_rows=8):
    """Float or exact p/q rows, an exact polynomial over their labels and up to 3 steps."""
    exact = draw(st.booleans())
    d = draw(st.integers(1, 2))
    rows = draw(st.lists(
        st.lists(EXACT_CELLS if exact else FLOAT_CELLS, min_size=d, max_size=d),
        min_size=1, max_size=max_rows,
    ))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        blocks = draw(st.lists(
            st.lists(st.integers(0, d - 1), min_size=1, max_size=3), min_size=1, max_size=3
        ))
        terms[LabeledTerm(blocks)] = draw(EXACT_CELLS.filter(bool))
    steps = draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4),
                          max_size=3))
    return Dataset(rows), MomentPolynomial(d, terms), steps


def row_spread(ds):
    """A functional that reads the rows themselves, not their moments."""
    return max(row[-1] for row in ds.rows) - ds.rows[0][0] * ds.n / ds.d


def same(got, want):
    # repr tells -0.0 from 0.0 and shows every bit of a float; Fractions compare exactly
    return repr(got) == repr(want)


@PROPERTY
@given(chain_inputs(), st.integers(1, 6), st.integers(0, 2**40))
def test_mc_estimate_matches_per_link_oracle(case, replicas, seed):
    data, F, steps = case
    coeffs = expansion_coefficients(steps)
    for fn in (F, row_spread):
        want = oracles.chain_values(fn, data, data.n, coeffs, replicas, seed)
        assert same(mc_estimate(fn, data, coeffs, replicas, seed), _report(want, seed))


@PROPERTY
@given(chain_inputs(), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**40))
def test_bias_experiment_dataset_population_matches_per_link_oracle(case, n, replicas, seed):
    # the population has 1..8 rows and the chains N = 1..5, often another count
    population, F, steps = case
    schedule = StepSchedule(n, steps)
    table = MomentTable.from_dataset(population, reachable_blocks(F))
    target = float(exact_bias(F, schedule, table).target)
    seeds = np.random.SeedSequence(seed).generate_state(len(schedule) + 1)
    rows = bias_experiment(F, population, schedule, replicas, seed)
    for k, row in enumerate(rows):
        coeffs = expansion_coefficients(steps[:k])
        want = oracles.chain_values(F, population, n, coeffs, replicas, int(seeds[k]))
        assert same(row.report, _report([v - target for v in want], int(seeds[k])))


@PROPERTY
@given(chain_inputs(), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**40))
def test_bias_experiment_normal_population_matches_per_link_oracle(case, n, replicas, seed):
    # the population's draws against the per-link oracle, and its exact
    # column against the tabulated normal moments
    _, F, steps = case
    schedule = StepSchedule(n, steps)
    table = normal_moment_table(F.d, F.max_order())
    target = float(exact_bias(F, schedule, table).target)
    seeds = np.random.SeedSequence(seed).generate_state(len(schedule) + 1)
    population = NormalPopulation(F.d)
    rows = bias_experiment(F, population, schedule, replicas, seed)
    table_rows = exact_bias(F, schedule, table).records
    assert [row.exact_bias for row in rows] == [record.signed_bias for record in table_rows]
    for k, row in enumerate(rows):
        coeffs = expansion_coefficients(steps[:k])
        want = oracles.chain_values(F, population, n, coeffs, replicas, int(seeds[k]))
        assert same(row.report, _report([v - target for v in want], int(seeds[k])))


@PROPERTY
@given(chain_inputs(max_rows=3))
def test_exhaustive_estimate_matches_row_loop_moments(case):
    data, F, steps = case
    coeffs = expansion_coefficients(steps)
    row_loops = lambda ds: oracles.evaluate(F, Dataset(ds.rows))
    got = exhaustive_estimate(F, data, coeffs)
    assert same(got, exhaustive_estimate(row_loops, data, coeffs))
    if data.exact:
        assert got == chain_expectation(F, coeffs, data)


@pytest.mark.parametrize("nested", [True, False])
def test_out_of_range_label_raises_on_a_pick(nested):
    F = MomentPolynomial(3, {LabeledTerm([[0], [2]]): 1})
    data = Dataset([[1.0, 2.0], [3.0, 4.0]])
    picked = Dataset._picked
    pick = picked(picked(data, [1, 0]), [0, 0]) if nested else picked(data, [1, 1])
    assert pick.root is data and pick.picks == [1, 1]
    for _ in range(2):  # a failed block keeps no column
        with pytest.raises(ValueError, match="label 2 out of range for d=2"):
            evaluate(F, pick)
        assert list(data.columns) == [(0,)]
    with pytest.raises(RuntimeError, match="replica 0") as err:
        mc_estimate(F, data, (1,), 3, seed=0)
    assert "label 2 out of range for d=2" in str(err.value.__cause__.__cause__)


def test_pick_rows_are_built_on_first_read():
    data = Dataset([[Fraction(1), 2], [3, Fraction(1, 2)], [0, 0]])
    pick = Dataset._picked(Dataset._picked(data, [2, 0, 1]), [1, 1, 2])
    assert pick.root is data
    assert pick.n == 3 and pick.d == 2 and pick.exact
    assert pick.picks == [0, 0, 1]
    assert pick.rows == (data.rows[0], data.rows[0], data.rows[1])
    assert pick.rows is pick.rows
    with pytest.raises(AttributeError):
        pick.no_such_attribute


def test_sampler_root_links_build_no_rows(monkeypatch):
    from mobiusboot import mc

    seen = []

    def recorded(F, ds):
        seen.append(ds)
        return evaluate(F, ds)

    monkeypatch.setattr(mc, "evaluate", recorded)
    bias_experiment(variance_poly(), NormalPopulation(1), StepSchedule.unit(5, 2), 4, seed=3)
    links = [ds for ds in seen if ds.picks is not None]
    assert len(links) == 4 * (0 + 1 + 2) and len(seen) == len(links) + 4 * 3
    for ds in links:
        with pytest.raises(AttributeError):
            Dataset.rows.__get__(ds)  # the slot, read without building it
        assert ds.root.picks is None and sorted(ds.root.columns) == [(0,), (0, 0)]


@pytest.mark.parametrize("n", [1, 2, 7, 10, 20, 33])
@pytest.mark.parametrize("before", ["nothing", "standard_normal", "odd_integers"])
def test_one_block_draw_equals_one_draw_per_row(n, before):
    # a chain draws its links by one integers(n, size=(L, n)) call: numpy must
    # fill the block with what L calls of integers(n, size=n) return, in order,
    # and leave the generator where they leave it
    for count in (1, 2, 3, 5):
        a, b = np.random.default_rng(1000 * n + count), np.random.default_rng(1000 * n + count)
        for rng in (a, b):
            if before == "standard_normal":
                rng.standard_normal((3, 1))
            elif before == "odd_integers":
                rng.integers(5, size=3)
        block = a.integers(n, size=(count, n)).tolist()
        assert block == [b.integers(n, size=n).tolist() for _ in range(count)]
        assert a.integers(2**62, size=4).tolist() == b.integers(2**62, size=4).tolist()


# -- replica blocks -------------------------------------------------------------------

def cubic_poly(d):
    # every block shape up to order 3 that d labels allow, with float steps' coefficients
    last = d - 1
    return MomentPolynomial(d, {
        LabeledTerm([[0, last, 0]]): Fraction(3, 7),
        LabeledTerm([[0], [last]]): -2,
        LabeledTerm([[last], [0, 0]]): Fraction(-5, 3),
        LabeledTerm([[0], [0], [last]]): 1,
        LabeledTerm([]): Fraction(1, 9),
    })


def counted_evaluate(monkeypatch):
    from mobiusboot import mc

    calls = []

    def counted(F, ds):
        calls.append(ds)
        return evaluate(F, ds)

    monkeypatch.setattr(mc, "evaluate", counted)
    return calls


def assert_same_values(got, want):
    assert len(got) == len(want)
    for r, (a, b) in enumerate(zip(got, want)):
        assert repr(a) == repr(b), f"replica {r}"


BLOCK_CASES = {
    # (rows, N): N equal to and other than the row count, one row, N = 1
    "n-rows": ([[0.5, -1.25], [3.0, 1e16], [-7e15, 0.1], [1 / 3, 5e-324], [2.0, -0.0]], 5),
    "fewer": ([[0.5, -1.25], [3.0, 1e16], [-7e15, 0.1], [1 / 3, 5e-324], [2.0, -0.0]], 3),
    "more": ([[0.5, -1.25], [3.0, 1e16], [-7e15, 0.1]], 8),
    "one-row": ([[1.5, -2.0]], 4),
    "one-row-n-1": ([[1.5, -2.0]], 1),
    "n-1": ([[0.5, -1.25], [3.0, 1e16], [-7e15, 0.1]], 1),
    "zero-products": ([[-0.0, 1.0], [-0.0, -2.0], [-0.0, 3.5]], 3),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.parametrize("steps", [[], [1], StepSchedule.default(3, 3).etas])
def test_block_route_matches_per_link_oracle(monkeypatch, case, steps):
    # a float polynomial over a float Dataset runs in replica blocks and keeps
    # every replica's value, bit for bit; no replica calls evaluate
    rows, n = BLOCK_CASES[case]
    data = Dataset(rows)
    F = cubic_poly(2)
    coeffs = expansion_coefficients(steps)
    calls = counted_evaluate(monkeypatch)
    got = _mc_values(F, data, n, coeffs, 300, 2**40 + 3)
    assert calls == []
    assert_same_values(got, oracles.chain_values(F, data, n, coeffs, 300, 2**40 + 3))


def test_block_route_of_a_column_of_negative_zero_products():
    # every product of column (0, 1) and every cell of column 0 is -0.0: the
    # block route gives evaluate's 0.0, replica by replica
    data = Dataset([[-0.0, 1.0], [-0.0, -2.0]])
    F = MomentPolynomial(2, {LabeledTerm([[0, 1]]): -1, LabeledTerm([[0]]): 2})
    picks = np.array([[0, 1], [1, 1], [0, 0]])
    got = _pick_evaluator(MomentPolynomial(2, {t: float(c) for t, c in F.terms.items()}), data)(picks)
    want = [evaluate(F, Dataset._picked(data, row)) for row in picks.tolist()]
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want] == ["0.0"] * 3
    coeffs = expansion_coefficients([1, 1])
    assert_same_values(_mc_values(F, data, 2, coeffs, 50, 4),
                       oracles.chain_values(F, data, 2, coeffs, 50, 4))


def test_block_route_on_a_pick_and_across_blocks(monkeypatch):
    # a source that is itself a pick composes its picks; blocks of a few
    # replicas, the last one short, give the same values as one block
    from mobiusboot import mc

    root = Dataset([[float(v), 1 / (v + 0.5)] for v in range(7)])
    source = Dataset._picked(root, [6, 2, 2, 0, 5])
    F = cubic_poly(2)
    coeffs = expansion_coefficients([1, Fraction(1, 2)])
    want = oracles.chain_values(F, source, 4, coeffs, 103, 77)
    assert_same_values(_mc_values(F, source, 4, coeffs, 103, 77), want)
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 3 * 4 * 5)
    assert_same_values(_mc_values(F, source, 4, coeffs, 103, 77), want)


def test_block_route_is_prefix_stable():
    data = Dataset([[0.5, -1.25], [3.0, 2.0], [-7.0, 0.1], [1 / 3, 4.0]])
    F = cubic_poly(2)
    coeffs = expansion_coefficients([1, 1])
    short = _mc_values(F, data, data.n, coeffs, 100, 9)
    long = _mc_values(F, data, data.n, coeffs, 400, 9)
    assert_same_values(long[:100], short)


def test_rejected_replicas_are_run_one_at_a_time(monkeypatch):
    # a replica with a rejected half takes its picks from numpy, one replica at
    # a time: rows marked rejected, with their picks spoilt, keep every value
    # as it is, on the block route (F over float data) and on the per-link
    # route (a callable over float data, F over exact data)
    from mobiusboot import mc

    bounded, marked = mc._bounded, []

    def more_rejections(halves, bound):
        picks, rejected = bounded(halves, bound)
        extra = halves[:, 0] % 3 == 0
        marked.append(int(extra.sum()))
        picks[extra] = (picks[extra] + 1) % bound
        return picks, rejected | extra[:, None]

    floats = Dataset([[0.5, -1.25], [3.0, 2.0], [-7.0, 0.1]])
    exact = Dataset([[Fraction(1, 2), Fraction(-5, 4)], [Fraction(3), Fraction(2)],
                     [Fraction(-7), Fraction(1, 10)]])
    F = cubic_poly(2)
    for fn, data in ((F, floats), (row_spread, floats), (F, exact)):
        for n in (3, 5):
            coeffs = expansion_coefficients([1, 2])
            want = oracles.chain_values(fn, data, n, coeffs, 60, 31)
            monkeypatch.setattr(mc, "_bounded", more_rejections)
            marked.clear()
            assert_same_values(_mc_values(fn, data, n, coeffs, 60, 31), want)
            monkeypatch.undo()
            assert sum(marked) > 0


@pytest.mark.parametrize(
    "source",
    [
        Dataset([[1.0, 2.0], [3, 4.0]]),  # an int cell
        Dataset([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]),
    ],
    ids=["int-cell", "exact"],
)
def test_block_route_needs_python_float_cells(monkeypatch, source):
    F = cubic_poly(2)
    assert _pick_evaluator(MomentPolynomial(2, {t: float(c) for t, c in F.terms.items()}),
                           source) is None
    calls = counted_evaluate(monkeypatch)
    coeffs = expansion_coefficients([1])
    got = _mc_values(F, source, 2, coeffs, 20, 5)
    assert len(calls) == 20 * 2
    assert_same_values(got, oracles.chain_values(F, source, 2, coeffs, 20, 5))


def test_numpy_float64_cells_take_the_block_route(monkeypatch):
    # Dataset stores a numpy float64 cell as a Python float, so the block
    # route takes it and no replica calls evaluate
    source = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert all(type(v) is float for row in source.rows for v in row)
    F = cubic_poly(2)
    calls = counted_evaluate(monkeypatch)
    coeffs = expansion_coefficients([1])
    got = _mc_values(F, source, 2, coeffs, 20, 5)
    assert calls == []
    assert_same_values(got, oracles.chain_values(F, source, 2, coeffs, 20, 5))


class HugeRows:
    """2**32 + 5 rows (i, 1/(i+1)), each made when read: a root too large to hold."""

    def __len__(self):
        return 2**32 + 5

    def __getitem__(self, i):
        return (float(i), 1 / (i + 1))


def test_rows_beyond_32_bit_bounds_are_picked_by_numpy():
    # numpy draws from 2**32 rows or more by its 64-bit route, which _bounded
    # does not follow: every replica takes its picks from numpy
    source = Dataset._validated(HugeRows(), exact=False)
    coeffs = expansion_coefficients([1, 1])
    for n in (1, 3):
        want = oracles.chain_values(row_spread, source, n, coeffs, 20, 6)
        assert_same_values(_mc_values(row_spread, source, n, coeffs, 20, 6), want)


def test_pick_evaluator_refuses_exact_polynomials_and_labels_beyond_d():
    data = Dataset([[1.0, 2.0], [3.0, 4.0]])
    assert _pick_evaluator(cubic_poly(2), data) is None
    wide = MomentPolynomial(3, {LabeledTerm([[0], [2]]): 1.0})
    assert _pick_evaluator(wide, data) is None
    assert data.columns == {}


# numpy rejects about half of all halves at 2**31 + 1 and a quarter at 3 * 2**30
HEAVY_BOUNDS = [2**31 + 1, 3 * 2**30]
BOUNDS = HEAVY_BOUNDS + [5, 20, 2**32 - 1]


@pytest.mark.parametrize("first_bound", BOUNDS + [1])
@pytest.mark.parametrize("bound", BOUNDS)
def test_bounded_halves_match_generator_integers(first_bound, bound):
    # X^1's draw of an odd count leaves a buffered half that the links' block
    # reads first; a bound of 1 reads none.  Rows without a rejected half are
    # numpy's picks; every other row is flagged, and its picks differ from
    # numpy's only from the first rejected half on
    from numpy.random import PCG64, Generator

    clean = flagged = 0
    for seed in range(500):
        rng = Generator(PCG64(seed))
        want = rng.integers(first_bound, size=3).tolist()
        want += rng.integers(bound, size=(1, 3)).ravel().tolist()
        skip = 0 if first_bound == 1 else 3
        halves = PCG64(seed).random_raw(3).astype("<u8").view("<u4")[None, : skip + 3]
        got = [0] * (3 - skip)
        rejected = []
        if skip:
            picks, out = _bounded(halves[:, :skip], first_bound)
            got, rejected = picks[0].tolist(), out[0].tolist()
        picks, out = _bounded(halves[:, skip:], bound)
        got += picks[0].tolist()
        rejected += [False] * (3 - skip) + out[0].tolist()
        if not any(rejected):
            clean += 1
            assert got == want
        else:
            flagged += 1
            wrong = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
            assert not wrong or wrong[0] >= rejected.index(True)
    assert clean > 0
    assert (flagged > 0) == (first_bound in HEAVY_BOUNDS or bound in HEAVY_BOUNDS)
