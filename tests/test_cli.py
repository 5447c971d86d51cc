"""End-to-end checks of the command-line interface."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mobiusboot import artifact, cli, lattice, polynomial_from_dict, selftest
from mobiusboot.artifact import _scalar
from mobiusboot.cli import Artifact, main
from mobiusboot.moments import dataset_from_csv
import oracles


VARIANCE_JSON = {
    "d": 1,
    "terms": [
        {"blocks": [[0], [0]], "coeff": "-1"},
        {"blocks": [[0, 0]], "coeff": "1"},
    ],
}

NORMAL_POP = {"family": "normal", "d": 1}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "var.json").write_text(json.dumps(VARIANCE_JSON))
    (tmp_path / "pop.json").write_text(json.dumps(NORMAL_POP))
    (tmp_path / "data.csv").write_text("x\n0.0\n1.0\n2.0\n")
    return tmp_path


def _rows(path, table):
    """Parse one named table out of an artifact CSV."""
    lines = path.read_text().splitlines()
    rows, active = [], False
    for line in lines:
        if line.startswith("# table: "):
            active = line == f"# table: {table}"
            continue
        if line.startswith("#"):
            continue
        if active:
            rows.append(line.split(","))
    assert rows, f"table {table} missing from {path.name}"
    return rows[0], rows[1:]


def test_lattice_m3_known_tables(workdir):
    out = workdir / "lat"
    assert main(["lattice", "--m", "3", "--out", str(out)]) == 0

    _, parts = _rows(workdir / "lat.csv", "partitions")
    assert [p[1] for p in parts] == ["1|2|3", "12|3", "13|2", "1|23", "123"]

    _, covers = _rows(workdir / "lat.csv", "covers")
    assert len(covers) == 6

    _, mob = _rows(workdir / "lat.csv", "mobius")
    assert mob[4][1:] == ["2", "-1", "-1", "-1", "1"]

    payload = json.loads((workdir / "lat.json").read_text())
    assert payload["tables"]["zeta"]["rows"][4][1:] == ["1", "1", "1", "1", "1"]


def test_smatrix_two_point_entries(workdir):
    out = workdir / "sm"
    assert main(["smatrix", "--m", "2", "--n", "2", "--out", str(out)]) == 0
    _, srows = _rows(workdir / "sm.csv", "S")
    assert srows[0][1:] == ["1/2", "0"]
    assert srows[1][1:] == ["1/2", "1"]
    _, frows = _rows(workdir / "sm.csv", "factorization")
    assert frows[0][1] == "true"


def test_smatrix_reduced(workdir):
    out = workdir / "rm"
    assert main(["smatrix", "--m", "2", "--n", "2", "--reduced", "--out", str(out)]) == 0
    _, rows = _rows(workdir / "rm.csv", "reduced")
    assert rows[0][1:] == ["1", "1/2"]
    assert rows[1][1:] == ["0", "1/2"]


def test_bias_trajectory_values(workdir):
    out = workdir / "bias"
    rc = main(
        [
            "bias",
            "--functional", str(workdir / "var.json"),
            "--population", str(workdir / "pop.json"),
            "--n", "10",
            "--k", "2",
            "--schedule", "default",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = _rows(workdir / "bias.csv", "trajectory")
    assert [r[1] for r in rows] == ["-1/10", "-1/100", "0"]
    payload = json.loads((workdir / "bias.json").read_text())
    assert polynomial_from_dict(payload["functional"]) == polynomial_from_dict(VARIANCE_JSON)


def test_mc_exhaustive_matches_target(workdir):
    out = workdir / "ex"
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--data", str(workdir / "data.csv"),
            "--k", "1",
            "--exhaustive",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = _rows(workdir / "ex.csv", "exhaustive")
    value, target = float(rows[0][1]), float(rows[0][2])
    assert value == pytest.approx(target, rel=1e-12)


def test_mc_exhaustive_deep_chain_matches_target(workdir):
    (workdir / "four.csv").write_text("x\n0.5\n-1.0\n2.0\n3.25\n")
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--data", str(workdir / "four.csv"),
            "--k", "8",
            "--exhaustive",
            "--out", str(workdir / "deep"),
        ]
    )
    assert rc == 0
    _, rows = _rows(workdir / "deep.csv", "exhaustive")
    assert rows[0][0] == "8"
    value, target = float(rows[0][1]), float(rows[0][2])
    assert value == pytest.approx(target, rel=1e-12)


def test_mc_exhaustive_long_chain_on_float_data_matches_target(workdir):
    # 80 unit steps: the chain coefficients cancel over many orders of magnitude
    (workdir / "four.csv").write_text("0.5\n1.25\n-2.0\n3.5\n")
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--data", str(workdir / "four.csv"),
            "--k", "80",
            "--exhaustive",
            "--out", str(workdir / "long"),
        ]
    )
    assert rc == 0
    _, rows = _rows(workdir / "long.csv", "exhaustive")
    value, target = float(rows[0][1]), float(rows[0][2])
    assert value == pytest.approx(target, rel=1e-12, abs=0)


def test_mc_estimate_near_target(workdir):
    out = workdir / "mc"
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--data", str(workdir / "data.csv"),
            "--k", "1",
            "--replicas", "4000",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = _rows(workdir / "mc.csv", "estimate")
    estimate, se, target = float(rows[0][2]), float(rows[0][3]), float(rows[0][4])
    assert abs(estimate - target) < 4 * se


def test_mc_population_experiment(workdir):
    out = workdir / "mcp"
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--population", str(workdir / "pop.json"),
            "--n", "10",
            "--k", "1",
            "--replicas", "400",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = _rows(workdir / "mcp.csv", "bias_experiment")
    assert [r[0] for r in rows] == ["0", "1"]
    assert rows[0][4] == "-1/10"
    assert rows[1][4] == "-1/100"


def test_rerun_identical_excluding_timestamp(workdir):
    args = [
        "mc-run",
        "--functional", str(workdir / "var.json"),
        "--data", str(workdir / "data.csv"),
        "--k", "1",
        "--replicas", "200",
        "--seed", "3",
    ]
    assert main(args + ["--out", str(workdir / "a")]) == 0
    assert main(args + ["--out", str(workdir / "a")]) == 0
    first_csv = (workdir / "a.csv").read_text()
    first_json = (workdir / "a.json").read_text()
    assert main(args + ["--out", str(workdir / "a")]) == 0

    def strip(text, marker):
        return [l for l in text.splitlines() if marker not in l]

    assert strip((workdir / "a.csv").read_text(), "# timestamp") == strip(first_csv, "# timestamp")
    assert strip((workdir / "a.json").read_text(), '"timestamp"') == strip(first_json, '"timestamp"')


def test_bounds_trace_frozen(workdir):
    out = workdir / "tr"
    assert main(["bounds", "--kind", "trace", "--sigma", "0.5", "--n", "32", "--out", str(out)]) == 0
    _, rows = _rows(workdir / "tr.csv", "trace")
    assert rows[0][2] == "1"
    assert float(rows[0][3]) == 4.0


def test_bounds_general_frozen(workdir):
    out = workdir / "gb"
    assert main(["bounds", "--kind", "general", "--gammas", "1,1/256", "--n", "8", "--out", str(out)]) == 0
    _, rows = _rows(workdir / "gb.csv", "general")
    assert rows[0][1] == "4"
    assert float(rows[0][2]) == pytest.approx(0.25, rel=1e-12)


def test_bounds_linconv_sweep(workdir):
    out = workdir / "lc"
    assert main(["bounds", "--kind", "linconv", "--alpha", "8", "--m-max", "50", "--out", str(out)]) == 0
    _, rows = _rows(workdir / "lc.csv", "linconv")
    assert len(rows) == 50
    assert all(r[3] == "true" for r in rows)


def test_exit_code_usage(workdir):
    rc = main(["mc-run", "--functional", str(workdir / "var.json"), "--k", "1"])
    assert rc == 2
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--data", str(workdir / "data.csv"),
            "--k", "2",
            "--schedule", "1,2,3",
        ]
    )
    assert rc == 2


def test_exit_code_cap(workdir):
    assert main(["lattice", "--m", "40", "--out", str(workdir / "x")]) == 2


def test_cap_of_a_large_m_exits_2_with_one_error_line(workdir, capsys):
    # Bell(2000) has more digits than str() of an int prints
    assert main(["lattice", "--m", "2000", "--out", str(workdir / "x")]) == 2
    err = capsys.readouterr().err
    assert err == "error: m=2000 outside supported range 1..8\n"
    assert not (workdir / "x.csv").exists()


def test_cap_of_a_huge_m_exits_2_at_once(workdir):
    # the cap check computes no Bell number of a huge m (an O(m^2) triangle)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusboot.cli", "smatrix", "--m", "1000000", "--n", "3",
         "--out", str(workdir / "x")],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr == "error: m=1000000 outside supported range 1..8\n"
    assert elapsed < 1, elapsed


@pytest.mark.parametrize(
    "argv", [["lattice", "--m", "9"], ["smatrix", "--m", "9", "--n", "9"]], ids=["lattice", "smatrix"]
)
def test_dense_m9_exits_2_before_enumerating(workdir, monkeypatch, capsys, argv):
    # Bell(9)^2 cells do not fit in memory; the cap fires before the lattice is built
    def enumeration_not_wanted(m):
        raise AssertionError("the lattice was enumerated before the cap check")

    monkeypatch.setattr(lattice, "_rgs_strings", enumeration_not_wanted)
    assert main(argv + ["--out", str(workdir / "x")]) == 2
    assert "Bell(9) = 21147" in capsys.readouterr().err
    assert not (workdir / "x.csv").exists()


def test_reduced_smatrix_is_not_held_to_the_dense_cap(workdir):
    out = workdir / "r9"
    assert main(["smatrix", "--m", "9", "--n", "9", "--reduced", "--out", str(out)]) == 0
    _, rows = _rows(workdir / "r9.csv", "reduced")
    assert len(rows) == 9


def test_exit_code_infeasible_schedule(workdir):
    rc = main(
        [
            "bias",
            "--functional", str(workdir / "var.json"),
            "--population", str(workdir / "pop.json"),
            "--n", "2",
            "--k", "5",
            "--schedule", "default",
            "--out", str(workdir / "x"),
        ]
    )
    assert rc == 3


def test_exit_code_missing_moment(workdir):
    (workdir / "thin.json").write_text(
        json.dumps({"d": 1, "moments": [{"block": [0], "value": "0"}]})
    )
    rc = main(
        [
            "bias",
            "--functional", str(workdir / "var.json"),
            "--population", str(workdir / "thin.json"),
            "--n", "5",
            "--k", "1",
            "--out", str(workdir / "x"),
        ]
    )
    assert rc == 3


# one term of 8 singleton blocks over 16 variables: 255 reachable blocks, where
# every label multiset up to order 8 would be C(24, 8) = 735471 entries
WIDE_JSON = {"d": 16, "terms": [{"blocks": [[lab] for lab in range(0, 16, 2)], "coeff": "1"}]}


def _moments_read_by_exact_bias(monkeypatch):
    """The populations cli passes exact_bias, and the blocks whose normal moments are read."""
    from mobiusboot.moments import NormalPopulation

    populations, blocks = [], []
    real, real_moment = cli.exact_bias, NormalPopulation.moment

    def recorded(F, schedule, population):
        populations.append(population)
        return real(F, schedule, population)

    def moment(self, block):
        blocks.append(block)
        return real_moment(self, block)

    monkeypatch.setattr(cli, "exact_bias", recorded)
    monkeypatch.setattr(NormalPopulation, "moment", moment)
    return populations, blocks


def test_normal_population_tabulates_only_reachable_blocks(workdir, monkeypatch):
    # the normal family's moments are read at the blocks an exact trajectory
    # reads, F's reachable blocks, and nowhere else
    from mobiusboot.moments import NormalPopulation, reachable_blocks

    monkeypatch.chdir(workdir)
    populations, blocks = _moments_read_by_exact_bias(monkeypatch)
    (workdir / "wide.json").write_text(json.dumps(WIDE_JSON))
    (workdir / "normal.json").write_text(json.dumps({"family": "normal"}))
    rc = main(["bias", "--functional", "wide.json", "--population", "normal.json",
               "--n", "9", "--k", "1", "--out", "w"])
    assert rc == 0
    (population,) = populations
    assert type(population) is NormalPopulation and population.d == 16
    assert set(blocks) == reachable_blocks(polynomial_from_dict(WIDE_JSON))
    assert len(set(blocks)) == 255
    assert all(population.moment(b) == 0 for b in set(blocks))  # every label of a block is odd-count
    _, rows = _rows(workdir / "w.csv", "trajectory")
    assert [row[1] for row in rows] == ["0", "0"]


def test_normal_population_table_matches_the_full_table(workdir, monkeypatch):
    # the reachable blocks' moments, and so the trajectory, of a population
    # wider than F are those of normal_moment_table
    from mobiusboot.debias import StepSchedule, exact_bias
    from mobiusboot.moments import normal_moment_table

    monkeypatch.chdir(workdir)
    populations, blocks = _moments_read_by_exact_bias(monkeypatch)
    functional = {"d": 2, "terms": [
        {"blocks": [[0, 0], [1]], "coeff": "1/3"},
        {"blocks": [[0], [0], [1, 1]], "coeff": "-2"},
        {"blocks": [[0, 0, 1, 1]], "coeff": "1"},
    ]}
    (workdir / "f.json").write_text(json.dumps(functional))
    (workdir / "normal3.json").write_text(json.dumps({"family": "normal", "d": 3}))
    rc = main(["bias", "--functional", "f.json", "--population", "normal3.json",
               "--n", "5", "--k", "2", "--schedule", "default", "--out", "n"])
    assert rc == 0
    F = polynomial_from_dict(functional)
    full = normal_moment_table(3, F.max_order())
    (population,) = populations
    assert population.d == 3 and blocks
    assert all(repr(population.moment(b)) == repr(full.values[b]) for b in set(blocks))
    report = exact_bias(F, StepSchedule.default(5, 2), full)
    _, rows = _rows(workdir / "n.csv", "trajectory")
    assert [row[1] for row in rows] == [str(r.signed_bias) for r in report.records]
    assert any(r.signed_bias for r in report.records)


def test_normal_population_narrower_than_the_functional_exits_3(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    (workdir / "wide.json").write_text(json.dumps(WIDE_JSON))
    (workdir / "normal8.json").write_text(json.dumps({"family": "normal", "d": 8}))
    rc = main(["bias", "--functional", "wide.json", "--population", "normal8.json",
               "--n", "9", "--k", "1", "--out", "w"])
    assert rc == 3
    assert "moment table has no entry for block" in capsys.readouterr().err


def test_mc_run_on_a_normal_population_narrower_than_the_functional_exits_3(workdir, monkeypatch,
                                                                            capsys):
    # the law mc-run draws from is the one its exact column reads: a label
    # of F at or above the population's d has no moment, before any replica
    monkeypatch.chdir(workdir)
    (workdir / "wide.json").write_text(json.dumps(WIDE_JSON))
    (workdir / "normal8.json").write_text(json.dumps({"family": "normal", "d": 8}))
    monkeypatch.setattr(cli.mc_mod, "_mc_values", lambda *args: pytest.fail("a replica ran"))
    rc = main(["mc-run", "--functional", "wide.json", "--population", "normal8.json",
               "--n", "9", "--k", "1", "--replicas", "10", "--out", "w"])
    assert rc == 3
    assert "moment table has no entry for block" in capsys.readouterr().err
    assert not (workdir / "w.csv").exists()


def test_exit_code_exhaustive_too_large(workdir, monkeypatch):
    # the cap fires before the target is computed
    def target_not_wanted(*args):
        raise AssertionError("the target was computed before the cap check")

    monkeypatch.setattr(cli.mc_mod, "chain_expectation", target_not_wanted)
    (workdir / "big.csv").write_text("x\n" + "\n".join(str(i) for i in range(6)) + "\n")
    rc = main(
        [
            "mc-run",
            "--functional", str(workdir / "var.json"),
            "--data", str(workdir / "big.csv"),
            "--k", "1",
            "--exhaustive",
            "--out", str(workdir / "x"),
        ]
    )
    assert rc == 3


def _assert_usage_error(rc, capsys):
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


BIAS = ["bias", "--functional", "var.json", "--population", "pop.json"]
MC_POP = ["mc-run", "--functional", "var.json", "--population", "pop.json", "--replicas", "10"]
MC_DATA = ["mc-run", "--functional", "var.json", "--data", "data.csv", "--replicas", "10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["smatrix", "--m", "2", "--n", "0"],
        ["smatrix", "--m", "2", "--n", "0", "--reduced"],
        ["smatrix", "--m", "0", "--n", "2"],
        ["smatrix", "--m", "0", "--n", "2", "--reduced"],
        BIAS + ["--n", "0", "--k", "1"],
        MC_POP + ["--n", "0", "--k", "1"],
        BIAS + ["--n", "4", "--k", "-1"],
        MC_DATA + ["--k", "-1"],
        MC_POP + ["--n", "4", "--k", "-1"],
        MC_DATA + ["--k", "1", "--replicas", "0"],
        MC_DATA + ["--k", "1", "--seed", "-1"],
        MC_POP + ["--n", "4", "--k", "1", "--seed", "-1"],
        MC_DATA + ["--k", "1", "--replicas", str(2**32)],
        MC_POP + ["--n", "4", "--k", "1", "--replicas", str(2**32)],
        BIAS + ["--n", "4", "--k", str(2**20)],
        MC_DATA + ["--k", str(2**20)],
        MC_POP + ["--n", "4", "--k", str(2**20)],
    ],
    ids=[
        "smatrix-n0", "smatrix-reduced-n0", "smatrix-m0", "smatrix-reduced-m0", "bias-n0", "mc-population-n0",
        "bias-k-negative", "mc-data-k-negative", "mc-population-k-negative", "mc-replicas0",
        "mc-data-seed-negative", "mc-population-seed-negative",
        "mc-data-replicas-2^32", "mc-population-replicas-2^32",
        "bias-k-2^20", "mc-data-k-2^20", "mc-population-k-2^20",
    ],
)
def test_integer_flags_out_of_range_exit_2(workdir, monkeypatch, capsys, argv):
    # every one exits before a replica or the exact target (mc-run --data
    # computes the target after the estimate, whose replica cap comes first)
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(cli.mc_mod, "chain_expectation", lambda *args: pytest.fail("the target ran"))
    monkeypatch.setattr(cli.mc_mod, "_replica_picks", lambda *args: pytest.fail("a replica ran"))
    err = _assert_usage_error(main(argv + ["--out", "x"]), capsys)
    if str(2**20) in argv:  # StepSchedule's cap
        assert f"step count must be < 2**20, got {2**20}" in err
    if str(2**32) in argv:  # mc._check_run's cap
        assert err == f"error: replicas must be an int in 1..2**32-1, got {2**32}\n"
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"terms": VARIANCE_JSON["terms"]}),
        json.dumps({"d": 1}),
        json.dumps({"d": 1, "terms": [{"coeff": "1"}]}),
        json.dumps({"d": 1, "terms": [{"blocks": [[0]]}]}),
        json.dumps({"d": 1, "terms": [{"blocks": [[0]], "coeff": "1/0"}]}),
        json.dumps([1, 2]),
        json.dumps({"d": 1, "terms": [{"blocks": [[0, 0]], "coeff": float("nan")}]}),
        json.dumps({"d": 1, "terms": [{"blocks": [[0, 0]], "coeff": float("inf")}]}),
        json.dumps({"d": 1, "terms": [{"blocks": [[0, 0]], "coeff": True}]}),
        json.dumps({"d": True, "terms": VARIANCE_JSON["terms"]}),
        json.dumps({"d": 1.5, "terms": VARIANCE_JSON["terms"]}),
        json.dumps({"d": 2, "terms": [{"blocks": [[True, 0]], "coeff": "1"}]}),
        "[" * 200000 + "]" * 200000,
    ],
    ids=["unparsable", "no-d", "no-terms", "no-blocks", "no-coeff", "zero-denominator",
         "not-object", "nan-coeff", "inf-coeff", "bool-coeff", "bool-d", "float-d",
         "bool-label", "deep-nesting"],
)
def test_malformed_functional_exit_2(workdir, monkeypatch, capsys, text):
    monkeypatch.chdir(workdir)
    (workdir / "bad.json").write_text(text)
    rc = main(["bias", "--functional", "bad.json", "--population", "pop.json",
               "--n", "4", "--k", "1", "--out", "x"])
    err = _assert_usage_error(rc, capsys)
    assert err.startswith("error: malformed functional JSON bad.json: ")


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]], ids=["sampled", "exhaustive"])
def test_mc_data_narrower_than_functional_exit_2(workdir, monkeypatch, capsys, extra):
    monkeypatch.chdir(workdir)
    (workdir / "wide.json").write_text(json.dumps(
        {"d": 3, "terms": [{"blocks": [[0, 2]], "coeff": "1"}, {"blocks": [[0]], "coeff": "1"}]}
    ))
    rc = main(["mc-run", "--functional", "wide.json", "--data", "data.csv", "--k", "1",
               "--replicas", "10", "--out", "x"] + extra)
    err = _assert_usage_error(rc, capsys)
    assert "1 column" in err and "label 2" in err
    assert not (workdir / "x.csv").exists() and not (workdir / "x.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (MC_DATA + ["--n", "7", "--k", "1"], "--n applies to --population runs only"),
        (MC_POP + ["--n", "4", "--k", "1", "--exhaustive"], "--exhaustive applies to --data runs only"),
    ],
    ids=["mc-data-n", "mc-population-exhaustive"],
)
def test_mc_flag_of_the_other_input_exit_2(workdir, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(workdir)
    err = _assert_usage_error(main(argv + ["--out", "x"]), capsys)
    assert message in err
    assert not (workdir / "x.csv").exists() and not (workdir / "x.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (BIAS + ["--n", "4", "--k", "2", "--schedule", "0,1"], "step sizes must be positive"),
        (BIAS + ["--n", "4", "--k", "2", "--schedule=-1,2"], "step sizes must be positive"),
        (BIAS + ["--n", "4", "--k", "2", "--schedule", "-1,2"], "step sizes must be positive"),
        (MC_DATA + ["--k", "2", "--schedule", "0,1"], "step sizes must be positive"),
        (MC_POP + ["--n", "4", "--k", "2", "--schedule=-1,2"], "step sizes must be positive"),
        (MC_POP + ["--n", "4", "--k", "2", "--schedule", "-1,2"], "step sizes must be positive"),
        (MC_DATA + ["--k", "2", "--schedule", "-1/2,3"], "step sizes must be positive"),
        (BIAS + ["--n", "4", "--k", "2", "--schedule", "1,,2"], "cannot parse schedule"),
        (BIAS + ["--n", "4", "--k", "1", "--schedule", "2,"], "cannot parse schedule"),
        (BIAS + ["--n", "4", "--k", "1", "--schedule", "-1/0"], "cannot parse schedule '-1/0'"),
        (MC_POP + ["--n", "4", "--k", "1", "--schedule", "-1/0"], "cannot parse schedule '-1/0'"),
    ],
    ids=["bias-zero-step", "bias-negative-step", "bias-negative-step-spaced",
         "mc-data-zero-step", "mc-population-negative-step",
         "mc-population-negative-step-spaced", "mc-data-negative-fraction-step-spaced",
         "bias-empty-entry", "bias-trailing-empty-entry", "bias-zero-denominator-spaced",
         "mc-population-zero-denominator-spaced"],
)
def test_nonpositive_schedule_exit_2(workdir, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(workdir)
    err = _assert_usage_error(main(argv + ["--out", "x"]), capsys)
    assert message in err and "expected one argument" not in err
    assert not (workdir / "x.csv").exists()


def test_bias_with_a_huge_exact_step_saturates_its_bound(workdir, monkeypatch):
    # the step 1e400 is exact, so the trajectory is; only its float bound leaves double range
    from mobiusboot.debias import StepSchedule, exact_bias
    from mobiusboot.moments import normal_moment_table

    monkeypatch.chdir(workdir)
    assert main(BIAS + ["--n", "4", "--k", "2", "--schedule", "1,1e400", "--out", "b"]) == 0
    _, rows = _rows(workdir / "b.csv", "trajectory")
    F = polynomial_from_dict(VARIANCE_JSON)
    report = exact_bias(F, StepSchedule(4, [1, Fraction("1e400")]), normal_moment_table(1, 2))
    assert [row[:3] for row in rows] == [
        [str(r.k), str(r.signed_bias), str(r.abs_bias)] for r in report.records
    ]
    assert len(rows[2][1]) > 400
    assert [row[3] for row in rows] == ["1.0", "0.5", "inf"]


@pytest.mark.parametrize(
    "argv",
    [
        MC_DATA + ["--k", "2"],
        MC_POP + ["--n", "4", "--k", "2"],
        MC_DATA + ["--k", "2", "--exhaustive"],
    ],
    ids=["mc-data", "mc-population", "mc-exhaustive"],
)
def test_mc_run_with_a_huge_exact_step_exit_2(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    err = _assert_usage_error(main(argv + ["--schedule", "1,1e400", "--out", "x"]), capsys)
    assert "double range" in err
    assert not (workdir / "x.csv").exists() and not (workdir / "x.json").exists()


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_bandlimited_non_finite_theta_exit_2(workdir, monkeypatch, capsys, theta):
    monkeypatch.chdir(workdir)
    argv = ["bounds", "--kind", "bandlimited", "--d", "1", "--theta", theta, "--n", "100"]
    err = _assert_usage_error(main(argv + ["--out", "x"]), capsys)
    assert f"theta must be finite, got {theta}" in err
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [("--theta", "-inf", "theta must be finite, got -inf"),
     ("--theta", "-nan", "theta must be finite, got nan"),
     ("--sigma", "-nan", "sigma must lie in (0,1), got nan"),
     ("--sigma", "-1e5", "sigma must lie in (0,1), got -100000.0"),
     ("--gammas", "-1,2", "gamma sequence must be nonnegative"),
     ("--gammas", "-1/2,3", "gamma sequence must be nonnegative"),
     ("--gammas", "-1/0", "cannot parse gamma sequence '-1/0'")],
)
@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
def test_bounds_signed_value_reaches_its_check(workdir, monkeypatch, capsys, option, value,
                                               message, joined):
    # "--theta -inf" is the value -inf, not an option -inf
    monkeypatch.chdir(workdir)
    kind = {"--theta": ["--kind", "bandlimited", "--d", "2"], "--sigma": ["--kind", "trace"],
            "--gammas": ["--kind", "general", "--n", "5"]}[option]
    flag = [f"{option}={value}"] if joined else [option, value]
    err = _assert_usage_error(main(["bounds"] + kind + flag + ["--out", "x"]), capsys)
    assert message in err and "expected one argument" not in err
    assert not (workdir / "x.csv").exists()


def test_option_without_value_still_names_the_option(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["bounds", "--kind", "trace", "--sigma", "--n", "5"])
    assert stop.value.code == 2
    assert "argument --sigma: expected one argument" in capsys.readouterr().err


def _artifact_tables(workdir, base):
    """An artifact's CSV without its flags and timestamp lines, and its JSON tables."""
    csv_lines = [
        line for line in (workdir / f"{base}.csv").read_text().splitlines()
        if not line.startswith(("# flags:", "# timestamp:"))
    ]
    return csv_lines, json.loads((workdir / f"{base}.json").read_text())["tables"]


@pytest.mark.parametrize(
    "argv",
    [BIAS + ["--n", "5", "--k", "3"], MC_POP + ["--n", "5", "--k", "2", "--seed", "4"],
     MC_DATA + ["--k", "2", "--seed", "4"]],
    ids=["bias", "mc-population", "mc-data"],
)
def test_stationary_schedule_spellings_write_identical_tables(workdir, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    spellings = [[], ["--schedule", "none"], ["--schedule", "stationary"], ["--schedule", "unit"]]
    tables = []
    for i, flag in enumerate(spellings):
        assert main(argv + flag + ["--out", f"s{i}"]) == 0
        tables.append(_artifact_tables(workdir, f"s{i}"))
    assert all(t == tables[0] for t in tables[1:])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "trace", "--sigma", "2"], "sigma must lie in (0,1), got 2.0"),
        (["--kind", "trace", "--sigma", "0.5", "--n", "0"], "--n must be >= 1, got 0"),
        (["--kind", "bandlimited", "--d", "1", "--theta", "1", "--n", "10"],
         "N=10 below the required 8*(8*d*theta+1)^2 = 648 at d=1, theta=1.0"),
        (["--kind", "bandlimited", "--d", "0", "--theta", "1", "--n", "100000"],
         "need d >= 1 and theta > 0"),
        (["--kind", "general", "--gammas", "1,1/256", "--n", "0"], "--n must be >= 1, got 0"),
        (["--kind", "general", "--gammas", "1,1/256", "--n", "800"],
         "gamma sequence of length 2 has no index 10 = ceil(sqrt(N/8))"),
        (["--kind", "linconv", "--alpha", "0"], "alpha must be a finite number > 0, got 0.0"),
        (["--kind", "linconv", "--m-max", "0"], "--m-max must be >= 1, got 0"),
        # the threshold 8*(8*d*theta+1)^2 overflowed a float: "(34, 'Numerical result out of range')"
        (["--kind", "bandlimited", "--d", "1", "--theta", "1e200", "--n", "10"],
         "N=10 below the required 8*(8*d*theta+1)^2 = inf at d=1, theta=1e+200"),
        # float(Fraction("1e400")): "integer division result too large for a float"
        (["--kind", "general", "--gammas", "1e400,1,0.5", "--n", "8"],
         "cannot parse gamma sequence '1e400,1,0.5'"),
        (["--kind", "linconv", "--alpha", "inf"], "alpha must be a finite number > 0, got inf"),
        (["--kind", "linconv", "--alpha", "nan"], "alpha must be a finite number > 0, got nan"),
        # ceil(alpha*m^2) at m = 2: "cannot convert float infinity to integer"
        (["--kind", "linconv", "--alpha", "1e308", "--m-max", "2"],
         "alpha*m^2 is not a finite number at alpha=1e+308, m=2"),
    ],
    ids=["trace-sigma-2", "trace-n0", "bandlimited-n-too-small", "bandlimited-d0",
         "general-n0", "general-short-gammas", "linconv-alpha0", "linconv-m-max0",
         "bandlimited-huge-theta", "general-huge-gamma", "linconv-alpha-inf", "linconv-alpha-nan",
         "linconv-alpha-m-overflow"],
)
def test_bounds_out_of_range_exit_2(workdir, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(workdir)
    err = _assert_usage_error(main(["bounds"] + argv + ["--out", "x"]), capsys)
    assert err == f"error: {message}\n"
    assert not (workdir / "x.csv").exists() and not (workdir / "x.json").exists()


@pytest.mark.parametrize(
    "rows",
    [
        "x\n0.0\n1.0\nabc\n",
        "x\n0.0\nnan\n2.0\n",
        "x\n0.0\ninf\n",
        "x\n-inf\n1.0\n",
        "x\n1/2\n-1\n2\n",
        "a\nb\n1\n",
        "x\n0.0\n" + "1" * 131073 + "\n2.0\n",
        b"x\n0.5\n1.2\xe9\n2.0\n",
    ],
    ids=["text-after-data", "nan", "inf", "negative-inf", "fraction-after-header", "second-header",
         "oversized-field", "not-utf8"],
)
def test_malformed_dataset_exit_2(workdir, monkeypatch, capsys, rows):
    monkeypatch.chdir(workdir)
    (workdir / "bad.csv").write_bytes(rows if isinstance(rows, bytes) else rows.encode())
    rc = main(["mc-run", "--functional", "var.json", "--data", "bad.csv", "--k", "1",
               "--replicas", "10", "--out", "x"])
    err = _assert_usage_error(rc, capsys)
    assert err.startswith("error: malformed dataset CSV: bad.csv, line ")
    if len(rows) > 131072:
        assert "line 3: field larger than field limit" in err
    if isinstance(rows, bytes):  # the decode error named neither the file nor the line
        assert "line 3: byte 0xe9 is not UTF-8" in err
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps([1, 2]),
        json.dumps({"d": 1}),
        json.dumps({"moments": [{"block": [0], "value": "0"}]}),
        json.dumps({"d": 0, "moments": []}),
        json.dumps({"d": 1, "moments": [{"value": "0"}]}),
        json.dumps({"d": 1, "moments": [{"block": "00", "value": "1"}]}),
        json.dumps({"d": 1, "moments": [{"block": [1], "value": "1"}]}),
        json.dumps({"d": 1, "moments": [{"block": [0]}]}),
        json.dumps({"d": 1, "moments": [{"block": [0], "value": "nan"}]}),
        json.dumps({"d": 1, "moments": [{"block": [0], "value": "1/0"}]}),
        json.dumps({"d": 1, "moments": [{"block": [0], "value": float("nan")}]}),
        json.dumps({"d": 1, "moments": [{"block": [0], "value": float("inf")}]}),
        json.dumps({"d": 1, "moments": [{"block": [0], "value": None}]}),
        json.dumps({"family": "normal", "d": "1"}),
        json.dumps({"d": 2, "moments": [{"block": [0], "value": "0"},
                                        {"block": [0, 0], "value": "1"},
                                        {"block": [0, 1], "value": "1"},
                                        {"block": [1, 0], "value": "2"}]}),
        '{"family": "normal", "d": ' + "[" * 200000 + "]" * 200000 + "}",
    ],
    ids=["unparsable", "not-object", "no-moments", "no-d", "d-zero", "no-block",
         "block-not-list", "label-out-of-range", "no-value", "nan-string", "zero-denominator",
         "nan-number", "inf-number", "null-value", "normal-d-not-int", "duplicate-block",
         "deep-nesting"],
)
def test_malformed_population_exit_2(workdir, monkeypatch, capsys, text):
    monkeypatch.chdir(workdir)
    (workdir / "bad.json").write_text(text)
    rc = main(["bias", "--functional", "var.json", "--population", "bad.json",
               "--n", "4", "--k", "1", "--out", "x"])
    err = _assert_usage_error(rc, capsys)
    assert err.startswith("error: malformed population JSON bad.json: ")
    if "[1, 0]" in text:
        assert "block [0, 1] is listed twice" in err
    assert not (workdir / "x.csv").exists()


def test_float_moment_table_accepted(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    pop = {"d": 1, "moments": [{"block": [0], "value": 0.5}, {"block": [0, 0], "value": 2}]}
    (workdir / "table.json").write_text(json.dumps(pop))
    rc = main(["bias", "--functional", "var.json", "--population", "table.json",
               "--n", "4", "--k", "1", "--out", "t"])
    assert rc == 0
    _, rows = _rows(workdir / "t.csv", "trajectory")
    assert float(rows[0][1]) == pytest.approx(-(2 - 0.25) / 4)


def test_scalar_prints_numpy_floats_as_python_floats(tmp_path):
    assert _scalar(np.float64(0.1)) == "0.1" == _scalar(0.1)
    assert _scalar(np.float64(-2.5e-300)) == repr(-2.5e-300)
    assert _scalar(np.float32(0.5)) == "0.5"
    assert _scalar(np.int64(7)) == "7"
    assert _scalar(Fraction(-3, 4)) == "-3/4"
    assert _scalar(True) == "true"
    path = tmp_path / "d.csv"
    path.write_text("x\n" + _scalar(np.float64(1 / 3)) + "\n")
    assert dataset_from_csv(path).rows == ((1 / 3,),)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out
    assert "FAIL" not in out


def test_selftest_names_first_failure(monkeypatch, capsys):
    def broken():
        raise selftest.SelfTestFailure("deliberately broken")

    patched = [("mobius_small_table", selftest.SELFTEST_CHECKS[0][1]), ("injected_invariant", broken)]
    patched += selftest.SELFTEST_CHECKS[2:]
    monkeypatch.setattr(selftest, "SELFTEST_CHECKS", patched)
    assert main(["selftest"]) == 4
    out = capsys.readouterr().out
    assert "FAIL injected_invariant: deliberately broken" in out


def _run_in_child(argv, cwd, timeout=20):
    """(CompletedProcess, seconds) of the CLI run in a child process.

    The child gets its own 2 GiB address-space limit, so a run that tries to
    take the host's memory fails in the child instead.
    """
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusboot.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=limit,
    )
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("command", ["bias", "mc-run"])
def test_a_term_over_the_block_cap_exits_2_at_once(workdir, command):
    # a term of 13 singleton blocks built Bell(13) merges and ended in a
    # MemoryError traceback; moments.reachable_blocks (for the normal
    # population, and in exact_bias) and mc.bias_experiment now stop it first
    big = {"d": 13, "terms": [{"blocks": [[i] for i in range(13)], "coeff": "1"}]}
    (workdir / "big.json").write_text(json.dumps(big))
    argv = [command, "--functional", "big.json", "--population", "pop.json", "--n", "20", "--k", "1"]
    if command == "mc-run":
        argv += ["--replicas", "1"]
    proc, elapsed = _run_in_child(argv + ["--out", "x"], workdir)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr == "error: a term has 13 blocks; at most 10 per term are supported\n"
    assert elapsed < 2, elapsed
    assert not (workdir / "x.csv").exists()


def test_mc_run_over_the_draw_cap_exits_2_at_once(workdir):
    # N = 1e11 normal rows ended in numpy's "Unable to allocate 745. GiB"
    argv = ["mc-run", "--functional", "var.json", "--population", "pop.json",
            "--n", "100000000000", "--k", "0", "--replicas", "1", "--out", "x"]
    proc, elapsed = _run_in_child(argv, workdir)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr == (
        "error: one replica draws N x (d + k) = 100000000000 cells;"
        " at most 2**20 are supported\n"
    )
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("d, n, k", [(1, 2**20 + 1, 0), (3, 2**18, 2), (1, 2**19 + 1, 1)])
def test_mc_run_draw_cap_counts_root_cells_and_link_picks(workdir, monkeypatch, capsys, d, n, k):
    # N x d root cells plus k x N link picks: each case draws more than 2**20
    # cells, and bias_experiment stops it before the exact trajectory runs
    monkeypatch.chdir(workdir)
    (workdir / "popd.json").write_text(json.dumps({"family": "normal", "d": d}))

    def exact_bias_not_wanted(*args):
        raise AssertionError("the exact trajectory ran before the draw cap")

    monkeypatch.setattr(cli.mc_mod, "exact_bias", exact_bias_not_wanted)
    rc = main(["mc-run", "--functional", "var.json", "--population", "popd.json",
               "--n", str(n), "--k", str(k), "--replicas", "1", "--out", "x"])
    err = _assert_usage_error(rc, capsys)
    assert f"= {n * (d + k)} cells; at most 2**20" in err


@pytest.mark.parametrize(
    "functional, code, message",
    [("var.json", 3, "an explicit moment table has no law to draw X^1 from"),
     ("big.json", 2, "a term has 11 blocks; at most 10 per term are supported")],
    ids=["no-sampler", "block-cap-first"],
)
def test_mc_run_on_a_moment_table_population(workdir, monkeypatch, capsys, functional, code,
                                             message):
    # a moment table has no sampling law; a term over the block cap is
    # reported first, as for a population that has one
    monkeypatch.chdir(workdir)
    (workdir / "table.json").write_text(
        json.dumps({"d": 1, "moments": [{"block": [0], "value": "0"}, {"block": [0, 0], "value": "1"}]})
    )
    big = {"d": 1, "terms": [{"blocks": [[0]] * 11, "coeff": "1"}]}
    (workdir / "big.json").write_text(json.dumps(big))
    rc = main(["mc-run", "--functional", functional, "--population", "table.json", "--n", "4",
               "--k", "1", "--replicas", "10", "--out", "x"])
    assert rc == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize(
    "m, n, bits", [("1600", "7", 17600), ("3000", "3", 36000)], ids=["m1600-n7", "m3000-n3"]
)
def test_smatrix_reduced_over_the_cap_exits_2_at_once(workdir, m, n, bits):
    # m = 1600 at N = 7 took 10.6 s, and m = 3000 at N = 3 ran past 20 s
    proc, elapsed = _run_in_child(["smatrix", "--m", m, "--n", n, "--reduced", "--out", "x"], workdir)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr == (
        f"error: the level-sum matrix at m={m}, N={n} has cells of up to"
        f" m x bit_length(max(m, N)) = {bits} bits; at most 2400 are supported\n"
    )
    assert elapsed < 2, elapsed
    assert not (workdir / "x.csv").exists()


def test_linconv_m_max_is_capped(workdir, monkeypatch, capsys):
    # row m sums m log1p terms, so the table costs m_max^2 / 2 of them: 16000
    # rows took 13 s, and --m-max 1000000 would have run for hours
    monkeypatch.chdir(workdir)
    assert main(["bounds", "--kind", "linconv", "--m-max", "4096", "--out", "lc"]) == 0
    _, rows = _rows(workdir / "lc.csv", "linconv")
    assert len(rows) == 4096
    start = time.perf_counter()
    err = _assert_usage_error(
        main(["bounds", "--kind", "linconv", "--m-max", "4097", "--out", "x"]), capsys
    )
    assert time.perf_counter() - start < 0.5
    assert err == "error: --m-max must be <= 4096, got 4097\n"
    assert not (workdir / "x.csv").exists()


def test_console_script_installed(workdir):
    # the child process finds the package where the tests import it from
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusboot.cli", "smatrix", "--m", "2", "--n", "3",
         "--out", str(workdir / "sub")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (workdir / "sub.csv").exists()
    assert (workdir / "sub.json").exists()


# A child process: an exit handler registered before anything else, which
# therefore runs after every later one, prints whether the heap is frozen
# then; the child then runs `main` once per argv in sys.argv[1:].
_FREEZE_PROBE = """
import atexit, gc, json, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, flush=True))
from mobiusboot import cli
for argv in map(json.loads, sys.argv[1:]):
    assert cli.main(argv) == 0
"""


def _without_timestamp(path):
    """An artifact's lines without its one timestamp line."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith((b"# timestamp: ", b' "timestamp": '))]
    assert len(kept) == len(lines) - 1, path.name
    return kept


@pytest.mark.parametrize("runs", [0, 2])
def test_main_freezes_the_heap_at_exit(tmp_path, monkeypatch, runs):
    # main registers gc.freeze once per process, so the interpreter's shutdown
    # collections skip the heap; importing the package registers nothing
    argvs = [["lattice", "--m", "3", "--out", name] for name in ("a", "b")][:runs]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    (tmp_path / "child").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, *map(json.dumps, argvs)],
        cwd=tmp_path / "child",
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{runs > 0}\n"
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    for argv in argvs:
        assert main(argv) == 0
        for suffix in (".csv", ".json"):
            name = argv[-1] + suffix
            assert _without_timestamp(tmp_path / "child" / name) == _without_timestamp(
                tmp_path / "here" / name
            )


def test_cli_imports_no_private_name():
    # the front end reaches the library through public names only, so a
    # library caller needs nothing that only cli.py can reach; a dunder such
    # as __version__ is public
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for name in (alias.name.rpartition(".")[2], alias.asname or "")
    ]
    private = [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]
    assert private == []
    assert "__version__" in names  # the walk sees the imports


def test_cli_holds_no_input_cap():
    # each cap on a library input is checked in the library function it
    # guards (lattice.check_block_cap, StepSchedule's step cap, the draw cap
    # of mc.bias_experiment, mc._check_run's replica cap), and so is the rule
    # that a functional's labels fit the data's columns (mc._check_data); the
    # front end keeps only its own flag rules
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "check_block_cap" not in imported and "CapExceededError" in imported
    module_names = [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    assert "_JSON_ERRORS" in module_names  # the walk sees the assignments
    assert [name for name in module_names if name.endswith("_CAP")] == []
    powers = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and ast.unparse(node) in ("2 ** 20", "2 ** 32"))
        or (isinstance(node, ast.Constant) and node.value in (2**20, 2**32))
    ]
    assert powers == []
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert "art.add_table" in calls  # the walk sees method calls
    assert [call for call in calls if call.endswith(".max_label")] == []


def test_one_population_object_per_law():
    # a law is one population object: no function of the library takes a
    # separate sampler beside its moments, and the front end builds no
    # population, tabulates no moment and reads no block set itself
    src = Path(cli.__file__).parent
    params = [
        (path.name, ast.unparse(node)[:60])
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and any(
            arg.arg == "sampler"
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    ]
    assert params == []
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "population_from_dict" in imported  # the walk sees the imports
    assert imported & {"MomentTable", "NormalPopulation", "reachable_blocks"} == set()


BIG_N = "1" + "0" * 2200  # N = 10^2200: N^2 has 4401 digits, past str()'s 4300


def _exact(text):
    """The Fraction of a p/q cell, read through decimal, past the digit limit."""
    from decimal import Decimal

    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_bias_prints_cells_past_the_digit_limit(workdir, monkeypatch):
    # each trajectory cell was a ValueError traceback (exit 1) with a partial
    # BASE.csv left behind; every cell now prints in full, in both files
    from mobiusboot.debias import StepSchedule, exact_bias
    from mobiusboot.moments import NormalPopulation

    monkeypatch.chdir(workdir)
    assert main(BIAS + ["--n", BIG_N, "--k", "1", "--out", "big"]) == 0
    report = exact_bias(polynomial_from_dict(VARIANCE_JSON), StepSchedule.unit(int(BIG_N), 1),
                        NormalPopulation(1))
    want = [[r.k, r.signed_bias, r.abs_bias] for r in report.records]
    _, rows = _rows(workdir / "big.csv", "trajectory")
    assert [[int(k), _exact(s), _exact(a)] for k, s, a, _ in rows] == want
    assert max(len(row[1]) for row in rows) > 4400
    json_rows = json.loads((workdir / "big.json").read_text())["tables"]["trajectory"]["rows"]
    assert [row[:3] for row in json_rows] == [row[:3] for row in rows]


def test_smatrix_with_cells_past_the_cap_exits_2_before_writing(workdir, monkeypatch, capsys):
    # the dense S is held to the level-sum matrix's cell rule, so no run
    # writes gigabytes of digits; it exits before any artifact file opens
    monkeypatch.chdir(workdir)
    err = _assert_usage_error(main(["smatrix", "--m", "2", "--n", BIG_N, "--out", "x"]), capsys)
    assert err.startswith(f"error: the sampling matrix at m=2, N={BIG_N} has cells of up to")
    assert err.endswith(" = 14618 bits; at most 2400 are supported\n")
    assert not (workdir / "x.csv").exists() and not (workdir / "x.json").exists()


def test_bias_trajectory_over_the_bit_budget_exits_2_at_once(workdir, monkeypatch):
    # bias --n 10 --k 5000 wrote 50 MB in 3 s, and the files grow as k^2:
    # exact_bias holds the rows to debias.TRAJECTORY_CAP bits before any file opens
    proc, elapsed = _run_in_child(BIAS + ["--n", "10", "--k", "100000", "--out", "x"], workdir)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr.startswith("error: the exact trajectory at N=10 takes about ")
    assert proc.stderr.endswith(" of 100000 (m x bit_length(N) = 8 more per row, plus the steps' bits);"
                                " at most 2**25 are supported\n")
    assert elapsed < 1, elapsed
    assert not (workdir / "x.csv").exists() and not (workdir / "x.json").exists()
    monkeypatch.chdir(workdir)
    assert main(BIAS + ["--n", "10", "--k", "1000", "--out", "ok"]) == 0
    _, rows = _rows(workdir / "ok.csv", "trajectory")
    assert len(rows) == 1001


def test_artifact_prints_exact_cells_past_the_digit_limit(tmp_path):
    # str() of an int of more than 4300 digits raises ValueError; every
    # table route and the JSON mirror print such cells in full
    from decimal import Decimal
    from mobiusboot.lattice import IncidenceMatrix

    big, neg = Fraction(10**5000 + 1, 3), -(7**6000)
    big_text, neg_text = f"{Decimal(10**5000 + 1)}/3", str(Decimal(neg))
    art = Artifact("t", [])
    art.add_table("cells", ["a", "b"], [[big, neg]])
    art.add_matrix("m", ["1", "2"], IncidenceMatrix(range(2), ((0, 1), (1,)), [[1, big], [neg]]))
    art.write(tmp_path / "x")
    csv_lines = [line for line in (tmp_path / "x.csv").read_text().splitlines() if not line.startswith("#")]
    assert csv_lines[1] == f"{big_text},{neg_text}"
    assert csv_lines[3:] == [f"1,1,{big_text}", f"2,0,{neg_text}"]
    tables = json.loads((tmp_path / "x.json").read_text())["tables"]
    assert tables["cells"]["rows"] == [[big_text, neg_text]]
    assert tables["m"]["rows"] == [["1", "1", big_text], ["2", "0", neg_text]]
    assert _scalar(np.int64(-5)) == "-5" and _scalar(big) == big_text


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class CountingRows:
    """Rows that record how often they are iterated and how many rows were read."""

    def __init__(self, n):
        self.n, self.iterations, self.read = n, 0, 0

    def __iter__(self):
        self.iterations += 1
        for i in range(self.n):
            self.read += 1
            yield [i, Fraction(i, 3), 0.5 * i]


def test_artifact_rows_read_once_at_write_time(tmp_path):
    art = Artifact("test", [])
    tables = {"a": CountingRows(3), "b": CountingRows(0), "c": CountingRows(2)}
    for name, rows in tables.items():
        art.add_table(name, ["i", "q", "x"], rows)
    assert all(rows.iterations == rows.read == 0 for rows in tables.values())
    art.write(tmp_path / "out")
    assert [(rows.iterations, rows.read) for rows in tables.values()] == [(1, 3), (1, 0), (1, 2)]
    written = json.loads((tmp_path / "out.json").read_text())["tables"]
    assert written["a"]["rows"] == [["0", "0", "0.0"], ["1", "1/3", "0.5"], ["2", "2/3", "1.0"]]
    assert written["b"]["rows"] == []


@pytest.mark.parametrize("key", ["provenance", "timestamp", "tables"])
def test_artifact_extra_may_not_replace_its_own_blocks(tmp_path, key):
    art = Artifact("test", [])
    art.add_table("t", ["x"], [[1]])
    art.extra[key] = "shadow"
    with pytest.raises(ValueError, match=key):
        art.write(tmp_path / "out")
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.json").exists()


def test_artifact_rejects_duplicate_table_names():
    art = Artifact("test", [])
    art.add_table("t", ["x"], [[1]])
    with pytest.raises(ValueError, match="duplicate table name 't'"):
        art.add_table("t", ["y"], [[2]])


# sha256 of each artifact with its timestamp line removed, as the CLI wrote
# them before the dense operators moved to integer routes and plain rows to a
# single join; lattice --m 7 (the benchmark's own call) as it wrote it before
# the coarsening table and the per-write cell texts.  The flags line holds the
# argv, so each run uses this --out.
ARTIFACT_DIGESTS = {
    ("lattice", "--m", "5", "--out", "lat5"): {
        "lat5.csv": "4f0d0ac3f7e8fc57f974bb3a28d9b4e08a64ca9b57be0365b8337493b3efe90d",
        "lat5.json": "bc37b83ebf116f036597cd416f6bbfebf036b077cbcc4a51ac9aab07b30ac96f",
    },
    ("lattice", "--m", "7", "--out", "lat7"): {
        "lat7.csv": "c525017fbff3157e71165a721861934f00a37d9f7ac489a2e7b58e44838ddde5",
        "lat7.json": "ea4c81e1eafb2bab57497e6fca36ef8edb2ade305232623cf242b386ba37b160",
    },
    ("smatrix", "--m", "4", "--n", "3", "--out", "sm43"): {
        "sm43.csv": "2cd116d1a9d7e69540c56e6c2981bd07b3ce09e169b911d7fb8085480cc58582",
        "sm43.json": "19f4c160335c6e5439df53f28bb169d2c2d46e23e44f49b423076a7080cf8340",
    },
    ("smatrix", "--m", "5", "--n", "7", "--reduced", "--out", "sm57r"): {
        "sm57r.csv": "81bc47e8904bafc87118ea43af0534d5bb4f29f7726f8cdd6f1ad7a2e9d6d756",
        "sm57r.json": "c3c9912eb746193c282a87ab7f18a741241880c30bdad5781aa8ee03d2ab7301",
    },
}


@pytest.mark.parametrize("argv", list(ARTIFACT_DIGESTS), ids=lambda argv: argv[-1])
def test_dense_artifacts_keep_their_bytes(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    for name, digest in ARTIFACT_DIGESTS[argv].items():
        kept = _without_timestamp(tmp_path / name)
        assert hashlib.sha256(b"".join(kept)).hexdigest() == digest, name


FIXED_STAMP = datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


class _FixedClock:
    @staticmethod
    def now(tz=None):
        return FIXED_STAMP


ODD_TEXTS = [",", '"', "\\", "\n", "\r", " ", "grüße", "a,b", 'say "hi"', "tab\there", "del\x7f", ""]


@pytest.mark.parametrize(
    "row",
    [
        ["13|2", 0, 1, -1, 2, 0],
        [-3, -17, 0, -(2**70)],
        ["1|2|3", Fraction(-3, 4), Fraction(1, 7), 0, Fraction(5)],
        ["x", "a b", "S = R.zeta.C^-1", "true"],
        ["", "", 1],
        [1, "", 2],
        *([text] for text in ODD_TEXTS),
        *(["13|2", 0, text, Fraction(1, 3)] for text in ODD_TEXTS),
    ],
)
def test_plain_row_join_matches_whole_file_writer(tmp_path, monkeypatch, row):
    monkeypatch.setattr(artifact, "datetime", _FixedClock)
    art = Artifact("rows", ["--m", "2"])
    art.add_table("t", ["row", "a", "b", "c"], [row, ["13|2", 1, 0, 0], row])
    art.add_table("u", ["x"], [row])
    art.write(tmp_path / "new")
    oracles.write_artifact(art, tmp_path / "old", FIXED_STAMP.isoformat())
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()


def test_equal_cells_of_other_types_keep_their_own_text(tmp_path, monkeypatch):
    # 1, Fraction(1) and "1" share the write's text dict in plain rows; True,
    # 1.0 and np.int64(1) equal 1 but print through _scalar, in mixed rows
    # written both before and after the plain ones
    monkeypatch.setattr(artifact, "datetime", _FixedClock)
    mixed = [1, Fraction(1), "1", True, 1.0, np.int64(1), Fraction(2, 4)]
    plain = [1, Fraction(1), "1", Fraction(2, 4), Fraction(1, 2), 2, Fraction(2)]
    art = Artifact("mixed", [])
    art.add_table(
        "t",
        ["a", "b", "c", "d", "e", "f", "g"],
        [mixed, plain, [True, 1, 1.0, Fraction(1), np.int64(1), "1", 0], plain, mixed[::-1]],
    )
    art.add_table("u", ["x", "y"], [[1.0, 1], [1, True], [Fraction(1), "true"], [0.5, Fraction(1, 2)]])
    art.write(tmp_path / "new")
    oracles.write_artifact(art, tmp_path / "old", FIXED_STAMP.isoformat())
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()
    _, rows = _rows(tmp_path / "new.csv", "t")
    assert rows[0] == ["1", "1", "1", "true", "1.0", "1", "1/2"]


def _oracle_route_argvs():
    yield from (("lattice", "--m", str(m)) for m in range(1, 6))
    for m in range(1, 6):
        # N < m puts Fraction(0) cells on the support of S
        for n in sorted({1, max(m - 1, 1), m, m + 2}):
            yield ("smatrix", "--m", str(m), "--n", str(n))
        yield ("smatrix", "--m", str(m), "--n", str(max(m - 2, 1)), "--reduced")
        yield ("smatrix", "--m", str(m), "--n", str(m + 3), "--reduced")
    yield ("lattice", "--m", "7")


@pytest.mark.parametrize("argv", list(_oracle_route_argvs()), ids=" ".join)
def test_matrix_tables_match_per_cell_route(tmp_path, monkeypatch, argv):
    # the support route of _MatrixRows against every row rendered cell by cell
    monkeypatch.setattr(artifact, "datetime", _FixedClock)
    for route in ("new", "old"):
        (tmp_path / route).mkdir()
        monkeypatch.chdir(tmp_path / route)
        if route == "old":
            monkeypatch.setattr(Artifact, "add_matrix", oracles.matrix_table)
        assert main([*argv, "--out", "art"]) == 0
    for suffix in (".csv", ".json"):
        new = (tmp_path / "new" / f"art{suffix}").read_bytes()
        assert new == (tmp_path / "old" / f"art{suffix}").read_bytes(), suffix


def _hand_built(m):
    """Mobius matrix of Pi(m) whose rows break the support contract one way each."""
    M = lattice.mobius_matrix(m)
    entries = [list(row) for row in M.entries]
    n = len(entries)
    entries[0][n - 1] = 5  # nonzero above the order
    entries[1][n - 1] = 0.0  # equals 0, prints 0.0
    entries[2][n - 1] = False  # equals 0, prints false
    entries[3][0] = 1.0  # a float cell on the support
    entries[4][n - 1] = Fraction(0)  # a Fraction zero off the order prints 0
    entries[5][0] = "7"  # a str cell on the support
    return oracles.matrix_from_rows(M.index, entries)


def test_a_fallback_matrix_row_builds_no_dense_view(tmp_path, monkeypatch):
    # a row with a float cell takes the per-cell route from its own stored
    # cells: the matrix's entries, Bell(m)^2 cells, are never built
    monkeypatch.setattr(artifact, "datetime", _FixedClock)
    entries = [list(row) for row in lattice.zeta_matrix(4).entries]
    entries[3][0] = 0.5
    M = oracles.matrix_from_rows(lattice.enumerate_partitions(4), entries)
    art = Artifact("planted", [])
    art.add_matrix("m", [lattice.format_partition(pi) for pi in M.index], M)
    art.write(tmp_path / "new")
    assert M._entries is None
    oracles.write_artifact(art, tmp_path / "old", FIXED_STAMP.isoformat())
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()
    _, rows = _rows(tmp_path / "new.csv", "m")
    assert rows[3][1] == "0.5"


def test_matrix_rows_off_support_fall_back_to_per_cell_route(tmp_path, monkeypatch):
    monkeypatch.setattr(artifact, "datetime", _FixedClock)
    M = _hand_built(4)
    labels = [lattice.format_partition(pi) for pi in M.index]
    labels[6] = "1,2|34"  # a label CSV must quote
    art = Artifact("hand", [])
    art.add_matrix("m", labels, M)
    art.add_matrix("z", labels, lattice.zeta_matrix(4))
    art.write(tmp_path / "new")
    oracles.write_artifact(art, tmp_path / "old", FIXED_STAMP.isoformat())
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()
    _, rows = _rows(tmp_path / "new.csv", "m")
    assert [row[-1] for row in rows[:3]] == ["5", "0.0", "false"]
    # the rows with a cell other than int or Fraction, or an odd label, and
    # only those, take the per-cell route
    for (_, _, rows), broken in zip(art.tables, ([1, 2, 3, 5, 6], [6])):
        assert [i for i, (line, _) in enumerate(rows.render()) if line is None] == broken


_CELLS = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=10**6),
    st.just(0.0),
    st.just(False),
    st.sampled_from(ODD_TEXTS),
)
_LABELS = st.one_of(
    st.sampled_from(["1|2", "13|2", "a b", "S = R.zeta.C^-1", "0"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
    st.sampled_from(ODD_TEXTS),
    st.sampled_from([7, -1, 1.5, False]),
)


@st.composite
def _square_matrices(draw):
    s = draw(st.integers(0, 5))
    entries = draw(st.lists(st.lists(_CELLS, min_size=s, max_size=s), min_size=s, max_size=s))
    labels = draw(st.lists(_LABELS, min_size=s, max_size=s))
    return labels, oracles.matrix_from_rows(range(1, s + 1), entries)


@settings(
    max_examples=80,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_square_matrices())
def test_matrix_rows_match_whole_file_writer(tmp_path, monkeypatch, labeled):
    # every row, on the stored-cell route or not, has the oracle's bytes
    monkeypatch.setattr(artifact, "datetime", _FixedClock)
    labels, M = labeled
    art = Artifact("square", [])
    art.add_matrix("m", labels, M)
    art.write(tmp_path / "new")
    oracles.write_artifact(art, tmp_path / "old", FIXED_STAMP.isoformat())
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()


def test_add_matrix_rejects_labels_that_do_not_match_the_matrix():
    art = Artifact("z", [])
    with pytest.raises(ValueError, match="2 labels for a matrix of 5 rows"):
        art.add_matrix("z", ["a", "b"], lattice.zeta_matrix(3))
    assert art.tables == []


def test_identity_check_sees_a_zeta_cell_off_the_order():
    # matvec reads every cell, so the selftest's check does not trust the support
    Z = lattice.zeta_matrix(3)
    entries = [list(row) for row in Z.entries]
    entries[0][-1] = 1  # finest row, coarsest column
    assert selftest._is_identity(Z, lattice.mobius_matrix(3))
    assert not selftest._is_identity(oracles.matrix_from_rows(Z.index, entries), lattice.mobius_matrix(3))


def test_one_norm_check_builds_one_S_per_m_and_n(monkeypatch):
    built = []
    real = selftest.sampling_matrix

    def counting(m, n):
        built.append((m, n))
        return real(m, n)

    monkeypatch.setattr(selftest, "sampling_matrix", counting)
    selftest._check_one_norm()
    assert len(built) == len(set(built)) == 4 * 5
    # every eta is still checked against the dense matrix: one cell moved off
    # its weight in the finest column breaks the check
    def shifted(m, n):
        S = real(m, n)
        entries = [list(row) for row in S.entries]
        entries[-1][0] += Fraction(1, n**m)
        return oracles.matrix_from_rows(S.index, entries)

    monkeypatch.setattr(selftest, "sampling_matrix", shifted)
    with pytest.raises(selftest.SelfTestFailure, match="one-norm"):
        selftest._check_one_norm()
