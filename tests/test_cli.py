"""End-to-end checks of the command-line interface."""

import hashlib
import json
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np
import pytest

from mobiusboot import cli, lattice, polynomial_from_dict
from mobiusboot.cli import Artifact, _scalar, main
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
    ],
    ids=[
        "smatrix-n0", "smatrix-reduced-n0", "smatrix-m0", "smatrix-reduced-m0", "bias-n0", "mc-population-n0",
        "bias-k-negative", "mc-data-k-negative", "mc-population-k-negative", "mc-replicas0",
        "mc-data-seed-negative", "mc-population-seed-negative",
        "mc-data-replicas-2^32", "mc-population-replicas-2^32",
    ],
)
def test_integer_flags_out_of_range_exit_2(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    _assert_usage_error(main(argv + ["--out", "x"]), capsys)
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
    ],
    ids=["unparsable", "no-d", "no-terms", "no-blocks", "no-coeff", "zero-denominator",
         "not-object", "nan-coeff", "inf-coeff", "bool-coeff", "bool-d", "float-d",
         "bool-label"],
)
def test_malformed_functional_exit_2(workdir, monkeypatch, capsys, text):
    monkeypatch.chdir(workdir)
    (workdir / "bad.json").write_text(text)
    rc = main(["bias", "--functional", "bad.json", "--population", "pop.json",
               "--n", "4", "--k", "1", "--out", "x"])
    _assert_usage_error(rc, capsys)


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
    "argv",
    [
        BIAS + ["--n", "4", "--k", "2", "--schedule", "0,1"],
        BIAS + ["--n", "4", "--k", "2", "--schedule=-1,2"],
        MC_DATA + ["--k", "2", "--schedule", "0,1"],
        MC_POP + ["--n", "4", "--k", "2", "--schedule=-1,2"],
        BIAS + ["--n", "4", "--k", "2", "--schedule", "1,,2"],
        BIAS + ["--n", "4", "--k", "1", "--schedule", "2,"],
    ],
    ids=["bias-zero-step", "bias-negative-step", "mc-data-zero-step",
         "mc-population-negative-step", "bias-empty-entry", "bias-trailing-empty-entry"],
)
def test_nonpositive_schedule_exit_2(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    _assert_usage_error(main(argv + ["--out", "x"]), capsys)
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
     ("--sigma", "-1e5", "sigma must lie in (0,1), got -100000.0")],
)
@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
def test_bounds_signed_value_reaches_its_check(workdir, monkeypatch, capsys, option, value,
                                               message, joined):
    # "--theta -inf" is the value -inf, not an option -inf
    monkeypatch.chdir(workdir)
    kind = ["--kind", "bandlimited", "--d", "2"] if option == "--theta" else ["--kind", "trace"]
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
    "argv",
    [
        ["--kind", "trace", "--sigma", "2"],
        ["--kind", "trace", "--sigma", "0.5", "--n", "0"],
        ["--kind", "bandlimited", "--d", "1", "--theta", "1", "--n", "10"],
        ["--kind", "bandlimited", "--d", "0", "--theta", "1", "--n", "100000"],
        ["--kind", "general", "--gammas", "1,1/256", "--n", "0"],
        ["--kind", "general", "--gammas", "1,1/256", "--n", "800"],
        ["--kind", "linconv", "--alpha", "0"],
        ["--kind", "linconv", "--m-max", "0"],
    ],
    ids=["trace-sigma-2", "trace-n0", "bandlimited-n-too-small", "bandlimited-d0",
         "general-n0", "general-short-gammas", "linconv-alpha0", "linconv-m-max0"],
)
def test_bounds_out_of_range_exit_2(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    _assert_usage_error(main(["bounds"] + argv + ["--out", "x"]), capsys)
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
    ],
    ids=["text-after-data", "nan", "inf", "negative-inf", "fraction-after-header", "second-header"],
)
def test_malformed_dataset_exit_2(workdir, monkeypatch, capsys, rows):
    monkeypatch.chdir(workdir)
    (workdir / "bad.csv").write_text(rows)
    rc = main(["mc-run", "--functional", "var.json", "--data", "bad.csv", "--k", "1",
               "--replicas", "10", "--out", "x"])
    _assert_usage_error(rc, capsys)
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
    ],
    ids=["unparsable", "not-object", "no-moments", "no-d", "d-zero", "no-block",
         "block-not-list", "label-out-of-range", "no-value", "nan-string", "zero-denominator",
         "nan-number", "inf-number", "null-value", "normal-d-not-int"],
)
def test_malformed_population_exit_2(workdir, monkeypatch, capsys, text):
    monkeypatch.chdir(workdir)
    (workdir / "bad.json").write_text(text)
    rc = main(["bias", "--functional", "var.json", "--population", "bad.json",
               "--n", "4", "--k", "1", "--out", "x"])
    _assert_usage_error(rc, capsys)
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
    from mobiusboot import cli

    def broken():
        raise cli.SelfTestFailure("deliberately broken")

    patched = [("mobius_small_table", cli.SELFTEST_CHECKS[0][1]), ("injected_invariant", broken)]
    patched += cli.SELFTEST_CHECKS[2:]
    monkeypatch.setattr(cli, "SELFTEST_CHECKS", patched)
    assert main(["selftest"]) == 4
    out = capsys.readouterr().out
    assert "FAIL injected_invariant: deliberately broken" in out


def test_console_script_installed(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "mobiusboot.cli", "smatrix", "--m", "2", "--n", "3",
         "--out", str(workdir / "sub")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (workdir / "sub.csv").exists()
    assert (workdir / "sub.json").exists()


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
        lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith((b"# timestamp: ", b' "timestamp": '))]
        assert len(kept) == len(lines) - 1, name
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
    monkeypatch.setattr(cli, "datetime", _FixedClock)
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
    monkeypatch.setattr(cli, "datetime", _FixedClock)
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


def test_plain_line_only_for_cells_written_as_they_are():
    assert cli._plain_line(["13|2", "0", "-3/4", "a b"]) == "13|2,0,-3/4,a b"
    assert cli._plain_line(["", ""]) == ","
    for text in ODD_TEXTS:
        if text not in (" ", ""):
            assert cli._plain_line(["1", text]) is None, text
    assert cli._plain_line([]) is None
    assert cli._plain_line([""]) is None


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
    monkeypatch.setattr(cli, "datetime", _FixedClock)
    for route in ("new", "old"):
        (tmp_path / route).mkdir()
        monkeypatch.chdir(tmp_path / route)
        if route == "old":
            monkeypatch.setattr(cli, "_matrix_table", oracles.matrix_table)
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
    return lattice.IncidenceMatrix(M.index, entries)


def test_matrix_rows_off_support_fall_back_to_per_cell_route(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "datetime", _FixedClock)
    M = _hand_built(4)
    labels = [lattice.format_partition(pi) for pi in M.index]
    labels[6] = "1,2|34"  # a label CSV must quote
    art = Artifact("hand", [])
    cli._matrix_table(art, "m", labels, M)
    cli._matrix_table(art, "z", labels, lattice.zeta_matrix(4))
    art.write(tmp_path / "new")
    oracles.write_artifact(art, tmp_path / "old", FIXED_STAMP.isoformat())
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()
    _, rows = _rows(tmp_path / "new.csv", "m")
    assert [row[-1] for row in rows[:3]] == ["5", "0.0", "false"]
    # the rows that break the contract, and only those, take the per-cell route
    for (_, _, rows), broken in zip(art.tables, ([0, 1, 2, 3, 6], [6])):
        rendered = rows.render(cli._Texts())
        assert [i for i, (_, _, cells) in enumerate(rendered) if cells is not None] == broken


def test_identity_check_sees_a_zeta_cell_off_the_order():
    # matvec reads every cell, so the selftest's check does not trust the support
    Z = lattice.zeta_matrix(3)
    entries = [list(row) for row in Z.entries]
    entries[0][-1] = 1  # finest row, coarsest column
    assert cli._is_identity(Z, lattice.mobius_matrix(3))
    assert not cli._is_identity(lattice.IncidenceMatrix(Z.index, entries), lattice.mobius_matrix(3))


def test_one_norm_check_builds_one_S_per_m_and_n(monkeypatch):
    built = []
    real = cli.sampling_matrix

    def counting(m, n):
        built.append((m, n))
        return real(m, n)

    monkeypatch.setattr(cli, "sampling_matrix", counting)
    cli._check_one_norm()
    assert len(built) == len(set(built)) == 4 * 5
    # every eta is still checked against the dense matrix: one cell moved off
    # its weight in the finest column breaks the check
    def shifted(m, n):
        S = real(m, n)
        entries = [list(row) for row in S.entries]
        entries[-1][0] += Fraction(1, n**m)
        return lattice.IncidenceMatrix(S.index, entries)

    monkeypatch.setattr(cli, "sampling_matrix", shifted)
    with pytest.raises(cli.SelfTestFailure, match="one-norm"):
        cli._check_one_norm()
