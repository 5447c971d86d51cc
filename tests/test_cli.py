"""End-to-end checks of the command-line interface."""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from mobiusboot import polynomial_from_dict
from mobiusboot.cli import _scalar, main
from mobiusboot.moments import dataset_from_csv


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


def test_exit_code_exhaustive_too_large(workdir):
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


BIAS = ["bias", "--functional", "var.json", "--population", "pop.json"]
MC_POP = ["mc-run", "--functional", "var.json", "--population", "pop.json", "--replicas", "10"]
MC_DATA = ["mc-run", "--functional", "var.json", "--data", "data.csv", "--replicas", "10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["smatrix", "--m", "2", "--n", "0"],
        ["smatrix", "--m", "2", "--n", "0", "--reduced"],
        BIAS + ["--n", "0", "--k", "1"],
        MC_POP + ["--n", "0", "--k", "1"],
        BIAS + ["--n", "4", "--k", "-1"],
        MC_DATA + ["--k", "-1"],
        MC_POP + ["--n", "4", "--k", "-1"],
        MC_DATA + ["--k", "1", "--replicas", "0"],
    ],
    ids=[
        "smatrix-n0", "smatrix-reduced-n0", "bias-n0", "mc-population-n0",
        "bias-k-negative", "mc-data-k-negative", "mc-population-k-negative", "mc-replicas0",
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
    ],
    ids=["unparsable", "no-d", "no-terms", "no-blocks", "no-coeff", "zero-denominator",
         "not-object"],
)
def test_malformed_functional_exit_2(workdir, monkeypatch, capsys, text):
    monkeypatch.chdir(workdir)
    (workdir / "bad.json").write_text(text)
    rc = main(["bias", "--functional", "bad.json", "--population", "pop.json",
               "--n", "4", "--k", "1", "--out", "x"])
    _assert_usage_error(rc, capsys)


@pytest.mark.parametrize(
    "rows",
    ["x\n0.0\n1.0\nabc\n", "x\n0.0\nnan\n2.0\n", "x\n0.0\ninf\n", "x\n-inf\n1.0\n"],
    ids=["text-after-data", "nan", "inf", "negative-inf"],
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
