"""Tests of the benchmark itself: tracer counts, trace transparency, gates, inputs.

Every traced run happens in a child interpreter, so the wrappers never touch
the modules that the rest of the test run imports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mobiusboot.lattice import enumerate_partitions, format_partition, mobius_matrix  # noqa: E402


def run_child(workdir, name, argv, trace):
    """Run one CLI invocation through the benchmark's launcher."""
    inv = workloads.Invocation(name, argv, out=None)
    sample = bench.run_invocation(inv, Path(workdir), trace)
    assert not sample.errors, sample.errors
    return sample


def traced_calls(sample):
    times, counts, _ = sample.trace
    return {name: calls for name, (_, calls) in times.items()}, counts


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "var.json").write_text(json.dumps(workloads.functional_json(workloads.VARIANCE)))
    (tmp_path / "pop.json").write_text(json.dumps({"family": "normal", "d": 1}))
    (tmp_path / "data.csv").write_text("x\n0.5\n1.25\n-2.0\n")
    return tmp_path


@pytest.mark.parametrize("schedule", [None, "default"])
def test_apply_S_called_2k_plus_1_times_per_trajectory(workdir, schedule):
    k = 3
    argv = ["bias", "--functional", "var.json", "--population", "pop.json",
            "--n", "5", "--k", str(k), "--out", "b"]
    if schedule:
        argv += ["--schedule", schedule]
    calls, counts = traced_calls(run_child(workdir, "b", argv, trace=True))
    assert calls["debias.exact_bias"] == 1
    assert calls["resampling.apply_S"] == 2 * k + 1
    assert counts["debias.iterate_terms_max"] >= 2


def test_sampling_matrix_built_three_times_per_smatrix(workdir):
    calls, counts = traced_calls(
        run_child(workdir, "s", ["smatrix", "--m", "3", "--n", "4", "--out", "s"], trace=True)
    )
    assert calls["resampling.sampling_matrix"] == 3
    assert counts["resampling.sampling_matrix.cells"] == 3 * 5 * 5


def test_m1_evaluate_and_resample_counts(workdir):
    R = 20
    argv = ["mc-run", "--functional", "var.json", "--population", "pop.json", "--n", "10",
            "--k", "2", "--schedule", "default", "--replicas", str(R), "--seed", "7", "--out", "m"]
    calls, counts = traced_calls(run_child(workdir, "m", argv, trace=True))
    assert calls["moments.evaluate"] == R * (1 + 2 + 3) + 4
    assert calls["mc.resample"] == R * (0 + 1 + 2)
    assert counts["mc.replicas"] == 3 * R


def test_wrappers_replace_every_import_binding():
    code = (
        "import mobiusboot.cli, tracer\n"
        "from mobiusboot import cli, debias, mc, resampling\n"
        "t = tracer.Tracer(); t.install()\n"
        "fns = [cli.apply_S, debias.apply_S, mc.apply_S, resampling.apply_S]\n"
        "assert all(f is fns[0] and hasattr(f, '__wrapped__') for f in fns)\n"
        "assert cli.evaluate is mc.evaluate is debias.evaluate and hasattr(cli.evaluate, '__wrapped__')\n"
    )
    env = {"PYTHONPATH": f"{bench.SRC}:{bench.HERE}"}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize(
    "argv",
    [
        ["bias", "--functional", "var.json", "--population", "pop.json", "--n", "4", "--k", "2",
         "--schedule", "default", "--out", "a"],
        ["mc-run", "--functional", "var.json", "--data", "data.csv", "--k", "1",
         "--replicas", "50", "--seed", "3", "--out", "a"],
        ["lattice", "--m", "3", "--out", "a"],
        ["smatrix", "--m", "3", "--n", "2", "--out", "a"],
    ],
    ids=["bias", "mc-run", "lattice", "smatrix"],
)
def test_traced_artifacts_identical_to_untraced(workdir, argv):
    inv = workloads.Invocation("a", argv, out="a")
    run_child(workdir, "a", argv, trace=False)
    plain = bench.output_digest(inv, workdir)
    run_child(workdir, "a", argv, trace=True)
    assert bench.output_digest(inv, workdir) == plain


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    def files(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    a = workloads.build(workload, 11, tmp_path / "a")
    b = workloads.build(workload, 11, tmp_path / "b")
    c = workloads.build(workload, 12, tmp_path / "c")
    assert [i.argv for i in a] == [i.argv for i in b]
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert [i.argv for i in a] != [i.argv for i in c] or files(tmp_path / "a") != files(tmp_path / "c")


def test_functional_generator_controls_label_diversity():
    import random

    rng = random.Random(0)
    F = workloads.functional(rng, 7, [(1,) * 7, (3, 2, 2)], distinct=True)
    for term in F.terms:
        labels = [lab for block in term.blocks for lab in block]
        assert sorted(labels) == list(range(7))
    G = workloads.functional(rng, 2, [(1,) * 7], distinct=False)
    assert all(lab in (0, 1) for term in G.terms for block in term.blocks for lab in block)


def test_csv_cells_load_as_floats(tmp_path):
    import numpy as np
    from mobiusboot.moments import dataset_from_csv

    workloads.write_csv(tmp_path / "d.csv", [[np.float64(0.25), 1], [2.5, np.float64(-1.0)]])
    assert dataset_from_csv(tmp_path / "d.csv").rows == ((0.25, 1.0), (2.5, -1.0))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_mobius_product_formula_matches_library(m):
    labels = [format_partition(pi) for pi in enumerate_partitions(m)]
    expected = workloads.mobius_expected(labels)
    entries = mobius_matrix(m).entries
    for i, row in enumerate(labels):
        for j, col in enumerate(labels):
            assert entries[i][j] == expected.get((row, col), 0)


def test_gates_reject_tampered_output(workdir):
    run_child(workdir, "lat", ["lattice", "--m", "3", "--out", "lat"], trace=False)
    gate = workloads._lattice_gate("lat", 3)
    assert gate(workdir, "") == []
    path = workdir / "lat.csv"
    path.write_text(path.read_text().replace("2,-1,-1,-1,1", "2,-1,-1,1,1"))
    assert gate(workdir, "")

    run_child(workdir, "s", ["smatrix", "--m", "3", "--n", "2", "--out", "s"], trace=False)
    gate = workloads._smatrix_gate("s", 3)
    assert gate(workdir, "") == []
    path = workdir / "s.csv"
    path.write_text(path.read_text().replace("S = R.zeta.C^-1,true", "S = R.zeta.C^-1,false"))
    assert gate(workdir, "")


def test_bias_gate_uses_independent_oracle(workdir):
    from mobiusboot.moments import normal_moment_table

    table = normal_moment_table(1, 2)
    rows, target = workloads._bias_oracle(workloads.VARIANCE, 4, 2, table, scheduled=True)
    assert rows[2] == 0
    run_child(workdir, "b", ["bias", "--functional", "var.json", "--population", "pop.json",
                             "--n", "4", "--k", "2", "--schedule", "default", "--out", "b"], trace=False)
    assert workloads._bias_gate("b", rows, target, zero_from=2)(workdir, "") == []
    shifted = [r + 1 for r in rows]
    assert workloads._bias_gate("b", shifted, target, zero_from=2)(workdir, "")


def test_self_times_sum_to_root_durations():
    names = ["cli.main", "resampling.apply_S", "moments.evaluate"]
    spans = [(1, 1, 0, 10, 40), (2, 2, 1, 15, 20), (3, 2, 0, 50, 60), (0, 0, -1, 0, 100)]
    times, root_ns = tracer.self_times(names, spans)
    assert times["cli.main"] == [100 - 30 - 10, 1]
    assert times["resampling.apply_S"] == [30 - 5, 1]
    assert times["moments.evaluate"] == [5 + 10, 2]
    assert sum(ns for ns, _ in times.values()) == root_ns == 100


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    inv = workloads.Invocation("a", [], replicas=10)
    sample = bench.Sample(1.0, 0.1, 1.0, 10.0, [], ({"cli.main": [10**9, 1]}, {}, 10**9))
    sample.reference = (2 * bench.REFERENCE_S, bench.REFERENCE_S / 2)
    e2e = bench.end_to_end([inv], [[sample]], lambda line: None)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    # Wall-clock metrics scale with the reference loop's wall time, cpu_s with its CPU time.
    assert e2e["wall_s"]["value"] == 0.5 and e2e["setup_s"]["value"] == 0.05
    assert e2e["cpu_s"]["value"] == 2.0 and e2e["peak_rss_mb"]["value"] == 10.0
    layers = bench.per_layer([inv], [[sample]], [[sample]], lambda line: None)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
