"""End-to-end benchmark of the mobiusboot CLI.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed, and the oracles that gate
its outputs are computed, before timing starts.  Then one client runs the
workload's invocation list again and again, each invocation in a fresh
interpreter and one after another (a closed loop, no parallelism).  A new
pass starts while it is expected to end within S seconds, and at least
MIN_PASSES passes run.  Every output is
gated: the first time an invocation's artifact is seen it is checked against
the oracle, and every later copy must be byte-identical to it apart from the
timestamp.

With --trace 0 the report gives the end-to-end metrics: setup_s, wall_s,
cpu_s and peak_rss_mb as JSON, plus error_rate and, on bias-trajectories,
replicas_per_s in the text lines above it.  Time metrics are scaled to a
reference host speed, gauged by a fixed loop timed after every invocation.  With --trace 1 the passes
alternate between untraced and traced children; the report gives per-layer
self times and counts from the traced passes, and trace.overhead_s, the
traced minus the untraced pass time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The program is imported from the checkout's
src directory; without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from hashlib import sha256
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3

# The host's speed drifts by tens of percent over minutes: other tenants slow
# the shared cores, and the hypervisor takes the CPU away (steal).  The same
# drift slows a fixed pure-Python loop, timed in this process after every
# invocation.  Time metrics are therefore reported at a reference speed: the
# measured time times REFERENCE_S over the run's median loop time on the same
# clock (wall or CPU).  REFERENCE_S is about the loop's time on an idle 2.0 GHz
# Xeon vCPU; it sets only the scale.
REFERENCE_ITERATIONS = 1_000_000
REFERENCE_S = 0.1
# A run that has not finished by now kills its running child and stops.
RUN_LIMIT_S = 170

# Per-layer metrics of a --trace 1 run; BENCHMARK.json lists the same names.
SELF_TIMED = (
    "lattice.mobius_matrix",
    "lattice.zeta_matrix",
    "lattice.cover_edges",
    "lattice.enumerate_partitions",
    "resampling.apply_S",
    "resampling.one_norm_id_minus_scaled",
    "resampling.sampling_matrix",
    "resampling.factorization",
    "resampling.one_norm_direct",
    "moments.evaluate",
    "moments.empirical_moment",
    "moments.normal_moment_table",
    "debias.exact_bias",
    "mc.bias_experiment",
    "mc.mc_estimate",
    "mc.exhaustive_estimate",
    "mc.resample",
    "cli.main",
    "cli.Artifact.add_table",
    "cli.Artifact.write",
)
CALL_COUNTED = (
    "lattice.mobius_matrix",
    "lattice.coarsenings",
    "lattice.enumerate_partitions",
    "resampling.apply_S",
    "resampling.one_norm_id_minus_scaled",
    "resampling.sampling_matrix",
    "moments.evaluate",
    "moments.empirical_moment",
    "debias.exact_bias",
    "mc.resample",
)
LOAD_FUNCTIONS = ("moments.polynomial_from_dict", "moments.dataset_from_csv")


class Sample:
    """Measurements of one finished invocation.

    For a traced invocation, trace holds (self times by span name, counts,
    root span ns) as read back from the child's span dump.  reference holds
    the (wall, CPU) seconds of the reference loop timed after the invocation.
    """

    def __init__(self, wall_s, setup_s, cpu_s, rss_mb, errors, trace=None):
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.errors = errors
        self.trace = trace
        self.reference = None


def _kill(proc):
    try:
        proc.kill()
    except ProcessLookupError:
        pass


def run_invocation(inv, workdir, trace, deadline=None):
    """Run one invocation in a fresh interpreter and wait for it to end.

    A child still running at DEADLINE (time.monotonic) is killed.
    """
    report = workdir / f"{inv.name}.report.json"
    stdout_path = workdir / f"{inv.name}.stdout"
    for stale in (report, Path(f"{report}.trace"), Path(f"{report}.trace.spans")):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    cmd = [sys.executable, str(HERE / "child.py"), str(report), "1" if trace else "0", *inv.argv]
    with open(stdout_path, "wb") as out, open(workdir / f"{inv.name}.stderr", "wb") as err:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        timer = None
        if deadline is not None:
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill, (proc,))
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            if timer is not None:
                timer.cancel()
        end_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)

    wall_s = (end_ns - start_ns) / 1e9
    cpu_s = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024
    if proc.returncode != 0:
        return Sample(wall_s, None, cpu_s, rss_mb, [f"{inv.name}: exit code {proc.returncode}"])
    with open(report) as fh:
        stamp = json.load(fh)
    setup_s = (stamp["imported_ns"] - start_ns) / 1e9
    spans = None
    if trace:
        names, counts, rows = tracer.load(f"{report}.trace")
        times, root_ns = tracer.self_times(names, rows)
        spans = (times, counts, root_ns)
    return Sample(wall_s - setup_s, setup_s, cpu_s - stamp["setup_cpu_s"], rss_mb, [], spans)


def output_digest(inv, workdir):
    """Hash of an invocation's stdout and artifacts, timestamp values removed."""
    h = sha256((workdir / f"{inv.name}.stdout").read_bytes())
    if inv.out is not None:
        csv_bytes = (workdir / f"{inv.out}.csv").read_bytes()
        stamp = csv_bytes.split(b"# timestamp: ", 1)[1].split(b"\n", 1)[0]
        for suffix in (".csv", ".json"):
            h.update((workdir / f"{inv.out}{suffix}").read_bytes().replace(stamp, b""))
    return h.hexdigest()


class Gatekeeper:
    """Checks every output; the oracle runs once per distinct output."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.verdicts = {}

    def check(self, inv):
        try:
            digest = output_digest(inv, self.workdir)
        except (OSError, IndexError) as exc:
            return [f"{inv.name}: unreadable output: {exc}"]
        key = (inv.name, digest)
        if key not in self.verdicts:
            stdout = (self.workdir / f"{inv.name}.stdout").read_text()
            try:
                self.verdicts[key] = inv.gate(self.workdir, stdout)
            except (OSError, KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
                self.verdicts[key] = [f"{inv.name}: malformed output: {exc!r}"]
        return self.verdicts[key]


def reference_loop():
    """(wall, CPU) seconds of a fixed loop that gauges the host's current speed."""
    wall, cpu = time.perf_counter(), time.process_time()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - wall, time.process_time() - cpu


def run_pass(invocations, workdir, gatekeeper, trace, deadline):
    samples = []
    for inv in invocations:
        sample = run_invocation(inv, workdir, trace, deadline)
        if not sample.errors:
            sample.errors = gatekeeper.check(inv)
        sample.reference = reference_loop()
        samples.append(sample)
    return samples


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


# -- metrics ----------------------------------------------------------------------

def pass_metrics(invocations, samples):
    drawn = [
        (inv.replicas, s.wall_s)
        for inv, s in zip(invocations, samples)
        if inv.replicas and not s.errors
    ]
    return {
        "wall_s": sum(s.wall_s for s in samples),
        "cpu_s": sum(s.cpu_s for s in samples),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "replicas_per_s": (
            sum(r for r, _ in drawn) / sum(w for _, w in drawn) if drawn else None
        ),
    }


def end_to_end(invocations, passes, report):
    """Median metrics over passes, at the reference speed; setup_s over every invocation.

    Wall-clock metrics are scaled by the reference loop's wall time and cpu_s
    by its CPU time; the text lines also give the measured medians.
    replicas_per_s is printed but left out of the JSON metrics: it exists on
    bias-trajectories only, and BENCHMARK.json needs every metric on every
    workload.
    """
    samples = [s for p in passes for s in p]
    ref_wall = statistics.median(s.reference[0] for s in samples)
    ref_cpu = statistics.median(s.reference[1] for s in samples)
    report(
        f"reference loop {ref_wall:.6g} s wall, {ref_cpu:.6g} s CPU (medians of {len(samples)}); "
        f"time metrics below are scaled to {REFERENCE_S} s"
    )
    wall_scale, cpu_scale = REFERENCE_S / ref_wall, REFERENCE_S / ref_cpu
    per_pass = [pass_metrics(invocations, p) for p in passes]
    series = [("setup_s", "s", wall_scale, [s.setup_s for s in samples], "invocations")]
    series += [
        (name, unit, scale, [m[name] for m in per_pass], "passes")
        for name, unit, scale in (
            ("wall_s", "s", wall_scale),
            ("cpu_s", "s", cpu_scale),
            ("peak_rss_mb", "MB", 1.0),
            ("replicas_per_s", "1/s", 1 / wall_scale),
        )
    ]
    metrics = {}
    for name, unit, scale, values, base in series:
        values = [v for v in values if v is not None]
        if not values:
            report(f"{name:<15} n/a on this workload")
            continue
        q1, med, q3 = (q * scale for q in quartiles(values))
        measured = "" if scale == 1.0 else f"; measured median {med / scale:.6g} {unit}"
        report(
            f"{name:<15} {med:.6g} {unit}  (median of {len(values)} {base}; "
            f"quartiles {q1:.6g}..{q3:.6g}{measured})"
        )
        if name != "replicas_per_s":
            metrics[name] = {"value": med, "unit": unit}
    return metrics


def per_layer(invocations, untraced, traced, report):
    """Per-layer self times (median over traced passes) and counts."""
    per_pass = []
    for samples in traced:
        self_ns, counts, root_ns = {}, {}, 0
        for inv, sample in zip(invocations, samples):
            if sample.trace is None:
                continue
            times, c, roots = sample.trace
            root_ns += roots
            if not per_pass:
                top = sorted(times.items(), key=lambda kv: -kv[1][0])[:3]
                report(
                    f"{inv.name}: {roots / 1e9:.4g} s traced; largest self times "
                    + ", ".join(f"{name} {ns / 1e9:.4g} s" for name, (ns, _) in top)
                )
            for name, (ns, calls) in times.items():
                entry = self_ns.setdefault(name, [0, 0])
                entry[0] += ns
                entry[1] += calls
            for key, value in c.items():
                if key.endswith("_max"):
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        per_pass.append((self_ns, counts, root_ns))

    first_self, first_counts, _ = per_pass[0]
    repeat = all(
        counts == first_counts and {k: v[1] for k, v in s.items()} == {k: v[1] for k, v in first_self.items()}
        for s, counts, _ in per_pass[1:]
    )
    if not repeat:
        report("warning: traced counts differ between passes")

    def median_self(names):
        return statistics.median(sum(s.get(n, [0, 0])[0] for n in names) / 1e9 for s, _, _ in per_pass)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in SELF_TIMED:
        put(f"{name}.self_s", median_self([name]), "s")
    for name in CALL_COUNTED:
        put(f"{name}.calls", first_self.get(name, [0, 0])[1], "count")
    put("moments.load.self_s", median_self(LOAD_FUNCTIONS), "s")
    for key in tracer.COUNT_NAMES:
        unit = "bytes" if key == "cli.artifact_bytes" else "bits" if key.endswith("bits_max") else "count"
        put(key, first_counts.get(key, 0), unit)
    merges = first_counts.get("resampling.apply_S.merges", 0)
    put(
        "resampling.apply_S.collapse_ratio",
        first_counts["resampling.apply_S.terms_out"] / merges if merges else 0.0,
        "ratio",
    )
    untraced_wall = statistics.median(sum(s.wall_s for s in p) for p in untraced)
    traced_wall = statistics.median(sum(s.wall_s for s in p) for p in traced)
    self_total = statistics.median(r / 1e9 for _, _, r in per_pass)
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.self_total_s", self_total, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")

    order = {layer: i for i, layer in enumerate(tracer.LAYERS + ("trace",))}
    metrics = dict(sorted(metrics.items(), key=lambda kv: (order[kv[0].split(".")[0]], kv[0])))
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        report(f"{name:<{width}} {m['value']:.6g} {m['unit']}")
    overhead = traced_wall - untraced_wall
    verdict = "within" if abs(self_total - untraced_wall) <= abs(overhead) else "outside"
    report(
        f"self times add up to {self_total:.4g} s against an untraced wall_s of "
        f"{untraced_wall:.4g} s, {verdict} the tracing overhead of {overhead:.4g} s "
        f"({len(traced)} traced and {len(untraced)} untraced passes)"
    )
    return metrics


# -- entry point ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mobiusboot" / "cli.py").is_file():
        print(f"error: no mobiusboot package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    def report(line):
        print(line, flush=True)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        invocations = workloads.build(args.workload, args.seed, workdir)
        gatekeeper = Gatekeeper(workdir)
        untraced, traced, failures = [], [], []
        timing_start = time.monotonic()
        while True:
            trace = bool(args.trace) and len(traced) < len(untraced)
            samples = run_pass(invocations, workdir, gatekeeper, trace, deadline)
            (traced if trace else untraced).append(samples)
            failures.extend(e for s in samples for e in s.errors)
            done = len(untraced) + len(traced)
            elapsed = time.monotonic() - timing_start
            if time.monotonic() >= deadline:
                break
            if done >= (2 if args.trace else MIN_PASSES) and elapsed * (done + 1) / done > args.seconds:
                break
        passes = untraced + traced
        attempted = sum(len(p) for p in passes)
        failed = sum(1 for p in passes for s in p if s.errors)
        report(
            f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
            f"{len(traced)} traced passes of {len(invocations)} invocations, "
            f"{elapsed:.1f} s timed, {time.monotonic() - started:.1f} s in all"
        )
        for line in dict.fromkeys(failures):
            report(f"FAILED {line}")
        report(f"{'error_rate':<15} {failed / attempted:.6g} ratio  ({failed} of {attempted} invocations)")
        if args.trace:
            metrics = per_layer(invocations, untraced, traced, report)
        else:
            metrics = end_to_end(invocations, untraced, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
