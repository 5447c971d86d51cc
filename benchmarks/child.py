"""Run one mobiusboot CLI invocation in a fresh interpreter and report on it.

Usage: python3 benchmarks/child.py REPORT TRACE CLI-ARGS...

REPORT receives a JSON object with the CLOCK_MONOTONIC time at which
``mobiusboot.cli`` finished importing and the CPU time spent up to that
point; the exit code is the process's own.  With TRACE = 1 the layer tracer is
installed before ``main`` runs and its spans go to REPORT.trace.  The package
is found through PYTHONPATH, which the benchmark points at the checkout's src.
"""

import json
import os
import sys
import time


def run(report, trace, argv):
    from mobiusboot import cli

    imported_ns = time.monotonic_ns()
    times = os.times()
    setup_cpu_s = times.user + times.system
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(f"{report}.trace")
        with open(report, "w") as fh:
            json.dump({"imported_ns": imported_ns, "setup_cpu_s": setup_cpu_s}, fh)
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] not in ("0", "1"):
        sys.exit("usage: child.py REPORT TRACE(0|1) CLI-ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
