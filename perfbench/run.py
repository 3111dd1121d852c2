"""The allocation pipeline's benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {table1,table1-warm,service-mix}
        --seed N --seconds S --trace {0,1}

The program runs from the checkout's ``src`` (pure Python; the only
build step is byte-compiling it).  Untraced (``--trace 0``) the run measures the end-to-end
metrics of ``BENCHMARK.json``; traced (``--trace 1``) it measures the
per-layer metrics, plus the tracing overhead against an untraced pass
made in the same run.  Every output is checked for correctness on the
way.  Human-readable lines go to stdout first; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only for a correct run; a checkout without the
program's sources exits 2 without printing a result.

Every time metric is reported at the reference host speed of
``hostspeed.py``; the raw wall times are printed beside it.  Scratch
files live under ``.bench_build/perfbench`` in the checkout and
are removed when the run ends.  See ``perfbench/README.md`` for the
workloads, the metrics and the correctness oracles.
"""

import argparse
import compileall
import itertools
import json
import os
import shutil
import sys
import tempfile
import time

from hostspeed import HostSpeed

WORKLOADS = ("table1", "table1-warm", "service-mix")


class Run:
    """One benchmark invocation: its settings, scratch space and result."""

    def __init__(self, root, seed, seconds, trace):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        scratch = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=scratch)
        self.log = os.path.join(self.work, "children.log")
        self.speed = HostSpeed(os.path.join(self.work, "host-speed.txt"))
        self._names = itertools.count(1)
        self._clock = time.perf_counter()
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def path(self, name):
        """A fresh scratch path (nothing exists there yet)."""
        return os.path.join(self.work, "%03d-%s" % (next(self._names), name))

    def start_clock(self):
        """Start the measured window of ``seconds``."""
        self._clock = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self._clock >= self.seconds

    def at_reference(self, seconds, start, end):
        """``seconds`` measured over [start, end], at reference speed."""
        return seconds * self.speed.factor(start, end)

    def report(self, line):
        self.lines.append(line)

    def close(self):
        self.speed.close()
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program sources at %s; run from the root "
              "of a checkout" % src, file=sys.stderr)
        return 2
    # The build step of a pure-Python program: byte-compile once, so
    # the first run's set-up does not pay what every later one skips.
    compileall.compile_dir(src, quiet=1)
    sys.path.insert(0, src)
    if args.workload == "service-mix":
        from service_mix import run_service_mix as workload
    elif args.workload == "table1":
        from table1_workloads import run_table1 as workload
    else:
        from table1_workloads import run_table1_warm as workload

    run = Run(root, args.seed, args.seconds, bool(args.trace))
    try:
        workload(run)
    finally:
        run.close()
    correct = not run.problems and bool(run.metrics)
    for line in run.lines:
        print("%s: %s" % (args.workload, line))
    for problem in run.problems:
        print("%s: WRONG: %s" % (args.workload, problem))
    if not run.metrics:
        print("%s: no measurement completed" % args.workload)
    for name, metric in run.metrics.items():
        print("%s: %-34s %s %s" % (args.workload, name, metric["value"],
                                   metric["unit"]))
    print("%s: error_rate %s ratio (%d failed / %d attempted)"
          % (args.workload,
             run.failed / run.attempted if run.attempted else 0.0,
             run.failed, run.attempted))
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": run.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
