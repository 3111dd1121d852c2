"""One fresh-process Table 1 run, as the table1 workloads time it.

Usage (run from a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/table1_runner.py --mode MODE --out RESULT.json
        [--store DIR] [--trace SPANS.json] [--apps NAME ...]
        [--budget N]

Modes:

* ``setup``: import the package and compile the four applications.
* ``table1``: ``setup``, then the Table 1 rows with no store; after the
  timed window, hal's row is re-derived with ``search="pruned"``.
* ``cold``: the Table 1 rows against the empty store ``--store``; the
  whole run is the ``table1-warm`` workload's set-up.
* ``warm``: the Table 1 rows against the written store ``--store``.

The result file holds the set-up and Table 1 wall times, the rows'
compared fields and the session's cache accounting.  ``--trace``
installs the span recorder before any pipeline call and writes the
spans when the timed window closes.  ``--apps``/``--budget`` shrink
the run for the benchmark's own tests.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from repro.apps.registry import application_names  # noqa: E402
from repro.engine.session import Session  # noqa: E402
from repro.report.experiments import table1_row, table1_rows  # noqa: E402

import tracer as tracing  # noqa: E402  (this script's own directory)


def row_fields(row):
    """The compared fields of one Table 1 row, JSON-ready."""
    return {
        "name": row.name,
        "su": row.su,
        "su_best": row.su_best,
        "su_iterated": row.su_iterated,
        "evaluations": row.evaluations,
        "space": row.space,
        "sampled": row.sampled,
        "allocation": dict(sorted(row.allocation.items())),
        "best_allocation": dict(sorted(row.best_allocation.items())),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "table1", "cold", "warm"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--apps", nargs="*", default=None)
    parser.add_argument("--budget", type=int, default=None)
    args = parser.parse_args(argv)
    names = args.apps or application_names()
    tracer = tracing.install("table1-" + args.mode) if args.trace else None
    result = {"mode": args.mode}

    if args.mode in ("setup", "table1"):
        session = Session()
        for name in names:
            session.program(name)
        setup_end = time.perf_counter()
        result["setup_s"] = setup_end - START
        result["setup_window"] = [START, setup_end]
        if args.mode == "setup":
            return _write(args.out, result)
    else:
        session = None

    window_start = time.perf_counter()
    if session is None:
        session = Session(cache_dir=args.store)
    rows = table1_rows(names=names, session=session,
                       max_evaluations=args.budget)
    window_end = time.perf_counter()
    result["table1_s"] = window_end - window_start
    result["window"] = [window_start, window_end]
    if args.mode == "cold":
        result["setup_s"] = window_end - START
        result["setup_window"] = [START, window_end]
    result["rows"] = [row_fields(row) for row in rows]
    result["stats"] = session.stats.snapshot()
    if tracer is not None:
        tracer.dump(args.trace)

    if args.mode == "table1" and "hal" in names:
        pruned = table1_row("hal", session=session, search="pruned",
                            max_evaluations=args.budget)
        result["hal_pruned"] = row_fields(pruned)
    return _write(args.out, result)


def _write(path, result):
    with open(path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
