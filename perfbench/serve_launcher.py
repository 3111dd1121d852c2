"""Start the exploration service the way ``repro serve`` does.

Usage (run from a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py --stats STATS.json
        [--trace SPANS.json]

Calls :func:`repro.service.server.serve` with one local engine, no
store and an ephemeral loopback port, which it announces on stdout in
the service's usual ``serving on HOST:PORT`` line.  After a shutdown
request it writes the session's cache accounting to ``--stats``.
``--trace`` installs the benchmark's span recorder first and writes the
spans on exit; without it the server runs unmodified, so the traced
and untraced runs share one topology.
"""

import argparse
import json
import sys

from repro.service.server import serve

import tracer as tracing  # this script's own directory


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    tracer = tracing.install("serve") if args.trace else None
    session = serve(port=0, announce=lambda line: print(line, flush=True))
    with open(args.stats, "w") as handle:
        json.dump(session.stats.snapshot(), handle)
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
