"""Helpers the workloads share: child processes, statistics, metrics."""

import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cache stages whose hit rates the traced run reports.
HIT_RATE_STAGES = ("eval", "partition", "table", "cost", "alloc")

#: Layers reported with both their span count and their self time.
COUNTED_LAYERS = ("apps.compile", "core.allocate", "core.select",
                  "partition.evaluate", "partition.bsb_costs",
                  "partition.pace", "sched.list_schedule")

#: Per-layer metric -> unit, in the order the traced run prints them.
PER_LAYER_UNITS = {}
for _layer in COUNTED_LAYERS:
    PER_LAYER_UNITS[_layer + ".calls"] = "count"
    PER_LAYER_UNITS[_layer + ".self_s"] = "s"
PER_LAYER_UNITS.update({
    "core.search.evaluations": "count",
    "core.search.self_s": "s",
    "core.iterate.self_s": "s",
})
for _stage in HIT_RATE_STAGES:
    PER_LAYER_UNITS["engine.cache.hit_rate." + _stage] = "ratio"
    PER_LAYER_UNITS["engine.cache.hits." + _stage] = "count"
    PER_LAYER_UNITS["engine.cache.lookups." + _stage] = "count"
PER_LAYER_UNITS.update({
    "engine.store.hydrate_s": "s",
    "engine.store.flush_s": "s",
    "engine.store.flush_entries": "count",
    "engine.store.size_mb": "MB",
    "service.submit_ms": "ms",
    "service.first_result_ms": "ms",
    "service.rejections": "count",
    "service.evaluate_point.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
})


def script(name):
    return os.path.join(HERE, name)


def spawn(root, args, log_path, **popen_args):
    """Start ``python3 <args>`` with the checkout's ``src`` importable,
    its stderr appended to ``log_path``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    with open(log_path, "ab") as log:
        return subprocess.Popen([sys.executable] + list(args), cwd=root,
                                env=env, stderr=log, **popen_args)


def reap(process, timeout=None):
    """Wait for ``process``; returns (exit code, peak RSS in MB).

    ``os.wait4`` reports the child's own resource usage, so the peak
    RSS is the program's, never the harness's.  A child still running
    after ``timeout`` seconds is killed (its exit code is then < 0).
    """
    timer = None
    if timeout is not None:
        timer = threading.Timer(timeout, process.kill)
        timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        if timer is not None:
            timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss * 1024 / 1e6


def run_python(root, args, log_path, timeout=170.0):
    """Run ``python3 <args>`` to completion; (exit code, peak RSS MB)."""
    return reap(spawn(root, args, log_path, stdout=subprocess.DEVNULL),
                timeout)


def percentile(values, share):
    """The ``share`` quantile (0..1) of ``values``, nearest-rank: with
    200 values, the 95th percentile has ten values beyond it."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1,
                       int(round(share * len(ordered) + 0.5)) - 1))
    return ordered[index]


def directory_bytes(path):
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def layer_metrics(summary, stats, extra=None):
    """Every per-layer metric, zero where the layer did no work.

    ``summary`` is :func:`tracer.summarize` output, ``stats`` a
    ``CacheStats.snapshot()`` (stage -> (hits, misses)).
    """
    layers = summary["layers"]
    values = {}
    for layer in COUNTED_LAYERS:
        values[layer + ".calls"] = layers[layer]["calls"]
        values[layer + ".self_s"] = layers[layer]["self_s"]
    values["core.search.evaluations"] = summary["search_evaluations"]
    values["core.search.self_s"] = layers["core.search"]["self_s"]
    values["core.iterate.self_s"] = layers["core.iterate"]["self_s"]
    for stage in HIT_RATE_STAGES:
        hits, misses = stats.get(stage, (0, 0))
        lookups = hits + misses
        values["engine.cache.hit_rate." + stage] = \
            hits / lookups if lookups else 0.0
        values["engine.cache.hits." + stage] = hits
        values["engine.cache.lookups." + stage] = lookups
    values["engine.store.hydrate_s"] = \
        layers["engine.store.hydrate"]["total_s"]
    values["engine.store.flush_s"] = layers["engine.store.flush"]["total_s"]
    values["engine.store.flush_entries"] = \
        layers["engine.store.flush"]["value"]
    values["service.evaluate_point.self_s"] = \
        layers["service.evaluate_point"]["self_s"]
    for name in ("engine.store.size_mb", "service.submit_ms",
                 "service.first_result_ms", "service.rejections",
                 "trace.overhead_pct", "trace.coverage"):
        values[name] = 0
    values.update(extra or {})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def completeness_problems(summary, stats, evaluate_points=None):
    """Span counts that disagree with the program's own counters.

    Each traced layer's span count must equal the count the program
    keeps for the same event; a mismatch means a binding site escaped
    the tracer.  ``evaluate_points`` is the number of design points
    the service evaluated, when the spans come from a server.
    """
    layers = summary["layers"]

    def hits(stage):
        return stats.get(stage, (0, 0))[0]

    def misses(stage):
        return stats.get(stage, (0, 0))[1]

    checks = [
        ("apps.compile.calls", layers["apps.compile"]["calls"],
         "compile misses", misses("compile")),
        ("partition.evaluate.calls", layers["partition.evaluate"]["calls"],
         "eval hits + misses", hits("eval") + misses("eval")),
        ("partition.bsb_costs.calls",
         layers["partition.bsb_costs"]["calls"],
         "eval misses", misses("eval")),
        ("partition.pace.calls", layers["partition.pace"]["calls"],
         "partition misses", misses("partition")),
        ("core.allocate.calls + core.select.calls",
         layers["core.allocate"]["calls"] + layers["core.select"]["calls"],
         "alloc misses", misses("alloc")),
    ]
    if evaluate_points is not None:
        checks.append(("service.evaluate_point.calls",
                       layers["service.evaluate_point"]["calls"],
                       "points evaluated", evaluate_points))
    return ["%s = %d but %s = %d" % (name, got, base_name, base)
            for name, got, base_name, base in checks if got != base]
