"""The ``table1`` and ``table1-warm`` workloads.

Every Table 1 pass runs in a fresh :mod:`table1_runner` process, so
each pass pays the import like a user's ``table1`` command does and
its peak RSS is read from that process alone.
"""

import json
import shutil
from statistics import median

import tracer as tracing
from common import (
    completeness_problems,
    directory_bytes,
    layer_metrics,
    run_python,
    script,
)

REFERENCE = script("reference_table1.json")

#: Set-up samples per ``table1`` run (passes plus set-up-only probes).
SETUP_SAMPLES = 5

#: Cold-store runs per ``table1-warm`` run; each is one set-up sample.
COLD_SETUPS = 2

#: The rows' share of the paper's shape: SU == SU(best) here ...
SHAPE_EQUAL = ("straight", "hal")
#: ... and SU < 0.7 SU(best) here, recovered by the design iteration.
SHAPE_GAP = ("man", "eigen")


def _runner(run, mode, store=None, trace=None):
    """One runner process; (result document or None, peak RSS MB).

    The result gains ``table1_ref_s`` and ``setup_ref_s``: its times at
    the reference host speed.
    """
    out = run.path(mode + ".json")
    args = [script("table1_runner.py"), "--mode", mode, "--out", out]
    if store is not None:
        args += ["--store", store]
    if trace is not None:
        args += ["--trace", trace]
    code, rss = run_python(run.root, args, run.log)
    if code != 0:
        return None, rss
    with open(out) as handle:
        result = json.load(handle)
    if "table1_s" in result:
        result["table1_ref_s"] = run.at_reference(result["table1_s"],
                                                  *result["window"])
    if "setup_s" in result:
        result["setup_ref_s"] = run.at_reference(result["setup_s"],
                                                 *result["setup_window"])
    return result, rss


def _reference_rows():
    with open(REFERENCE) as handle:
        return json.load(handle)["rows"]


def row_problems(rows, reference):
    """How ``rows`` differ from the pinned reference and the paper's
    shape; empty when they are correct."""
    problems = []
    if rows != reference:
        for got, want in zip(rows, reference):
            for field in want:
                if got.get(field) != want[field]:
                    problems.append("%s.%s = %r, reference %r" % (
                        want["name"], field, got.get(field), want[field]))
        if len(rows) != len(reference):
            problems.append("%d rows, reference %d"
                            % (len(rows), len(reference)))
    for row in rows:
        if row["name"] in SHAPE_EQUAL and row["su"] != row["su_best"]:
            problems.append("%s: SU %r != SU(best) %r"
                            % (row["name"], row["su"], row["su_best"]))
        if row["name"] in SHAPE_GAP and not (
                row["su"] < 0.7 * row["su_best"]
                <= row["su_iterated"]):
            problems.append("%s: want SU < 0.7 SU(best) <= SU(iter), got "
                            "%r, %r, %r" % (row["name"], row["su"],
                                            row["su_best"],
                                            row["su_iterated"]))
    return problems


def _pruned_problems(result):
    """brute == pruned: hal's best re-derived by the pruned search."""
    hal = next(row for row in result["rows"] if row["name"] == "hal")
    pruned = result["hal_pruned"]
    return ["hal pruned %s = %r, brute %r" % (field, pruned[field],
                                              hal[field])
            for field in ("su_best", "best_allocation")
            if pruned[field] != hal[field]]


def _evaluations(result):
    return sum(row["evaluations"] for row in result["rows"])


def _end_to_end(setups, passes):
    """The end-to-end metrics of one run from its set-up times and its
    (result, RSS) passes, all times at the reference host speed."""
    times = [result["table1_ref_s"] for result, _ in passes]
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "latency_p50_ms": {"value": 1000.0 * median(times), "unit": "ms"},
        "throughput_per_s": {
            "value": sum(_evaluations(result) for result, _ in passes)
            / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": median([rss for _, rss in passes]),
                        "unit": "MB"},
    }


def _wall_line(passes):
    """The passes' raw wall times, as one report line."""
    return ("table1_s %.3f s wall, median over %d pass(es) (%s s); "
            "%.3f s at reference speed"
            % (median([result["table1_s"] for result, _ in passes]),
               len(passes), ", ".join("%.3f" % result["table1_s"]
                                      for result, _ in passes),
               median([result["table1_ref_s"] for result, _ in passes])))


def _traced_metrics(run, plain, traced, spans, check_coverage,
                    extra=None):
    """Per-layer metrics of a traced pass, checked for completeness."""
    summary = tracing.summarize(tracing.load(spans), traced["window"])
    stats = {stage: tuple(pair) for stage, pair in traced["stats"].items()}
    problems = completeness_problems(summary, stats)
    if summary["search_evaluations"] != _evaluations(traced):
        problems.append("core.search.evaluations = %d but the rows "
                        "report %d" % (summary["search_evaluations"],
                                       _evaluations(traced)))
    coverage = summary["top_level_s"] / traced["table1_s"]
    if check_coverage and coverage < 0.9:
        problems.append("top-level spans cover %.1f%% of table1_s, "
                        "want >= 90%%" % (100.0 * coverage))
    overhead = 100.0 * (traced["table1_ref_s"] - plain["table1_ref_s"]) \
        / plain["table1_ref_s"]
    run.report("traced table1_s %.3f s vs untraced %.3f s (%.3f vs %.3f s "
               "at reference speed): tracing overhead %.1f%%"
               % (traced["table1_s"], plain["table1_s"],
                  traced["table1_ref_s"], plain["table1_ref_s"], overhead))
    values = {"trace.overhead_pct": overhead, "trace.coverage": coverage}
    values.update(extra or {})
    return layer_metrics(summary, stats, values), problems


def run_table1(run):
    """The paper's Table 1, no store, default search, fresh process."""
    reference = _reference_rows()
    if run.trace:
        plain, _ = _runner(run, "table1")
        spans = run.path("spans.json")
        traced, _ = _runner(run, "table1", trace=spans)
        run.attempted += 2 * len(reference)
        if plain is None or traced is None:
            run.failed += len(reference) * ((plain is None)
                                            + (traced is None))
            return
        run.problems += row_problems(plain["rows"], reference)
        run.problems += _pruned_problems(plain)
        run.problems += row_problems(traced["rows"], reference)
        run.metrics, problems = _traced_metrics(
            run, plain, traced, spans, check_coverage=True)
        run.problems += problems
        return

    passes = []
    run.start_clock()
    while True:
        run.attempted += len(reference)
        result, rss = _runner(run, "table1")
        if result is None:
            run.failed += len(reference)
        else:
            passes.append((result, rss))
            run.problems += row_problems(result["rows"], reference)
            run.problems += _pruned_problems(result)
        if run.elapsed():
            break
    if not passes:
        return
    setups = [result["setup_ref_s"] for result, _ in passes]
    for _ in range(SETUP_SAMPLES - len(setups)):
        probe, _ = _runner(run, "setup")
        if probe is not None:
            setups.append(probe["setup_ref_s"])
    run.metrics = _end_to_end(setups, passes)
    run.report(_wall_line(passes))


def run_table1_warm(run):
    """Table 1 in a fresh process against a store a cold run wrote."""
    reference = _reference_rows()
    setups = []
    pristine = None
    for _ in range(1 if run.trace else COLD_SETUPS):
        store = run.path("cold-store")
        run.attempted += len(reference)
        result, _ = _runner(run, "cold", store=store)
        if result is None:
            run.failed += len(reference)
            shutil.rmtree(store, ignore_errors=True)
            continue
        setups.append(result["setup_ref_s"])
        run.problems += row_problems(result["rows"], reference)
        if pristine is None:
            pristine = store
        else:
            shutil.rmtree(store)
    if pristine is None:
        return

    def warm_pass(trace=None):
        # Every pass starts from the same pristine store, so LRU
        # re-stamps of earlier passes cannot drift the numbers.
        store = run.path("warm-store")
        shutil.copytree(pristine, store)
        run.attempted += len(reference)
        result, rss = _runner(run, "warm", store=store, trace=trace)
        size_mb = directory_bytes(store) / 1e6
        shutil.rmtree(store)
        if result is None:
            run.failed += len(reference)
        else:
            # cold == warm: the pinned reference is the cold rows.
            run.problems += row_problems(result["rows"], reference)
        return result, rss, size_mb

    if run.trace:
        plain, _, _ = warm_pass()
        spans = run.path("spans.json")
        traced, _, size_mb = warm_pass(trace=spans)
        if plain is not None and traced is not None:
            run.metrics, problems = _traced_metrics(
                run, plain, traced, spans, check_coverage=False,
                extra={"engine.store.size_mb": size_mb})
            run.problems += problems
        return

    passes = []
    sizes = []
    run.start_clock()
    while True:
        result, rss, size_mb = warm_pass()
        if result is not None:
            passes.append((result, rss))
            sizes.append(size_mb)
        if run.elapsed():
            break
    if not passes:
        return
    run.metrics = _end_to_end(setups, passes)
    run.report(_wall_line(passes))
    run.report("store_mb %.3f MB" % median(sizes))
