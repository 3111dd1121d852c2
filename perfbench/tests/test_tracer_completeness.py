"""The tracer completeness check, on shrunken workloads.

Each traced layer's span count must equal the count the program keeps
for the same event, so a binding site the tracer missed shows up as a
mismatch.  Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import service_mix  # noqa: E402
import tracer  # noqa: E402
from common import (  # noqa: E402
    PER_LAYER_UNITS,
    completeness_problems,
    run_python,
    script,
)
from run import Run  # noqa: E402


@pytest.fixture
def run():
    run = Run(ROOT, seed=7, seconds=1, trace=True)
    yield run
    run.close()


def _traced_table1(run, mode, store=None):
    out = run.path("result.json")
    spans = run.path("spans.json")
    args = [script("table1_runner.py"), "--mode", mode, "--out", out,
            "--trace", spans, "--apps", "hal", "man", "--budget", "150"]
    if store is not None:
        args += ["--store", store]
    code, _ = run_python(ROOT, args, run.log)
    assert code == 0, open(run.log).read()
    with open(out) as handle:
        result = json.load(handle)
    summary = tracer.summarize(tracer.load(spans), result["window"])
    stats = {stage: tuple(pair) for stage, pair in result["stats"].items()}
    return result, summary, stats


def test_traced_table1_matches_program_counters(run):
    result, summary, stats = _traced_table1(run, "table1")
    assert completeness_problems(summary, stats) == []
    assert summary["search_evaluations"] == sum(
        row["evaluations"] for row in result["rows"])
    assert summary["layers"]["apps.compile"]["calls"] == 2
    assert summary["top_level_s"] >= 0.9 * result["table1_s"]


def test_traced_warm_table1_makes_no_pace_calls(run):
    store = run.path("store")
    code, _ = run_python(ROOT, [script("table1_runner.py"), "--mode",
                                "cold", "--out", run.path("cold.json"),
                                "--store", store, "--apps", "hal", "man",
                                "--budget", "150"], run.log)
    assert code == 0, open(run.log).read()
    _, summary, stats = _traced_table1(run, "warm", store=store)
    assert completeness_problems(summary, stats) == []
    assert summary["layers"]["partition.pace"]["calls"] == 0
    assert summary["layers"]["engine.store.hydrate"]["calls"] >= 1
    assert summary["layers"]["engine.store.flush"]["calls"] >= 1


def test_traced_server_matches_program_counters(run):
    from repro.apps.registry import application_spec

    server, _ = service_mix._start(run, trace=True)
    assert server is not None, open(run.log).read()
    areas = {app: application_spec(app).total_area
             for app in service_mix.APPS}
    stream = service_mix.PointStream(run.seed, 0, areas)
    points = stream.job() + stream.job()
    try:
        client = server.client("test")
        results = client.collect(client.submit(points))
    finally:
        code, _, stats = server.stop()
    assert code == 0
    assert all(result is not None and result.ok for result in results)
    summary = tracer.summarize(tracer.load(server.spans_path))
    assert completeness_problems(
        summary, stats,
        evaluate_points=len(service_mix.APPS) + len(points)) == []
    assert stats["eval"][0] == stream.repeats


def test_self_time_subtracts_children():
    spans = [(1, 0, "core.search", 0.0, 10.0, "r", None),
             (2, 1, "partition.evaluate", 1.0, 4.0, "r", None),
             (3, 2, "partition.pace", 2.0, 3.0, "r", None),
             (4, 1, "partition.evaluate", 5.0, 6.0, "r", None),
             (5, 0, "engine.store.flush", 11.0, 12.0, "r", 7)]
    summary = tracer.summarize(spans, window=(0.0, 10.5))
    layers = summary["layers"]
    assert layers["core.search"]["self_s"] == pytest.approx(6.0)
    assert layers["partition.evaluate"]["self_s"] == pytest.approx(3.0)
    assert layers["partition.pace"]["self_s"] == pytest.approx(1.0)
    assert layers["engine.store.flush"]["value"] == 7
    assert summary["search_evaluations"] == 2
    assert summary["top_level_s"] == pytest.approx(10.0)


def test_benchmark_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {metric["name"]: metric["unit"]
                    for metric in json.load(handle)["per_layer"]}
    assert declared == PER_LAYER_UNITS
