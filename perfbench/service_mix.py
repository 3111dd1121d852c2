"""The ``service-mix`` workload: a served engine under two clients.

A ``serve_launcher`` subprocess runs the service with one local engine
and no store.  This process is the load generator: two closed-loop
client threads, each submitting jobs of ``JOB_POINTS`` seeded random
design points and waiting for every result before the next submit.
Each point draws an app, an area between 0.2x and 1.2x of that app's
Table 1 area, a selection policy and a PACE resolution; a seeded share
of points repeats an earlier point of the same client, so the engine's
memo sees a known repeat share.  The program only ever receives the
generated points.
"""

import collections
import json
import random
import re
import subprocess
import threading
import time
from statistics import median

from repro.apps.registry import application_spec
from repro.engine.design_point import DesignPoint
from repro.engine.session import Session
from repro.errors import ReproError
from repro.io.serialize import point_result_to_dict
from repro.service.client import ServiceClient, ServiceError

import tracer as tracing
from common import (
    completeness_problems,
    layer_metrics,
    percentile,
    reap,
    script,
    spawn,
)

APPS = ("straight", "hal", "man", "eigen")
POLICIES = (None, "fastest", "cheapest", "balanced")
QUANTA = (100, 150, 200)
JOB_POINTS = 8
CLIENTS = 2
REPEAT_SHARE = 0.25
#: Jobs per measured window: p95 then has at least ten beyond it.
MIN_JOBS = 200
#: Server starts per untraced run; each is one set-up sample.
SETUPS = 3
#: Per-socket-operation client timeout; a job exceeding it fails.
CLIENT_TIMEOUT_S = 60.0
#: The window closes after this long even short of MIN_JOBS.
MAX_WINDOW_S = 60.0

_ANNOUNCE = re.compile(r"serving on ([^:\s]+):(\d+)")


class PointStream:
    """One client's seeded design points."""

    def __init__(self, seed, client, areas):
        self._rng = random.Random("%s/%d" % (seed, client))
        self._areas = areas
        self.history = []
        self.drawn = 0
        self.repeats = 0

    def job(self):
        return [self._next() for _ in range(JOB_POINTS)]

    def _next(self):
        rng = self._rng
        self.drawn += 1
        if self.history and rng.random() < REPEAT_SHARE:
            self.repeats += 1
            return rng.choice(self.history)
        app = rng.choice(APPS)
        point = DesignPoint(app=app,
                            area=self._areas[app] * rng.uniform(0.2, 1.2),
                            policy=rng.choice(POLICIES),
                            quanta=rng.choice(QUANTA))
        self.history.append(point)
        return point


class Server:
    """A launched service process and its address."""

    def __init__(self, run, trace):
        self.stats_path = run.path("server-stats.json")
        self.spans_path = run.path("server-spans.json") if trace else None
        args = [script("serve_launcher.py"), "--stats", self.stats_path]
        if trace:
            args += ["--trace", self.spans_path]
        self.process = spawn(run.root, args, run.log,
                             stdout=subprocess.PIPE)
        # A server that never announces is killed, so readline returns.
        guard = threading.Timer(60.0, self.process.kill)
        guard.start()
        try:
            line = self.process.stdout.readline().decode()
        finally:
            guard.cancel()
        match = _ANNOUNCE.search(line)
        self.port = int(match.group(2)) if match else None

    def client(self, name):
        return ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S,
                             client_id=name)

    def stop(self):
        """Shut the server down; (exit code, peak RSS MB, stats)."""
        if self.port is not None:
            try:
                self.client("stopper").shutdown()
            except (ServiceError, OSError):
                self.process.kill()
        code, rss = reap(self.process, timeout=60.0)
        self.process.stdout.close()
        stats = None
        if code == 0:
            with open(self.stats_path) as handle:
                stats = {stage: tuple(pair)
                         for stage, pair in json.load(handle).items()}
        return code, rss, stats


def _start(run, trace):
    """Start a server, ping it and run a warm-up job of one Table 1
    point per app; (server or None, set-up seconds at the reference
    host speed)."""
    started = time.perf_counter()
    server = Server(run, trace)
    ready = False
    if server.port is not None:
        try:
            client = server.client("warm-up")
            client.ping()
            results = client.collect(client.submit(
                [DesignPoint(app=app) for app in APPS]))
            ready = all(result is not None and result.error is None
                        for result in results)
        except (ServiceError, OSError):
            pass
    if not ready:
        server.stop()
        return None, 0.0
    ended = time.perf_counter()
    return server, run.at_reference(ended - started, started, ended)


class Window:
    """One closed-loop measurement window against a running server."""

    def __init__(self, server, seed, areas):
        self.server = server
        self.streams = [PointStream(seed, number, areas)
                        for number in range(CLIENTS)]
        self.jobs = []           # (latency, submit, first result, end)
        self.results = []        # (point, PointResult) pairs
        self.failed_points = 0
        self.rejections = 0
        self._lock = threading.Lock()

    def measure(self, seconds):
        self.start = time.perf_counter()
        self._deadline = self.start + seconds
        threads = [threading.Thread(target=self._client, args=(number,))
                   for number in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.end = max([end for _, _, _, end in self.jobs] or [self.start])

    def _more(self):
        now = time.perf_counter()
        if now - self.start >= MAX_WINDOW_S:
            return False
        with self._lock:
            return now < self._deadline or len(self.jobs) < MIN_JOBS

    def _client(self, number):
        client = self.server.client("load-%d" % number)
        stream = self.streams[number]
        while self._more():
            points = stream.job()
            started = time.perf_counter()
            first = None
            slots = [None] * len(points)
            try:
                job = client.submit(points)
                submitted = time.perf_counter()
                for index, result in client.results(job):
                    if first is None:
                        first = time.perf_counter()
                    slots[index] = result
            except (ReproError, OSError):
                # Refused, timed out or dropped: the job's points fail.
                with self._lock:
                    self.failed_points += len(points)
                    self.rejections += client.last_submit_rejections
                continue
            end = time.perf_counter()
            errors = sum(1 for result in slots
                         if result is None or result.error is not None)
            with self._lock:
                self.rejections += client.last_submit_rejections
                self.failed_points += errors
                self.jobs.append((end - started, submitted - started,
                                  first - started, end))
                self.results += [(point, result) for point, result
                                 in zip(points, slots)
                                 if result is not None]

    @property
    def points(self):
        return sum(stream.drawn for stream in self.streams)

    def latencies_ms(self):
        return [1000.0 * latency for latency, _, _, _ in self.jobs]

    def describe(self):
        """The run's generated mix, as one report line."""
        drawn = [point for stream in self.streams
                 for point in stream.history]
        apps = collections.Counter(point.app for point in drawn)
        policies = collections.Counter(point.policy or "none"
                                       for point in drawn)
        repeats = sum(stream.repeats for stream in self.streams)
        return ("mix: %d points in %d jobs; distinct points by app %s; "
                "by policy %s; repeat share %.4f (%d/%d)"
                % (self.points, len(self.jobs), dict(sorted(apps.items())),
                   dict(sorted(policies.items())),
                   repeats / self.points, repeats, self.points))


def _reference_problems(windows):
    """serial == service: every streamed result equals an in-process
    ``Session.evaluate_point`` on the same point."""
    session = Session()
    expected = {}
    problems = []
    for window in windows:
        for point, result in window.results:
            if point not in expected:
                expected[point] = point_result_to_dict(
                    session.evaluate_point(point))
            if point_result_to_dict(result) != expected[point]:
                problems.append("service result for %r differs from the "
                                "in-process evaluation" % (point,))
    return problems


def _serve_window(run, areas, trace=False, starts=1):
    """Start a server ``starts`` times, measure one window against the
    last one, stop it; (window, set-up seconds, server outcome), with
    window None when no server came up."""
    setups = []
    for number in range(starts):
        server, setup_s = _start(run, trace)
        if server is None:
            return None, setups, None
        setups.append(setup_s)
        if number + 1 < starts:
            server.stop()
    window = Window(server, run.seed, areas)
    try:
        window.measure(run.seconds)
    finally:
        stopped = server.stop()
    run.attempted += window.points
    run.failed += window.failed_points
    return window, setups, stopped


def run_service_mix(run):
    """Two closed-loop clients against a served engine, no store."""
    areas = {app: application_spec(app).total_area for app in APPS}
    if not run.trace:
        window, setups, stopped = _serve_window(run, areas, starts=SETUPS)
        if window is None:
            run.failed += 1
            run.attempted += 1
            return
        code, rss, _ = stopped
        if code != 0:
            run.problems.append("server exited with code %r" % (code,))
        latencies = window.latencies_ms()
        points_per_s = len(window.results) / (window.end - window.start)
        factor = run.speed.factor(window.start, window.end)
        run.metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "latency_p50_ms": {"value": median(latencies) * factor,
                               "unit": "ms"},
            "throughput_per_s": {"value": points_per_s / factor,
                                 "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        run.report(window.describe())
        run.report("job_p50_ms %.3f ms, job_p95_ms %.3f ms (%d jobs); "
                   "points_per_s %.3f; rejections %d (wall clock; host "
                   "speed factor %.4f)"
                   % (median(latencies), percentile(latencies, 0.95),
                      len(latencies), points_per_s, window.rejections,
                      factor))
        run.problems += _reference_problems([window])
        return

    plain, _, _ = _serve_window(run, areas)
    traced, _, stopped = _serve_window(run, areas, trace=True)
    if plain is None or traced is None:
        run.failed += 1
        run.attempted += 1
        return
    code, _, stats = stopped
    if code != 0:
        run.problems.append("traced server exited with code %r" % (code,))
        return
    # perf_counter is the system-wide monotonic clock, so the server's
    # span stamps and this process's window share one time axis.
    summary = tracing.summarize(tracing.load(traced.server.spans_path),
                                (traced.start, traced.end))
    evaluated = len(APPS) + len(traced.results)
    run.problems += completeness_problems(summary, stats,
                                          evaluate_points=evaluated)
    plain_p50 = median(plain.latencies_ms()) \
        * run.speed.factor(plain.start, plain.end)
    traced_p50 = median(traced.latencies_ms()) \
        * run.speed.factor(traced.start, traced.end)
    overhead = 100.0 * (traced_p50 - plain_p50) / plain_p50
    run.report(traced.describe())
    run.report("traced job_p50_ms %.3f ms vs untraced %.3f ms at reference "
               "speed: tracing overhead %.1f%%"
               % (traced_p50, plain_p50, overhead))
    run.metrics = layer_metrics(summary, stats, {
        "service.submit_ms": median([1000.0 * submit for _, submit, _, _
                                     in traced.jobs]),
        "service.first_result_ms": median([1000.0 * first
                                           for _, _, first, _
                                           in traced.jobs]),
        "service.rejections": traced.rejections,
        "trace.overhead_pct": overhead,
        "trace.coverage": summary["top_level_s"]
        / (traced.end - traced.start),
    })
    run.problems += _reference_problems([plain, traced])
