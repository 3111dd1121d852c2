"""Distributed-fabric tier: N-engine parity under fault injection.

The acceptance bar (ISSUE 7): a coordinator with N joined engines
returns job results bit-identical to the single-engine service — same
allocations, same speed-ups, same completion accounting — no matter
how the roster splits the points, and no matter which engines die
mid-lease or which delta frames the wire eats.  Every test drives real
sockets: real :class:`~repro.service.worker.EngineWorker` instances
(on threads — the worker is synchronous by design) joined to a real
coordinator harness, plus hand-rolled protocol conversations where a
fault must be injected deterministically.
"""

import json
import socket
import threading
import time

import pytest

from repro.engine import DesignPoint
from repro.service import protocol
from repro.service.server import ExplorationService
from repro.service.worker import EngineWorker

from tests.service.test_service import (
    GRID_A,
    POISON,
    assert_matches_serial,
    serial_results,
)

#: Two apps -> two affinity keys, so a two-engine roster genuinely
#: splits the work instead of routing everything to one engine.
FABRIC_GRID = (DesignPoint(app="straight", area=3000.0, quanta=80),
               DesignPoint(app="hal", area=20000.0, quanta=80),
               DesignPoint(app="straight", area=5000.0, quanta=80),
               DesignPoint(app="hal", area=30000.0, quanta=80),
               DesignPoint(app="straight", area=7500.0, quanta=80))


class WorkerThread:
    """One EngineWorker on a daemon thread, joined to a harness."""

    def __init__(self, harness, label, slots=1, cache_dir=None):
        self.worker = EngineWorker("127.0.0.1", harness.port,
                                   token=harness.token, label=label,
                                   slots=slots, cache_dir=cache_dir,
                                   announce=None)
        self.thread = threading.Thread(target=self.worker.run,
                                       daemon=True)
        self.thread.start()

    def join(self, timeout=30):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "worker never wound down"


def wait_for_engines(client, count, kind=None, timeout=10.0):
    """Poll ping until ``count`` live engines (of ``kind``) exist."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        engines = [engine for engine in client.ping()["engines"]
                   if engine["alive"]
                   and (kind is None or engine["kind"] == kind)]
        if len(engines) >= count:
            return engines
        time.sleep(0.05)
    raise AssertionError("engines never joined")


def wait_for_engine_death(harness, engine_id, within):
    """Poll ping until the roster shows ``engine_id`` dead; returns the
    monotonic time it was seen dead, failing after ``within`` s."""
    client = harness.client()
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        roster = {engine["engine"]: engine
                  for engine in client.ping()["engines"]}
        if roster[engine_id]["alive"] is False:
            return time.monotonic()
        time.sleep(0.02)
    raise AssertionError("engine %r still alive after %.1f s"
                         % (engine_id, within))


class RawWorker:
    """A hand-driven protocol conversation for fault injection."""

    def __init__(self, harness, label, slots=2):
        self.harness = harness
        self.sock = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=30)
        self.stream = self.sock.makefile("rwb")
        if harness.token is not None:
            assert self.request({"op": "auth",
                                 "token": harness.token})["ok"]
        joined = self.request({"op": "join", "engine": label,
                               "slots": slots})
        assert joined["ok"]
        self.engine = joined["engine"]

    def request(self, message):
        self.stream.write(protocol.encode(message))
        self.stream.flush()
        return json.loads(
            self.stream.readline(protocol.MAX_LINE_BYTES + 1))

    def lease(self, max_units=2, wait=5.0):
        return self.request({"op": "lease", "engine": self.engine,
                             "max": max_units, "wait": wait})

    def vanish(self):
        """Die without a word — the mid-lease crash.

        The stream holds its own reference to the socket's fd, so both
        must close for the coordinator to read EOF.  A joined engine
        must then be failed by that disconnect path, well inside the
        heartbeat reaper's ``engine_timeout``.
        """
        self.stream.close()
        self.sock.close()
        engine = getattr(self, "engine", None)
        if engine is not None:
            wait_for_engine_death(
                self.harness, engine,
                within=self.harness.service.engine_timeout / 10.0)


class TestRemoteParity:
    def test_pure_coordinator_with_two_workers(self, make_harness):
        harness = make_harness(local_engines=0)
        workers = [WorkerThread(harness, "wa"),
                   WorkerThread(harness, "wb")]
        client = harness.client()
        engines = wait_for_engines(client, 2, kind="remote")
        assert {engine["engine"] for engine in engines} == \
            {"wa", "wb"}
        results = client.collect(client.submit(FABRIC_GRID))
        assert all(result.ok for result in results)
        assert_matches_serial(results, FABRIC_GRID)
        # The points really ran remotely: a pure coordinator has no
        # local engine, and the workers' counters account for all of
        # them.
        engines = client.ping()["engines"]
        assert all(engine["kind"] == "remote" for engine in engines)
        assert sum(engine["done"] for engine in engines) == \
            len(FABRIC_GRID)
        assert sum(engine["deltas_absorbed"]
                   for engine in engines) >= 1
        harness.stop()
        for worker in workers:
            worker.join()

    def test_mixed_local_and_remote_engines(self, make_harness):
        harness = make_harness(local_engines=1)
        worker = WorkerThread(harness, "helper")
        client = harness.client()
        wait_for_engines(client, 1, kind="remote")
        results = client.collect(client.submit(FABRIC_GRID))
        assert_matches_serial(results, FABRIC_GRID)
        kinds = {engine["kind"]
                 for engine in client.ping()["engines"]}
        assert kinds == {"local", "remote"}
        harness.stop()
        worker.join()

    def test_multiple_local_engines(self, make_harness):
        harness = make_harness(local_engines=3, workers=3)
        client = harness.client()
        engines = client.ping()["engines"]
        assert [engine["engine"] for engine in engines] == \
            ["local-1", "local-2", "local-3"]
        results = client.collect(client.submit(FABRIC_GRID))
        assert_matches_serial(results, FABRIC_GRID)
        assert sum(engine["done"] for engine
                   in client.ping()["engines"]) == len(FABRIC_GRID)

    def test_remote_poison_point_fails_per_point(self, make_harness):
        harness = make_harness(local_engines=0)
        worker = WorkerThread(harness, "w")
        client = harness.client()
        wait_for_engines(client, 1, kind="remote")
        grid = (GRID_A[0], POISON, GRID_A[1])
        results = client.collect(client.submit(grid))
        assert results[1].error is not None
        assert results[0].ok and results[2].ok
        assert_matches_serial(results, grid)
        harness.stop()
        worker.join()


class TestAffinity:
    def test_second_submission_is_affinity_warm(self, make_harness):
        # A long steal delay makes placement purely affine, so the
        # engine split is deterministic: every point of one program
        # lands on the engine that compiled it, and the second
        # submission replays from that engine's warm cache.
        harness = make_harness(local_engines=0, steal_delay=30.0)
        workers = [WorkerThread(harness, "wa"),
                   WorkerThread(harness, "wb")]
        client = harness.client()
        wait_for_engines(client, 2, kind="remote")
        client.collect(client.submit(FABRIC_GRID))
        first = {engine["engine"]: engine["done"]
                 for engine in client.ping()["engines"]}
        warm_job = client.submit(FABRIC_GRID)
        client.collect(warm_job)
        second = {engine["engine"]: engine["done"]
                  for engine in client.ping()["engines"]}
        # Affinity: each engine's share of the rerun equals its share
        # of the first run — points re-route to the engine that
        # already holds their program.
        assert {name: count * 2 for name, count in first.items()} == \
            second
        # And that placement is what makes the rerun warm remotely.
        assert client.status(warm_job)["hit_rate"] > 0.8
        harness.stop()
        for worker in workers:
            worker.join()


class TestFaultInjection:
    def test_worker_death_mid_lease_requeues(self, make_harness):
        harness = make_harness(local_engines=0, engine_timeout=30.0)
        client = harness.client()
        job = client.submit(FABRIC_GRID)  # queued; no engines yet
        doomed = RawWorker(harness, "doomed", slots=2)
        leased = doomed.lease(max_units=2, wait=10.0)["points"]
        assert len(leased) == 2  # really held mid-lease
        doomed.vanish()
        # The survivor joins after the crash and must still see every
        # point — the dead engine's leases and lane re-queue onto it.
        survivor = WorkerThread(harness, "survivor")
        results = client.collect(job)
        assert all(result.ok for result in results)
        assert_matches_serial(results, FABRIC_GRID)
        roster = {engine["engine"]: engine
                  for engine in client.ping()["engines"]}
        assert roster["doomed"]["alive"] is False
        assert roster["doomed"]["in_flight"] == 0
        assert roster["survivor"]["done"] == len(FABRIC_GRID)
        harness.stop()
        survivor.join()

    def test_silent_worker_is_reaped_after_engine_timeout(
            self, make_harness):
        # The other way an engine dies: its link stays open but it
        # goes quiet (a hung process, a partitioned host).  No EOF
        # ever arrives, so only the heartbeat reaper can fail it, and
        # only after ``engine_timeout`` of silence.  steal_delay=0
        # lets the silent worker's first lease take a unit wherever
        # the points were placed.
        harness = make_harness(local_engines=1, steal_delay=0.0,
                               engine_timeout=0.5)
        client = harness.client()
        silent = RawWorker(harness, "silent", slots=2)
        job = client.submit(FABRIC_GRID)
        last_word = time.monotonic()
        leased = silent.lease(max_units=2, wait=10.0)["points"]
        assert leased  # really held mid-lease
        # The link is still open, so no EOF path could have fired.
        reaped_at = wait_for_engine_death(harness, "silent", within=10.0)
        assert reaped_at - last_word >= 0.5
        # Its leases re-queued onto the local engine.
        results = client.collect(job)
        assert_matches_serial(results, FABRIC_GRID)
        roster = {engine["engine"]: engine
                  for engine in client.ping()["engines"]}
        assert roster["silent"]["in_flight"] == 0
        assert roster["silent"]["done"] == 0
        assert roster["local-1"]["done"] == len(FABRIC_GRID)
        silent.vanish()

    def test_delta_frame_drop_recovers(self, make_harness):
        # The wire eating a delta frame and the connection dying are
        # the same event (frames ride one ordered TCP stream), so the
        # injection point is the coordinator's delta handler: the
        # first frame "never arrives" and the link breaks, exactly as
        # a mid-send worker crash looks from the coordinator.
        class DropFirstDelta(ExplorationService):
            dropped = 0

            async def _handle_delta(self, request, writer, conn):
                if not type(self).dropped:
                    type(self).dropped += 1
                    raise ConnectionResetError("injected frame drop")
                await super()._handle_delta(request, writer, conn)

        # steal_delay=0 guarantees the casualty gets a unit no matter
        # where rendezvous hashing lands the two programs: the local
        # pump holds one point in flight while another waits on its
        # lane, and an instantly-ripe lane unit is stolen by the idle
        # worker on its first lease.  (Affinity alone is hash luck —
        # any library change reshuffles the program fingerprints.)
        DropFirstDelta.dropped = 0
        harness = make_harness(service_class=DropFirstDelta,
                               local_engines=1, steal_delay=0.0)
        client = harness.client()
        job = client.submit(FABRIC_GRID)
        casualty = WorkerThread(harness, "casualty")
        results = client.collect(job)
        assert DropFirstDelta.dropped == 1  # the injection fired
        assert all(result.ok for result in results)
        assert_matches_serial(results, FABRIC_GRID)
        casualty.join()
        harness.stop()

    def test_coordinator_restart_with_warm_store(self, tmp_path,
                                                 make_harness):
        # Remote deltas must actually reach the coordinator's disk:
        # run everything on remote engines, restart the coordinator on
        # the same store with no remote help, and the rerun replays
        # warm — compiled programs included.
        shared = str(tmp_path / "fabric-store")
        first = make_harness(cache_dir=shared, local_engines=0)
        worker = WorkerThread(first, "w")
        client = first.client()
        wait_for_engines(client, 1, kind="remote")
        cold = client.collect(client.submit(FABRIC_GRID))
        first.stop()
        worker.join()
        second = make_harness(cache_dir=shared, local_engines=1)
        client = second.client()
        warm_job = client.submit(FABRIC_GRID)
        warm = client.collect(warm_job)
        assert [r.speedup for r in warm] == \
            [r.speedup for r in cold]
        assert client.status(warm_job)["hit_rate"] > 0.8
        # The frontend compiles happened on the worker and travelled
        # home as program-store entries; the restarted coordinator
        # re-compiles nothing.
        assert client.ping()["program_compiles"] == 0

    def test_malformed_delta_cannot_corrupt_job_state(self,
                                                      make_harness):
        harness = make_harness(local_engines=0)
        client = harness.client()
        job = client.submit(GRID_A)
        rogue = RawWorker(harness, "rogue", slots=1)
        leased = rogue.lease(max_units=1, wait=10.0)["points"]
        assert leased
        unit = leased[0]
        # A result for a unit nobody leased to this engine: counted
        # as stale, never recorded.
        from repro.io.serialize import FORMAT_VERSION

        fake = {"kind": "point-result", "version": FORMAT_VERSION,
                "point": unit["point"], "allocation": None,
                "speedup": 9999.0, "datapath_area": 1.0,
                "hw_bsbs": [], "error": None}
        response = rogue.request({
            "op": "delta", "engine": rogue.engine,
            "results": [{"job": unit["job"], "index": 999,
                         "result": fake, "stats": {}}]})
        assert response["ok"]
        assert response["recorded"] == 0 and response["stale"] == 1
        # An undecodable store blob rejects the whole frame — the
        # leased unit's (valid) result inside it is NOT recorded.
        response = rogue.request({
            "op": "delta", "engine": rogue.engine,
            "results": [{"job": unit["job"],
                         "index": unit["index"],
                         "result": fake, "stats": {}}],
            "store": "!!not-base64!!"})
        assert not response["ok"]
        assert client.status(job)["done"] == 0
        # The rogue disconnects; its lease re-queues and an honest
        # worker completes the job bit-identical to serial.
        rogue.vanish()
        honest = WorkerThread(harness, "honest")
        results = client.collect(job)
        assert_matches_serial(results, GRID_A)
        harness.stop()
        honest.join()


class TestRosterObservability:
    def test_single_engine_ping_is_backward_compatible(self, harness):
        info = harness.client().ping()
        # Every pre-fabric field survives with its old meaning...
        for field in ("protocol", "workers", "jobs", "scheduler",
                      "depth", "queue_cap", "program_compiles",
                      "program_store_hits"):
            assert field in info
        # ...and the roster rides alongside: one default local engine.
        assert info["local_engines"] == 1
        (engine,) = info["engines"]
        assert engine["engine"] == "local-1"
        assert engine["kind"] == "local"
        assert engine["alive"] is True
        for field in ("slots", "queued", "in_flight", "done",
                      "stolen", "hits", "misses", "hit_rate",
                      "deltas_absorbed", "delta_entries"):
            assert field in engine

    def test_roster_accounts_per_engine_hit_rates(self, harness):
        client = harness.client()
        client.collect(client.submit(GRID_A))
        (cold,) = client.ping()["engines"]
        client.collect(client.submit(GRID_A))
        (warm,) = client.ping()["engines"]
        assert warm["done"] == 2 * len(GRID_A)
        # The counters are cumulative, so the warm rerun (nearly all
        # hits) pulls the engine's lifetime rate up over the cold run.
        assert warm["hits"] > cold["hits"]
        assert warm["hit_rate"] > cold["hit_rate"]

    def test_heartbeat_requires_a_joined_engine(self, harness):
        raw = RawWorker.__new__(RawWorker)
        raw.sock = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=10)
        raw.stream = raw.sock.makefile("rwb")
        response = raw.request({"op": "engine-heartbeat",
                                "engine": "nobody"})
        assert not response["ok"]
        assert "join" in response["error"]
        raw.vanish()


class TestClientJitter:
    def test_fixed_seed_is_deterministic(self):
        from repro.service.client import ServiceClient

        one = ServiceClient(retry_seed=7)
        two = ServiceClient(retry_seed=7)
        waits = [one._backoff_wait(0.1, attempt)
                 for attempt in range(8)]
        assert waits == [two._backoff_wait(0.1, attempt)
                         for attempt in range(8)]
        # Jitter only shortens: each wait stays within the capped
        # exponential envelope that bounds the retry-budget math.
        for attempt, wait in enumerate(waits):
            ceiling = min(2.0, 0.1 * (2 ** attempt))
            assert 0.5 * ceiling < wait <= ceiling
        # And it actually spreads: not every draw is the ceiling.
        assert any(wait < min(2.0, 0.1 * (2 ** attempt))
                   for attempt, wait in enumerate(waits))

    def test_zero_jitter_restores_the_exact_old_schedule(self):
        from repro.service.client import ServiceClient

        client = ServiceClient(retry_jitter=0.0)
        assert [client._backoff_wait(0.25, attempt)
                for attempt in range(5)] == \
            [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_jitter_out_of_range_rejected(self):
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        with pytest.raises(ReproError, match="retry_jitter"):
            ServiceClient(retry_jitter=1.5)
