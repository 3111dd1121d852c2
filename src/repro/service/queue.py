"""Job bookkeeping and scheduling for the exploration service.

A :class:`Job` is one submitted batch of design points; the
:class:`JobQueue` owns every job, the admission control that keeps the
queue bounded, and the pluggable :data:`SCHEDULERS` policy deciding
which ``(job, index)`` unit a freed worker runs next:

* ``fifo`` — submission order, jobs interleaved as submitted (the
  PR 3 behaviour and still the default).
* ``sjf`` — smallest job first: among jobs with queued units, drain
  the one with the fewest total points, so interactive one-point
  probes never wait out a 4096-point batch's tail.
* ``fair`` — weighted round-robin over *clients*: each client's jobs
  are FIFO among themselves, but the scheduler rotates between
  clients (``weight`` units per turn), so one client's saturating
  batch cannot starve another's.

Scheduling only changes *when* a point runs, never what it computes —
every policy yields results bit-identical to a serial evaluation, and
per-job completion-order streaming is untouched.

Admission control: ``max_pending`` caps the points admitted but not
yet terminal across all jobs.  A submission that would exceed the cap
raises :class:`QueueFullError` carrying a ``retry_after`` hint, which
the server forwards as a structured rejection and the
:class:`~repro.service.client.ServiceClient` honours with capped
backoff.  On top of the global cap, a submission may carry a
per-client ``quota`` (the HTTP gateway's API-key in-flight-point
budget): the queue tracks in-flight points *per client label*, and a
submission that would push its client past the quota is rejected with
the same structured :class:`QueueFullError` — so one key's polling
fleet cannot crowd out the rest even under the global cap.

Job GC: ``job_ttl`` expires finished jobs (results and all) that age
past the TTL, and ``max_finished`` bounds how many finished jobs are
retained at once (oldest-finished evicted first), so a week-long
service holds bounded memory.  Expired job ids are remembered (in a
bounded ring) so a late ``status``/``results`` poll gets "expired"
rather than "unknown".

All state mutation happens on the event loop (the scheduler records
results via coroutines); the per-job :class:`asyncio.Condition` exists
for the *streaming* readers, which must block until new completions
arrive.  Completion order is recorded per job, so a results stream
replays finished points first and then follows live, order-independent
of submission.
"""

import asyncio
import collections
import functools
import heapq
import itertools
import time

from repro.errors import ReproError

#: Per-point lifecycle.
PENDING = "pending"
RUNNING = "running"
DONE = "done"          # completed, possibly with PointResult.error set
CANCELLED = "cancelled"

#: Job lifecycle (derived from the points plus the cancel flag).
QUEUED = "queued"
ACTIVE = "running"
FINISHED = "done"
STOPPED = "cancelled"

#: How many expired job ids to remember for friendly "expired" (rather
#: than "unknown") rejections of late polls.
EXPIRED_MEMORY = 1024


class QueueFullError(ReproError):
    """Admission rejected: the pending-point cap would be exceeded.

    Carries the server's ``retry_after`` hint (seconds) so the
    rejection can travel as a structured, client-honourable error.
    """

    def __init__(self, message, retry_after):
        super().__init__(message)
        self.retry_after = retry_after


class UnknownJobError(ReproError):
    """A job id the queue does not hold (never held, or expired)."""


class JobExpiredError(UnknownJobError):
    """A job id the queue held until completed-job GC expired it."""


class Job:
    """One submitted batch and everything known about its progress."""

    def __init__(self, job_id, points, client="", weight=1,
                 objective="speedup"):
        self.id = job_id
        self.points = list(points)
        self.states = [PENDING] * len(self.points)
        self.results = {}          # index -> PointResult (DONE points)
        self.order = []            # indices in completion order
        self.cancelled = False
        self.stats = {}            # stage -> [hits, misses] of this job
        self.condition = asyncio.Condition()
        self.client = client or ""
        self.weight = max(1, int(weight))
        self.objective = objective or "speedup"
        self.finished_at = None    # monotonic stamp of the terminal edge
        self._on_terminal = None   # JobQueue depth accounting hook

    @property
    def finished(self):
        """True once every point reached a terminal state."""
        return all(state in (DONE, CANCELLED) for state in self.states)

    @property
    def state(self):
        if self.cancelled:
            return STOPPED
        if self.finished:
            return FINISHED
        if any(state != PENDING for state in self.states):
            return ACTIVE
        return QUEUED

    def merge_stats(self, delta):
        """Fold one point's per-stage (hits, misses) delta into the job."""
        for stage, (hits, misses) in delta.items():
            entry = self.stats.setdefault(stage, [0, 0])
            entry[0] += hits
            entry[1] += misses

    def status(self):
        """The JSON-able status document of this job."""
        counts = {PENDING: 0, RUNNING: 0, DONE: 0, CANCELLED: 0}
        for state in self.states:
            counts[state] += 1
        errors = sum(1 for result in self.results.values()
                     if result.error is not None)
        hits = sum(entry[0] for entry in self.stats.values())
        misses = sum(entry[1] for entry in self.stats.values())
        lookups = hits + misses
        return {
            "job": self.id,
            "state": self.state,
            "total": len(self.points),
            "pending": counts[PENDING],
            "running": counts[RUNNING],
            "done": counts[DONE],
            "cancelled": counts[CANCELLED],
            "errors": errors,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "objective": self.objective,
        }

    def _note_terminal(self, count):
        """Depth accounting + the finished stamp, on the terminal edge."""
        if self._on_terminal is not None and count:
            self._on_terminal(count)
        if self.finished and self.finished_at is None:
            self.finished_at = time.monotonic()

    async def record(self, index, result, stats_delta=None):
        """Mark one point DONE and wake the streaming readers."""
        async with self.condition:
            if self.states[index] in (DONE, CANCELLED):
                return  # lost a cancel race; terminal edge counted
            self.states[index] = DONE
            self.results[index] = result
            self.order.append(index)
            if stats_delta:
                self.merge_stats(stats_delta)
            self._note_terminal(1)
            self.condition.notify_all()

    async def reset_to_pending(self, index):
        """Return one RUNNING point to PENDING; True when it moved.

        The engine-death path of the distributed fabric: a point leased
        to an engine that died will never complete there, so it goes
        back to PENDING for the roster to re-place — no terminal edge
        is crossed, so the queue's depth accounting is untouched.  A
        point that is not RUNNING (its result arrived in the race, or a
        cancel already terminated it) is left alone.
        """
        async with self.condition:
            if self.states[index] != RUNNING:
                return False
            self.states[index] = PENDING
            return True

    async def mark_cancelled(self, indices):
        """Mark still-pending points CANCELLED; wake the readers.

        The state is re-checked under the condition: a point the
        scheduler started between the caller's snapshot and this lock
        acquisition stays RUNNING (its result will arrive normally) —
        marking it here would double-terminate it and corrupt the
        queue's depth accounting.  Returns the count actually marked.
        """
        async with self.condition:
            marked = 0
            for index in indices:
                if self.states[index] != PENDING:
                    continue
                self.states[index] = CANCELLED
                self.order.append(index)
                marked += 1
            self._note_terminal(marked)
            self.condition.notify_all()
        return marked


# ----------------------------------------------------------------------
# Scheduling policies
# ----------------------------------------------------------------------
class FifoScheduler:
    """Submission order: all of job 1's units, then all of job 2's."""

    name = "fifo"

    def __init__(self):
        self._units = collections.deque()

    def add(self, job):
        self._units.extend((job, index)
                           for index in range(len(job.points)))

    def pick(self):
        return self._units.popleft() if self._units else None


class SmallestJobFirstScheduler:
    """Drain the smallest queued job first (ties: submission order).

    "Small" is the job's *total* point count, fixed at submission —
    a deliberate choice over remaining-count, which would let a large
    batch creep ahead of a fresh small job as it drains.
    """

    name = "sjf"

    def __init__(self):
        self._heap = []
        self._order = itertools.count()

    def add(self, job):
        heapq.heappush(
            self._heap,
            (len(job.points), next(self._order), job,
             collections.deque(range(len(job.points)))))

    def pick(self):
        while self._heap:
            _, _, job, indices = self._heap[0]
            if not indices:
                heapq.heappop(self._heap)
                continue
            return job, indices.popleft()
        return None


class _ClientLane:
    __slots__ = ("jobs", "weight", "served")

    def __init__(self, weight):
        self.jobs = collections.deque()   # (job, deque of indices)
        self.weight = max(1, weight)
        self.served = 0


class FairScheduler:
    """Weighted round-robin over clients; FIFO within each client.

    Each turn serves up to ``weight`` consecutive units of the ring's
    head client, then rotates — so a client's huge batch and another
    client's one-point probe alternate instead of queueing.  A job's
    ``weight`` updates its client's weight; an idle client leaves the
    ring and re-enters at the tail on its next submission.
    """

    name = "fair"

    def __init__(self):
        self._lanes = {}                  # client -> _ClientLane
        self._ring = collections.deque()  # clients in rotation order

    def add(self, job):
        lane = self._lanes.get(job.client)
        if lane is None:
            lane = self._lanes[job.client] = _ClientLane(job.weight)
            self._ring.append(job.client)
        lane.weight = max(1, job.weight)
        lane.jobs.append((job, collections.deque(
            range(len(job.points)))))

    def pick(self):
        while self._ring:
            client = self._ring[0]
            lane = self._lanes[client]
            while lane.jobs and not lane.jobs[0][1]:
                lane.jobs.popleft()
            if not lane.jobs:
                self._ring.popleft()
                del self._lanes[client]
                continue
            job, indices = lane.jobs[0]
            unit = (job, indices.popleft())
            lane.served += 1
            if lane.served >= lane.weight:
                lane.served = 0
                self._ring.rotate(-1)
            return unit
        return None


#: Scheduler name -> class; the ``--scheduler`` choices.
SCHEDULERS = {
    FifoScheduler.name: FifoScheduler,
    SmallestJobFirstScheduler.name: SmallestJobFirstScheduler,
    FairScheduler.name: FairScheduler,
}


def scheduler_class(name):
    """The policy class a scheduler name names; loud when unknown."""
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ReproError(
            "unknown scheduler %r (expected one of %s)"
            % (name, ", ".join(sorted(SCHEDULERS)))) from None


class JobQueue:
    """Every job of one service instance plus the shared work pool.

    The worker-facing side is a counting queue of *tokens* (one per
    admitted unit) plus the scheduler policy: workers block on the
    token queue, and each token entitles exactly one ``pick()`` — so
    admission stays a synchronous call while the policy decides order.
    """

    def __init__(self, scheduler="fifo", max_pending=None,
                 retry_after=0.25, job_ttl=None, max_finished=None):
        self.scheduler = scheduler_class(scheduler)()
        self.max_pending = max_pending
        self.retry_after = float(retry_after)
        self.job_ttl = job_ttl
        self.max_finished = max_finished
        self.jobs = {}
        self.depth = 0             # admitted, not-yet-terminal points
        self.client_depth = {}     # client label -> in-flight points
        self._counter = itertools.count(1)
        self._tokens = asyncio.Queue()
        self._expired = collections.OrderedDict()

    def submit(self, points, client="", weight=1,
               objective="speedup", quota=None):
        """Queue a batch; returns the new :class:`Job`.

        :class:`QueueFullError` when admitting the batch would push the
        in-flight point count past ``max_pending``, or this client's
        in-flight count past its ``quota`` — nothing is queued in
        either case, so a rejected client retries from a clean slate.
        A batch larger than the cap (or the quota) itself can never be
        admitted, so it is rejected *without* a retry hint (plain
        :class:`ReproError`) — retrying it would only burn the
        client's backoff budget.
        """
        if self.max_pending is not None:
            if len(points) > self.max_pending:
                raise ReproError(
                    "submission of %d points exceeds the %d-point "
                    "queue cap; it can never be admitted — split the "
                    "batch" % (len(points), self.max_pending))
            if self.depth + len(points) > self.max_pending:
                raise QueueFullError(
                    "queue full: %d point(s) in flight plus %d "
                    "submitted would exceed the %d-point cap"
                    % (self.depth, len(points), self.max_pending),
                    self.retry_after)
        if quota is not None:
            if len(points) > quota:
                raise ReproError(
                    "submission of %d points exceeds client %r's "
                    "%d-point quota; it can never be admitted — split "
                    "the batch" % (len(points), client, quota))
            in_flight = self.client_depth.get(client, 0)
            if in_flight + len(points) > quota:
                raise QueueFullError(
                    "quota exceeded: client %r has %d point(s) in "
                    "flight plus %d submitted would exceed its "
                    "%d-point quota" % (client, in_flight,
                                        len(points), quota),
                    self.retry_after)
        job = Job("job-%d" % next(self._counter), points,
                  client=client, weight=weight, objective=objective)
        job._on_terminal = functools.partial(self._points_terminal,
                                             job)
        self.depth += len(job.points)
        self.client_depth[job.client] = \
            self.client_depth.get(job.client, 0) + len(job.points)
        self.jobs[job.id] = job
        self.scheduler.add(job)
        for _ in range(len(job.points)):
            self._tokens.put_nowait(None)
        return job

    def _points_terminal(self, job, count):
        self.depth -= count
        remaining = self.client_depth.get(job.client, 0) - count
        if remaining > 0:
            self.client_depth[job.client] = remaining
        else:
            self.client_depth.pop(job.client, None)

    def get(self, job_id):
        """The named job; :class:`UnknownJobError` when unknown, its
        :class:`JobExpiredError` subclass when GC expired it."""
        job = self.jobs.get(job_id)
        if job is None:
            if job_id in self._expired:
                raise JobExpiredError(
                    "job %r has expired (completed-job GC)" % (job_id,))
            raise UnknownJobError("unknown job %r" % (job_id,))
        return job

    def status(self, job, now=None):
        """``job.status()`` plus this queue's retention outlook."""
        document = job.status()
        if self.job_ttl is not None and job.finished_at is not None:
            now = time.monotonic() if now is None else now
            document["expires_in"] = max(
                0.0, self.job_ttl - (now - job.finished_at))
        else:
            document["expires_in"] = None
        return document

    async def next_unit(self):
        """Block until a work unit is available; ``(job, index)``."""
        await self._tokens.get()
        return self.scheduler.pick()

    async def cancel(self, job_id):
        """Cancel a job's not-yet-started points; returns the count.

        Points already running finish normally (their results stay
        available); pending points flip to CANCELLED here and are
        skipped when the scheduler eventually dequeues them.
        """
        job = self.get(job_id)
        job.cancelled = True
        pending = [index for index, state in enumerate(job.states)
                   if state == PENDING]
        return await job.mark_cancelled(pending)

    def collect_garbage(self, now=None):
        """Expire finished jobs past the TTL / retention bound.

        Called by the service at the entry of every client operation
        and whenever a job finishes; returns the number of jobs
        dropped.  Running and queued jobs are never touched.
        """
        now = time.monotonic() if now is None else now
        victims = []
        if self.job_ttl is not None:
            victims.extend(
                job for job in self.jobs.values()
                if job.finished_at is not None
                and now - job.finished_at > self.job_ttl)
        if self.max_finished is not None:
            finished = sorted(
                (job for job in self.jobs.values()
                 if job.finished_at is not None),
                key=lambda job: job.finished_at)
            overflow = len(finished) - self.max_finished
            if overflow > 0:
                victims.extend(finished[:overflow])
        removed = 0
        for job in victims:
            if self.jobs.pop(job.id, None) is not None:
                self._expired[job.id] = True
                removed += 1
        while len(self._expired) > EXPIRED_MEMORY:
            self._expired.popitem(last=False)
        return removed
