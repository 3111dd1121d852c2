"""Blocking client for the exploration service.

One TCP connection per request (the server is connection-agnostic and
the requests are tiny), which is what makes many concurrent clients
trivial — there is no session state to multiplex.  ``results`` keeps
its connection open and yields completions as the server streams them.

The client speaks :mod:`~repro.service.protocol` documents and hands
back engine objects: ``submit`` accepts
:class:`~repro.engine.design_point.DesignPoint` instances (or app-name
strings, or already-serialised dicts) and ``results`` yields
``(index, PointResult)`` pairs — a failed point comes back with
``result.error`` set, never as an exception.

Hardening (ISSUE 4): a ``token`` is presented in an auth handshake on
every connection; a backpressure rejection (the server's structured
``retry_after``) is retried with capped exponential backoff inside a
``retry_budget``; and a connection the *server* drops mid-request — an
unauthenticated link, an oversized line — surfaces as a typed
:class:`ServiceError` carrying the server's last structured error
message instead of an opaque ``ConnectionResetError``.

The retry/backoff contract lives in :class:`RetryingClientMixin` so
the HTTP client (:class:`~repro.service.http_client.HttpServiceClient`)
shares the *same* helper — accounting, jitter envelope and budget math
are defined once, here, for both transports.
"""

import itertools
import json
import os
import random
import socket
import time

from repro.engine.design_point import DesignPoint
from repro.errors import ReproError
from repro.io.serialize import (
    design_point_to_dict,
    point_result_from_dict,
)
from repro.service import protocol
from repro.service.server import DEFAULT_HOST, DEFAULT_PORT

_CLIENT_IDS = itertools.count(1)


class ServiceError(ReproError):
    """The server rejected a request or the conversation broke down.

    ``response`` holds the server's structured error document when one
    was read; :attr:`retry_after` is the backpressure hint (seconds)
    of a queue-full rejection, ``None`` for every other failure.
    """

    def __init__(self, message, response=None):
        super().__init__(message)
        self.response = response if isinstance(response, dict) else None

    @property
    def retry_after(self):
        if self.response is None:
            return None
        value = self.response.get("retry_after")
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            return None
        return float(value)


def backoff_wait(hint, attempt, cap, jitter, rng):
    """One backoff sleep: capped exponential, then jittered.

    ``wait = min(cap, max(0.01, hint) * 2 ** attempt)`` is the capped
    exponential step; jitter only ever *shortens* it, so ``cap`` and
    any deadline math keep their meaning.  Exact envelope: the sleep is
    ``wait * (1 - jitter * rng.random())`` with ``rng.random()``
    uniform on ``[0, 1)``, so the sleep is uniform on
    ``((1 - jitter) * wait, wait]`` — the *top* endpoint is attainable
    (a draw of exactly 0.0 sleeps the full ``wait``), the bottom
    endpoint ``(1 - jitter) * wait`` never is in real arithmetic
    (float rounding at the maximal draw can touch it, nothing can
    cross it).  ``jitter <= 0`` returns ``wait`` exactly (the old
    deterministic schedule).

    This is the one backoff helper of both service clients
    (:class:`ServiceClient` and the HTTP client); fix it here, not in
    a copy.
    """
    wait = min(cap, max(0.01, hint) * (2 ** attempt))
    if jitter <= 0.0:
        return wait
    return wait * (1.0 - jitter * rng.random())


class RetryingClientMixin:
    """The client contract the TCP and HTTP clients share.

    A transport mixes this in, calls :meth:`_init_retry` from its
    constructor, and funnels its submit through
    :meth:`_submit_with_retries` with a zero-argument ``send`` that
    performs one submission attempt and raises :class:`ServiceError`
    on rejection.  Backpressure rejections (``retry_after`` set) are
    retried with capped exponential jittered backoff until the budget
    deadline; every rejection absorbed along the way — *including* the
    final one a budget-exhausted submit gives up on — is counted in
    :attr:`last_submit_rejections`.

    The result side is shared too: a transport's ``results`` decodes
    each wire entry with :meth:`_decode_entry`, and :meth:`collect`
    is built on the transport's ``status`` and ``results``.
    """

    def _init_retry(self, retry_budget, retry_cap, retry_jitter,
                    retry_seed):
        self.retry_budget = float(retry_budget)
        self.retry_cap = float(retry_cap)
        if not 0.0 <= float(retry_jitter) <= 1.0:
            raise ReproError("retry_jitter must be in [0, 1], got %r"
                             % (retry_jitter,))
        self.retry_jitter = float(retry_jitter)
        self._retry_rng = random.Random(retry_seed)
        self.last_submit_rejections = 0

    def _backoff_wait(self, hint, attempt):
        """This client's :func:`backoff_wait` (see its envelope)."""
        return backoff_wait(hint, attempt, self.retry_cap,
                            self.retry_jitter, self._retry_rng)

    def _submit_with_retries(self, send):
        """Run ``send()`` under the shared backoff/accounting contract.

        :attr:`last_submit_rejections` counts every backpressure
        rejection this submit absorbed — the retried ones *and* the
        final one re-raised when the next wait would overrun the
        budget deadline, so the counter never under-reports the
        server's pushback.
        """
        self.last_submit_rejections = 0
        deadline = time.monotonic() + max(0.0, self.retry_budget)
        attempt = 0
        while True:
            try:
                return send()
            except ServiceError as exc:
                hint = exc.retry_after
                if hint is None:
                    raise  # not a backpressure rejection
                self.last_submit_rejections += 1
                wait = self._backoff_wait(hint, attempt)
                if time.monotonic() + wait > deadline:
                    raise
                attempt += 1
                time.sleep(wait)

    @staticmethod
    def _decode_entry(entry, library=None):
        """One ``{"index", "result" | "cancelled"}`` wire entry as
        ``(index, PointResult)``, or ``(index, None)`` when cancelled."""
        if entry.get("cancelled"):
            return entry["index"], None
        return entry["index"], point_result_from_dict(entry["result"],
                                                      library=library)

    def collect(self, job_id, library=None):
        """Block until terminal; results in submission order.

        Returns a list with one slot per submitted point:
        :class:`PointResult` (``error`` possibly set) or ``None`` for a
        cancelled point.
        """
        status = self.status(job_id)
        slots = [None] * status["total"]
        for index, result in self.results(job_id, library=library):
            slots[index] = result
        return slots


class ServiceClient(RetryingClientMixin):
    """Client for one service address.

    Attributes:
        host / port: The service address.
        timeout: Per-socket-operation timeout in seconds.  ``results``
            streams block up to this long *between lines*, so pick it
            larger than the slowest single point you expect.
        token: Shared auth token; presented in a handshake on every
            connection (a token against an open server is harmless).
        client_id: The scheduling identity submissions carry — the
            ``fair`` scheduler round-robins between these.  Defaults
            to a per-instance label, so two clients in one process are
            two lanes.
        retry_budget: Total seconds :meth:`submit` may spend retrying
            queue-full rejections before giving up (0 disables).
        retry_cap: Upper bound on one backoff sleep.
        retry_jitter: Fraction of each backoff sleep randomised away,
            in [0, 1].  Clients rejected by the same queue-full event
            share the same hint and the same attempt count — without
            jitter they all sleep the *same* capped-exponential wait
            and stampede the server in lockstep, forever.  Each sleep
            is drawn uniformly from ``((1 - jitter) * wait, wait]``
            (top endpoint attainable, bottom excluded — see
            :func:`backoff_wait` for the exact envelope), so the cap
            still bounds it and jitter 0 restores the exact old
            schedule.
        retry_seed: Seed of the jitter's private ``random.Random`` —
            deterministic backoff schedules for tests; ``None`` (the
            default) seeds from the OS like any other Random.
    """

    def __init__(self, host=DEFAULT_HOST, port=DEFAULT_PORT,
                 timeout=120.0, token=None, client_id=None,
                 retry_budget=60.0, retry_cap=2.0, retry_jitter=0.5,
                 retry_seed=None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.token = token
        self.client_id = client_id if client_id is not None else \
            "client-%d-%d" % (os.getpid(), next(_CLIENT_IDS))
        self._init_retry(retry_budget, retry_cap, retry_jitter,
                         retry_seed)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self):
        return socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)

    def _handshake(self, stream):
        """Present the token (when any) before the first request."""
        if self.token is None:
            return
        self._send(stream, {"op": "auth", "token": self.token})
        self._read_line(stream)  # raises ServiceError on rejection

    def _send(self, stream, message):
        try:
            stream.write(protocol.encode(message))
            stream.flush()
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise self._dropped(stream, exc) from exc

    @staticmethod
    def _dropped(stream, exc):
        """A typed error for a connection the server tore down mid-
        request.  The server usually managed to send one structured
        error line (authentication required, oversized line) before
        closing; surface that message when it can still be read."""
        response = None
        try:
            line = stream.readline(protocol.MAX_LINE_BYTES + 1)
            data = json.loads(line.decode("utf-8"))
            if isinstance(data, dict) and data.get("error"):
                response = data
        except Exception:
            pass  # the teardown outran the error line; generic report
        if response is not None:
            return ServiceError("server dropped the connection: %s"
                                % response["error"], response=response)
        return ServiceError("server dropped the connection (%s: %s)"
                            % (type(exc).__name__, exc))

    @staticmethod
    def _read_line(stream):
        try:
            line = stream.readline(protocol.MAX_LINE_BYTES + 1)
        except (ConnectionResetError, BrokenPipeError,
                socket.timeout) as exc:
            raise ServiceError("connection lost while waiting for a "
                               "response (%s: %s)"
                               % (type(exc).__name__, exc)) from exc
        if not line:
            raise ServiceError("connection closed by the server")
        if len(line) > protocol.MAX_LINE_BYTES:
            raise ServiceError("response line exceeds %d bytes"
                               % protocol.MAX_LINE_BYTES)
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("unreadable response: %r"
                               % line[:80]) from None
        if not isinstance(message, dict):
            raise ServiceError("response must be a JSON object")
        if not message.get("ok", False):
            raise ServiceError(message.get("error", "request rejected"),
                               response=message)
        return message

    def _request(self, message):
        """Send one request, return its single response line."""
        with self._connect() as sock:
            with sock.makefile("rwb") as stream:
                self._handshake(stream)
                self._send(stream, message)
                return self._read_line(stream)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self):
        """Server liveness + protocol/worker/queue info."""
        return self._request({"op": "ping"})

    def submit(self, points, weight=1, objective=None):
        """Submit a batch; returns the job id.

        A queue-full rejection (the server's ``retry_after`` hint) is
        retried with capped exponential backoff until ``retry_budget``
        runs out; :attr:`last_submit_rejections` counts *every*
        rejection the final successful (or failed) submit absorbed,
        including the one a budget-exhausted submit gives up on.
        ``weight`` is the fair-scheduler share of this client's lane.
        ``objective`` names the optimisation objective the job's
        results are ranked by on the client side; it travels with the
        job (visible in ``status``) but leaves per-point evaluation
        untouched.
        """
        documents = [self._coerce_point(point) for point in points]
        request = {"op": "submit", "points": documents}
        if self.client_id:
            request["client"] = self.client_id
        if weight != 1:
            request["weight"] = weight
        if objective is not None:
            request["objective"] = objective
        return self._submit_with_retries(
            lambda: self._request(request)["job"])

    def status(self, job_id):
        """The job's status document."""
        return self._request({"op": "status", "job": job_id})["status"]

    def cancel(self, job_id):
        """Cancel the job's pending points; returns the final status."""
        response = self._request({"op": "cancel", "job": job_id})
        return response["status"]

    def jobs(self):
        """Status documents of every job the server knows."""
        return self._request({"op": "jobs"})["jobs"]

    def shutdown(self):
        """Ask the server to stop (it flushes its store first)."""
        return self._request({"op": "shutdown"})

    def results(self, job_id, library=None):
        """Yield ``(index, PointResult)`` as points complete.

        Completion-ordered, not submission-ordered; a cancelled point
        yields ``(index, None)``.  The generator ends when the job
        reaches a terminal state; the closing status document is
        available afterwards as :attr:`last_status`.

        A caller that abandons the stream mid-job (a ``break`` after
        the first result, an explicit ``close()`` on the generator)
        tears the connection down *eagerly* in the ``finally`` below —
        ``GeneratorExit`` lands there like any other exit — instead of
        leaving the socket to whenever the garbage collector finalises
        the generator.  The server tolerates the early disconnect: its
        handler treats a reset mid-stream as the client going away,
        never as an error.
        """
        self.last_status = None
        sock = self._connect()
        try:
            stream = sock.makefile("rwb")
            try:
                self._handshake(stream)
                self._send(stream, {"op": "results", "job": job_id})
                header = self._read_line(stream)
                if not header.get("streaming"):
                    raise ServiceError("expected a results stream, got "
                                       "%r" % (header,))
                while True:
                    message = self._read_line(stream)
                    if message.get("done"):
                        self.last_status = message.get("status")
                        return
                    yield self._decode_entry(message, library)
            finally:
                try:
                    stream.close()
                except OSError:
                    pass  # flushing a dead link; the socket closes next
        finally:
            sock.close()

    @staticmethod
    def _coerce_point(point):
        if isinstance(point, DesignPoint):
            return design_point_to_dict(point)
        if isinstance(point, str):
            return design_point_to_dict(DesignPoint(app=point))
        if isinstance(point, dict):
            return point
        raise ServiceError("submit() expects DesignPoint instances, "
                           "app names or design-point dicts, got %r"
                           % (point,))
