"""HTTP/REST gateway over the exploration service (ISSUE 9).

The raw line-JSON TCP protocol is the fabric's spine: one persistent
connection per worker, streams, leases.  Wide fan-in — hundreds of
polling clients, dashboards, curl — wants the opposite shape: small
stateless requests with real HTTP caching semantics.  This module
mounts exactly that over the *same* client operations the TCP frontend
dispatches to (:meth:`~repro.service.server.ExplorationService.ping`,
``submit``, ``job``/``status``, ``cancel``, ``jobs`` and
``result_entries``), with no new dependencies (stdlib ``http.server``,
threaded).  The gateway owns only what is HTTP's own: routing, API-key
auth, ETags and 304s, and its ``transport``/``http_requests``/
``http_not_modified`` ping fields.

    POST   /v1/jobs              submit a batch of design points
    GET    /v1/jobs/{id}         job status document
    GET    /v1/jobs/{id}/results full results document, or a long-poll
                                 page with ``?after=N&wait=S``
    GET    /v1/jobs/{id}/report  self-contained HTML report of the job
    GET    /v1/dashboard         live HTML roster/queue dashboard
    DELETE /v1/jobs/{id}         cancel the job's pending points
    GET    /v1/ping              service liveness + roster info

Auth: an API-keys file (see :func:`load_api_keys`) maps each key to a
client identity, a fair-scheduler weight and an in-flight-point quota.
Requests present the key as ``Authorization: Bearer <key>`` (or
``X-Api-Key``); the client identity feeds the existing ``fair``
scheduler's ``client``/``weight`` metadata, and the quota is enforced
by the queue's per-client depth accounting — a breach is a 429 with
``Retry-After``, the same structured backpressure the TCP client
honours.  A gateway without keys is open (loopback development), like
a token-less TCP server; binding beyond loopback requires keys.

Conditional caching: every status and results document carries a
*strong* ETag derived from the job's content-addressed stage keys (the
program fingerprints its points route by, plus the full point
coordinates) and its progress, so ``If-None-Match`` polling pays tiny
304s instead of re-downloading result bodies.  A terminal job's
documents are immutable by construction — the pipeline is
content-addressed, so the same job can never produce different bytes —
and are served with long-lived ``Cache-Control: immutable`` headers.
The one clock-driven field, the GC countdown ``expires_in``, is kept
*out* of the cached body and travels as an ``X-Expires-In`` header
instead (refreshed on 304s, as HTTP intends), so ETags stay honest.

Threading: handler threads never touch queue or job state directly —
every read and mutation is marshalled onto the service's event loop
with ``run_coroutine_threadsafe``, so the single-writer discipline of
the coordinator survives the second frontend unchanged.
"""

import asyncio
import hashlib
import hmac
import json
import math
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError
from repro.io.serialize import design_point_to_dict
from repro.service import protocol
from repro.service.queue import (
    JobExpiredError,
    QueueFullError,
    UnknownJobError,
)

#: Cap on one results long-poll (seconds); clients page in a loop, so
#: a longer wait buys nothing but teardown latency (the TCP lease cap).
MAX_POLL_WAIT = 30.0

#: Ceiling on one request body; submissions stay far below this (the
#: TCP line cap, for the same reason).
MAX_BODY_BYTES = protocol.MAX_LINE_BYTES

#: Cache-Control for terminal (immutable) and live documents.
CACHE_IMMUTABLE = "max-age=31536000, immutable"
CACHE_REVALIDATE = "no-cache"

#: The HTML documents' content type (reports, dashboard).
HTML_CONTENT_TYPE = "text/html; charset=utf-8"

#: Seconds between the serving thread's shutdown checks; ``stop``
#: waits up to this long (the stdlib default is 0.5 s).
SHUTDOWN_POLL = 0.05


class ApiKey:
    """One API key's identity: client label, weight, in-flight quota."""

    __slots__ = ("key", "client", "weight", "quota")

    def __init__(self, key, client, weight=1, quota=None):
        if not isinstance(key, str) or not key:
            raise ReproError("API key must be a non-empty string")
        if not isinstance(client, str) or not client \
                or len(client) > protocol.MAX_CLIENT_CHARS:
            raise ReproError(
                "API key %r... needs a client label of at most %d "
                "characters" % (key[:8], protocol.MAX_CLIENT_CHARS))
        if isinstance(weight, bool) or not isinstance(weight, int) \
                or not 1 <= weight <= protocol.MAX_WEIGHT:
            raise ReproError("client %r: weight must be an integer in "
                             "[1, %d]" % (client, protocol.MAX_WEIGHT))
        if quota is not None and (
                isinstance(quota, bool) or not isinstance(quota, int)
                or quota < 1):
            raise ReproError("client %r: quota must be a positive "
                             "integer or null" % client)
        self.key = key
        self.client = client
        self.weight = weight
        self.quota = quota


def load_api_keys(path):
    """Parse an API-keys file into ``{key: ApiKey}``.

    The file is one JSON object mapping each key string to either a
    bare client label (weight 1, no quota) or an object::

        {
          "k-alice-1": "alice",
          "k-dash-7":  {"client": "dashboard", "weight": 3, "quota": 64}
        }

    Malformed files are loud: a gateway silently open (or silently
    missing a quota) is worse than one that refuses to start.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ReproError("cannot read API keys file: %s" % exc) from None
    except ValueError as exc:
        raise ReproError("API keys file %s is not valid JSON: %s"
                         % (path, exc)) from None
    if not isinstance(data, dict) or not data:
        raise ReproError("API keys file %s must be a non-empty JSON "
                         "object mapping keys to clients" % path)
    keys = {}
    for key, value in data.items():
        if isinstance(value, str):
            keys[key] = ApiKey(key, value)
        elif isinstance(value, dict):
            extra = set(value) - {"client", "weight", "quota"}
            if extra:
                raise ReproError(
                    "API keys file %s: unknown field(s) %s for key "
                    "%r..." % (path, ", ".join(sorted(extra)),
                               key[:8]))
            keys[key] = ApiKey(key, value.get("client", ""),
                               weight=value.get("weight", 1),
                               quota=value.get("quota"))
        else:
            raise ReproError(
                "API keys file %s: key %r... must map to a client "
                "label or an object" % (path, key[:8]))
    return keys


def canonical_json(document):
    """The canonical bytes of one document (sorted keys, compact).

    Both the response bodies and the ETag hashes are computed from
    this one encoding, so an ETag is strong by construction: it
    changes exactly when the served bytes change.
    """
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class _HttpError(Exception):
    """One HTTP-level rejection: status code + JSON error document."""

    def __init__(self, status, message, **fields):
        super().__init__(message)
        self.status = status
        self.document = {"ok": False, "error": str(message)}
        self.document.update({key: value
                              for key, value in fields.items()
                              if not key.startswith("header_")})
        self.headers = {key[len("header_"):].replace("_", "-"): value
                        for key, value in fields.items()
                        if key.startswith("header_")}


class HttpGateway:
    """The HTTP frontend of one :class:`ExplorationService`.

    Runs a ``ThreadingHTTPServer`` on its own daemon threads next to
    the service's asyncio loop; start with :meth:`start`, stop with
    :meth:`stop`.  All job state is accessed through the service's
    operations, run on the service loop — the gateway owns no queue
    state of its own beyond per-job document memos (stored on the jobs
    themselves, so they are garbage-collected with them).
    """

    def __init__(self, service, api_keys=None):
        self.service = service
        self.api_keys = dict(api_keys) if api_keys else None
        self.address = None
        self._httpd = None
        self._thread = None
        # Observability: total requests served and how many of them
        # were conditional hits (304, no body).
        self.requests = 0
        self.not_modified = 0
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, host="127.0.0.1", port=0):
        """Bind and serve on a background thread; returns self."""
        from repro.service.server import LOOPBACK_HOSTS

        if self.api_keys is None and host not in LOOPBACK_HOSTS:
            raise ReproError(
                "refusing to serve HTTP on %s without API keys: pass "
                "api_keys (--api-keys-file) to serve beyond loopback"
                % host)
        if self.service.loop is None:
            raise ReproError("the service is not started; the gateway "
                             "needs its event loop")
        gateway = self

        class _BoundHandler(_Handler):
            pass

        _BoundHandler.gateway = gateway
        self._httpd = ThreadingHTTPServer((host, port), _BoundHandler)
        self._httpd.daemon_threads = True
        self.address = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL},
            name="lycos-http", daemon=True)
        self._thread.start()
        return self

    def stop(self):
        """Stop accepting requests and join the serving thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(10)
            self._thread = None

    # ------------------------------------------------------------------
    # Auth
    # ------------------------------------------------------------------
    def authenticate(self, headers):
        """The :class:`ApiKey` a request's headers present.

        ``None`` on an open (key-less) gateway.  Raises a 401
        :class:`_HttpError` for a missing or unknown key; the compare
        runs over *every* configured key so a probe cannot time which
        prefix came close (the TCP token's constant-time contract).
        """
        if self.api_keys is None:
            return None
        supplied = ""
        authorization = headers.get("Authorization", "")
        if authorization.startswith("Bearer "):
            supplied = authorization[len("Bearer "):].strip()
        if not supplied:
            supplied = headers.get("X-Api-Key", "").strip()
        if not supplied:
            raise _HttpError(
                401, "authentication required: present an API key as "
                     "'Authorization: Bearer <key>' or 'X-Api-Key'",
                header_WWW_Authenticate="Bearer")
        matched = None
        supplied_bytes = supplied.encode("utf-8")
        for key, entry in self.api_keys.items():
            if hmac.compare_digest(supplied_bytes,
                                   key.encode("utf-8")):
                matched = entry
        if matched is None:
            raise _HttpError(401, "unknown API key",
                             header_WWW_Authenticate="Bearer")
        return matched

    # ------------------------------------------------------------------
    # Loop bridging
    # ------------------------------------------------------------------
    def call(self, coro):
        """Run one coroutine on the service loop, from a handler
        thread; the generous timeout covers a full long-poll wait."""
        future = asyncio.run_coroutine_threadsafe(coro,
                                                  self.service.loop)
        try:
            return future.result(MAX_POLL_WAIT + 60.0)
        except asyncio.TimeoutError:
            future.cancel()
            raise _HttpError(503, "service loop did not answer in "
                                  "time") from None

    # ------------------------------------------------------------------
    # Documents + ETags (all computed on the service loop)
    # ------------------------------------------------------------------
    def _job_fingerprint(self, job):
        """The job's content-addressed identity: its stage keys.

        Hashes, per point, the program fingerprint the service routes
        by (source + profiling inputs + library — the persistent
        store's content key) plus the point's full coordinates, under
        the job id.  Memoised on the job: none of it can change after
        submission.
        """
        cached = getattr(job, "_http_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(job.id.encode("utf-8"))
        for point in job.points:
            digest.update(
                str(self.service._affinity_key(point)).encode("utf-8"))
            digest.update(canonical_json(design_point_to_dict(point)))
        fingerprint = digest.hexdigest()[:24]
        job._http_fingerprint = fingerprint
        return fingerprint

    def _etag(self, job, body):
        """A strong ETag: stage-key fingerprint + body content hash."""
        digest = hashlib.sha256()
        digest.update(self._job_fingerprint(job).encode("ascii"))
        digest.update(body)
        return '"%s-%s"' % (self._job_fingerprint(job),
                            digest.hexdigest()[:16])

    def _status_projection(self, job):
        """The job's status document *without* the clock-driven
        ``expires_in`` (that travels as the X-Expires-In header)."""
        return _without_expiry(self.service.queue.status(job))

    def _expires_header(self, job):
        document = self.service.queue.status(job)
        expires_in = document.get("expires_in")
        return None if expires_in is None else "%.1f" % expires_in

    async def status_document(self, job_id):
        """``(body, etag, expires_header, immutable)`` of a status."""
        job = self.service.job(job_id)
        body = canonical_json(self._status_projection(job))
        return (body, self._etag(job, body),
                self._expires_header(job), job.finished)

    async def results_document(self, job_id):
        """``(body, etag, expires_header, immutable)`` of the full
        results document (completion-ordered entries + status).

        Memoised per (completion count, state) on the job, so a
        polling storm against an unchanged job re-serialises nothing —
        it pays one memo lookup and, with ``If-None-Match``, sends no
        body at all.
        """
        job = self.service.job(job_id)
        async with job.condition:
            order = list(job.order)
            stamp = (len(order), job.state)
        memo = getattr(job, "_http_results_memo", None)
        if memo is not None and memo[0] == stamp:
            _, body, etag = memo
        else:
            body = canonical_json({
                "job": job.id,
                "total": len(job.points),
                "results": self.service.result_entries(job, order),
                "status": self._status_projection(job)})
            etag = self._etag(job, body)
            job._http_results_memo = (stamp, body, etag)
        return body, etag, self._expires_header(job), job.finished

    async def results_page(self, job_id, after, wait):
        """One long-poll page: completions past position ``after``.

        Blocks (on the job's condition, never the handler's CPU) until
        a completion lands past ``after``, the job turns terminal, or
        ``wait`` runs out — the HTTP client's streaming loop pages
        through these exactly like the TCP stream, without holding a
        server connection per client between completions.
        """
        job = self.service.job(job_id)
        deadline = asyncio.get_running_loop().time() + wait
        async with job.condition:
            while len(job.order) <= after and not job.finished:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(job.condition.wait(),
                                           remaining)
                except asyncio.TimeoutError:
                    break
            order = list(job.order[after:])
            finished = job.finished
        # ``order`` was read under the condition while ``finished`` was
        # sampled, so a finished job's page always covers the tail:
        # ``done`` simply mirrors the terminal state.
        document = {
            "job": job.id,
            "results": self.service.result_entries(job, order),
            "next": after + len(order),
            "done": finished,
        }
        if finished:
            document["status"] = self._status_projection(job)
        return canonical_json(document)

    async def report_document(self, job_id):
        """``(body, etag, expires_header, immutable)`` of the job's
        self-contained HTML report.

        The result rows and status come from queue state on this loop;
        the schedule Gantts and store analytics are computed **on the
        engine thread** (the only thread allowed to touch the session
        and its store — programs resolve warm there, so rendering a
        report compiles nothing).  Memoised per (completion count,
        state) like the results document; terminal reports are
        immutable and served as such.
        """
        from repro.report.html import render_html, sweep_document

        job = self.service.job(job_id)
        async with job.condition:
            order = list(job.order)
            stamp = (len(order), job.state)
        memo = getattr(job, "_http_report_memo", None)
        if memo is not None and memo[0] == stamp:
            _, body, etag = memo
            return body, etag, self._expires_header(job), job.finished
        results = [job.results[index] for index in order
                   if job.results.get(index) is not None]
        apps = []
        for point in job.points:
            if point.app not in apps:
                apps.append(point.app)
        gantts, store = await self.service._on_engine(
            self._report_engine_data, apps)
        document = sweep_document(
            results, store=store, gantts=gantts,
            title="Job %s" % job.id,
            job=self._status_projection(job))
        body = render_html(document).encode("utf-8")
        etag = self._etag(job, body)
        job._http_report_memo = (stamp, body, etag)
        return body, etag, self._expires_header(job), job.finished

    def _report_engine_data(self, apps):
        """Gantt + store documents, built on the engine thread."""
        from repro.report.html import gantt_documents, store_analytics

        session = self.service.session
        gantts = []
        for app in apps:
            try:
                gantts.extend(gantt_documents(session, [app]))
            except Exception:
                # An app that never compiled (the per-point error
                # contract lets bogus apps into jobs) has no Gantt.
                continue
        return gantts, store_analytics(session.store)

    async def dashboard(self):
        """``(body, etag)`` of the live roster/queue dashboard page.

        Volatile by nature, so it is served ``no-cache`` — but still
        under a strong content-hash ETag, so an unchanged service
        answers polls with 304s.  The gateway's own request counters
        are deliberately excluded: a page whose bytes change on every
        fetch could never validate.
        """
        from repro.report.html import dashboard_document, render_html

        info = self.service.ping()
        del info["jobs"]  # the jobs table below lists them
        info["transport"] = "http"
        if info["queue_cap"] is None:
            info["queue_cap"] = "unbounded"
        jobs = [_without_expiry(status) for status in self.service.jobs()]
        body = render_html(dashboard_document(info, jobs))
        body = body.encode("utf-8")
        etag = '"dash-%s"' % hashlib.sha256(body).hexdigest()[:16]
        return body, etag

    async def submit(self, points, client, weight, objective, quota):
        """Admit one batch; the 429 mapping happens in the handler."""
        return canonical_json(dict(
            self.service.submit(points, client, weight, objective,
                                quota=quota), ok=True))

    async def cancel(self, job_id):
        document = await self.service.cancel(job_id)
        _without_expiry(document["status"])
        return canonical_json(dict(document, ok=True))

    async def jobs(self):
        """Every known job's full status, the TCP ``jobs`` op's twin.

        A volatile listing (jobs come and go, ``expires_in`` ticks),
        so it is served uncached rather than ETagged.
        """
        return canonical_json({"ok": True, "jobs": self.service.jobs()})

    async def ping(self):
        """The service's ``ping`` plus this gateway's own fields."""
        return canonical_json(dict(
            self.service.ping(), ok=True, transport="http",
            http_requests=self.requests,
            http_not_modified=self.not_modified))

    # Counter updates come from handler threads.
    def count_request(self):
        with self._counter_lock:
            self.requests += 1

    def count_not_modified(self):
        with self._counter_lock:
            self.not_modified += 1


def _without_expiry(status):
    """``status`` minus its clock-driven ``expires_in`` (in place)."""
    status.pop("expires_in", None)
    return status


def _etag_matches(header, etag):
    """Strong ``If-None-Match`` comparison against one entity tag.

    ``*`` matches anything; otherwise the header is a comma-separated
    tag list and a weak tag (``W/...``) never strong-matches — our
    tags are all strong, so a weak validator means a different
    (semantically-equivalent-only) cache entry.
    """
    if header is None:
        return False
    header = header.strip()
    if header == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate == etag:
            return True
    return False


class _Handler(BaseHTTPRequestHandler):
    """One request: route, auth, conditional headers, JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "lycos-repro-gateway/1"
    gateway = None  # bound per-gateway by a subclass in start()

    # The default handler logs every request to stderr; the gateway is
    # polled, so that would be pure noise next to the service's own
    # announcements.
    def log_message(self, format, *args):  # noqa: A002 (stdlib name)
        pass

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")

    def _dispatch(self, method):
        self.gateway.count_request()
        try:
            key = self.gateway.authenticate(self.headers)
            split = urllib.parse.urlsplit(self.path)
            parts = [part for part in split.path.split("/") if part]
            query = urllib.parse.parse_qs(split.query)
            if parts[:1] != ["v1"]:
                raise _HttpError(404, "unknown path %r (the API lives "
                                      "under /v1)" % split.path)
            route = parts[1:]
            if route == ["ping"]:
                self._require(method, "GET")
                self._send_json(200, self.gateway.call(
                    self.gateway.ping()))
            elif route == ["jobs"]:
                if method == "POST":
                    self._handle_submit(key)
                elif method == "GET":
                    self._send_json(200, self.gateway.call(
                        self.gateway.jobs()),
                        extra={"Cache-Control": "no-store"})
                else:
                    raise _HttpError(
                        405, "method %s not allowed here" % method,
                        header_Allow="GET, POST")
            elif len(route) == 2 and route[0] == "jobs":
                if method == "GET":
                    self._handle_status(route[1])
                elif method == "DELETE":
                    self._handle_cancel(route[1])
                else:
                    raise _HttpError(
                        405, "method %s not allowed here" % method,
                        header_Allow="GET, DELETE")
            elif len(route) == 3 and route[0] == "jobs" \
                    and route[2] == "results":
                self._require(method, "GET")
                self._handle_results(route[1], query)
            elif len(route) == 3 and route[0] == "jobs" \
                    and route[2] == "report":
                self._require(method, "GET")
                self._handle_report(route[1])
            elif route == ["dashboard"]:
                self._require(method, "GET")
                self._handle_dashboard()
            else:
                raise _HttpError(404, "unknown path %r" % split.path)
        except _HttpError as exc:
            self._send_json(exc.status, canonical_json(exc.document),
                            extra=exc.headers)
        except UnknownJobError as exc:
            # An expired job is gone for good (410); an unknown id may
            # simply be wrong (404).
            status = 410 if isinstance(exc, JobExpiredError) else 404
            self._send_json(status, canonical_json(
                {"ok": False, "error": str(exc)}))
        except QueueFullError as exc:
            self._send_json(
                429, canonical_json({
                    "ok": False, "error": str(exc),
                    "retry_after": exc.retry_after}),
                extra={"Retry-After":
                       str(max(1, math.ceil(exc.retry_after)))})
        except (protocol.ProtocolError, ReproError) as exc:
            self._send_json(400, canonical_json(
                {"ok": False, "error": str(exc)}))
        except (BrokenPipeError, ConnectionResetError):
            pass  # the poller went away mid-reply; nothing to clean up
        except Exception as exc:  # a handler thread must never die loud
            try:
                self._send_json(500, canonical_json(
                    {"ok": False,
                     "error": "%s: %s" % (type(exc).__name__, exc)}))
            except Exception:
                pass

    def _require(self, method, expected):
        if method != expected:
            raise _HttpError(405,
                             "method %s not allowed here" % method,
                             header_Allow=expected)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_submit(self, key):
        request = self._read_json_body()
        request.setdefault("op", "submit")
        points = protocol.submission_points(request)
        objective = protocol.submission_objective(request)
        if key is None:
            # Open gateway: client/weight come from the body, like the
            # TCP submit's optional metadata; no quota applies.
            client, weight = protocol.submission_meta(request)
            quota = None
        else:
            # Keyed gateway: identity is the *key's*, never the
            # body's — a client cannot impersonate another lane or
            # escape its own quota.  The body may lower (never raise)
            # the key's scheduler weight.
            client = key.client
            _, weight = protocol.submission_meta(request)
            if "weight" not in request:
                weight = key.weight
            weight = min(weight, key.weight)
            quota = key.quota
        body = self.gateway.call(self.gateway.submit(
            points, client, weight, objective, quota))
        self._send_json(200, body)

    def _handle_status(self, job_id):
        body, etag, expires, immutable = self.gateway.call(
            self.gateway.status_document(job_id))
        self._send_conditional(body, etag, expires, immutable)

    def _handle_results(self, job_id, query):
        after = self._int_param(query, "after")
        if after is None:
            body, etag, expires, immutable = self.gateway.call(
                self.gateway.results_document(job_id))
            self._send_conditional(body, etag, expires, immutable)
            return
        wait = self._float_param(query, "wait", 0.0)
        wait = max(0.0, min(MAX_POLL_WAIT, wait))
        body = self.gateway.call(
            self.gateway.results_page(job_id, after, wait))
        self._send_json(200, body,
                        extra={"Cache-Control": "no-store"})

    def _handle_cancel(self, job_id):
        self._send_json(200, self.gateway.call(
            self.gateway.cancel(job_id)))

    def _handle_report(self, job_id):
        body, etag, expires, immutable = self.gateway.call(
            self.gateway.report_document(job_id))
        self._send_conditional(body, etag, expires, immutable,
                               content_type=HTML_CONTENT_TYPE)

    def _handle_dashboard(self):
        body, etag = self.gateway.call(self.gateway.dashboard())
        self._send_conditional(body, etag, None, False,
                               content_type=HTML_CONTENT_TYPE)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_json_body(self):
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise _HttpError(411, "a JSON body with Content-Length is "
                                  "required") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body exceeds %d bytes"
                             % MAX_BODY_BYTES)
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "request body is not valid JSON") \
                from None
        if not isinstance(document, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return document

    def _int_param(self, query, name, default=None):
        values = query.get(name)
        if not values:
            return default
        try:
            value = int(values[0])
        except ValueError:
            raise _HttpError(400, "query parameter %r must be an "
                                  "integer" % name) from None
        if value < 0:
            raise _HttpError(400, "query parameter %r must be >= 0"
                             % name)
        return value

    def _float_param(self, query, name, default):
        values = query.get(name)
        if not values:
            return default
        try:
            return float(values[0])
        except ValueError:
            raise _HttpError(400, "query parameter %r must be a "
                                  "number" % name) from None

    def _send_conditional(self, body, etag, expires, immutable,
                          content_type="application/json"):
        """A cacheable document: ETag always, 304 when it matches."""
        headers = {
            "ETag": etag,
            "Cache-Control": CACHE_IMMUTABLE if immutable
            else CACHE_REVALIDATE,
        }
        if expires is not None:
            headers["X-Expires-In"] = expires
        if _etag_matches(self.headers.get("If-None-Match"), etag):
            self.gateway.count_not_modified()
            self.send_response(304)
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            return
        self._send_body(200, body, content_type, extra=headers)

    def _send_json(self, status, body, extra=None):
        self._send_body(status, body, "application/json", extra=extra)

    def _send_body(self, status, body, content_type, extra=None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
