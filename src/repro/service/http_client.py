"""Blocking client for the HTTP gateway (ISSUE 9).

:class:`HttpServiceClient` mirrors :class:`~repro.service.client.
ServiceClient`'s surface — ``ping`` / ``submit`` / ``status`` /
``results`` / ``collect`` / ``cancel`` — over the REST endpoints of
:mod:`~repro.service.http`, and *shares* (not copies) the TCP
client's ``collect``, result decoding and retry/backoff contract:
queue-full and quota 429s carry ``Retry-After``, which is retried with
the one capped-exponential jittered helper of
:mod:`~repro.service.client`, rejection accounting included.

What HTTP adds over the TCP stream is conditional polling: the client
remembers the strong ETag of every status / results document it has
seen and sends ``If-None-Match`` on the next fetch, so an unchanged
document costs a 304 with no body.  :attr:`conditional_hits` /
:attr:`conditional_misses` count how often polling paid the small
price — a patient poll loop against a slow job should be almost all
hits.  ``results`` streams through long-poll pages (``?after=N&wait=
S``) instead of holding one connection per client open, which is the
point of the gateway: wide fan-in with no per-client server state.

One TCP connection per request (``Connection: close``), like the line
client — there is no session state to multiplex, and it keeps the
threaded gateway's handler threads from idling on keep-alives.
"""

import http.client
import json
import urllib.parse

from repro.errors import ReproError
from repro.service.client import (
    RetryingClientMixin,
    ServiceClient,
    ServiceError,
)

DEFAULT_URL = "http://127.0.0.1:8421"


class HttpServiceClient(RetryingClientMixin):
    """Client for one HTTP gateway.

    Attributes:
        url: The gateway base URL (``http://host:port``; an optional
            path prefix is honoured).
        api_key: Presented as ``Authorization: Bearer`` on every
            request; ``None`` for an open (key-less) gateway.  The
            scheduling identity (the TCP client's ``client_id``) is
            the *key's* client label, assigned server-side.
        timeout: Per-request socket timeout in seconds.
        poll_wait: Long-poll budget of one ``results`` page; the
            stream loops, so this only tunes server round-trips.
        retry_budget / retry_cap / retry_jitter / retry_seed: The
            shared retry/backoff contract — see
            :class:`~repro.service.client.ServiceClient`; 429
            rejections (queue cap or per-key quota) are retried and
            counted identically, via the same helper.
        conditional_hits / conditional_misses: How many conditional
            document fetches came back 304 (cached copy still good)
            versus paying a full body.
    """

    def __init__(self, url=DEFAULT_URL, api_key=None, timeout=120.0,
                 poll_wait=10.0, retry_budget=60.0, retry_cap=2.0,
                 retry_jitter=0.5, retry_seed=None):
        split = urllib.parse.urlsplit(url if "//" in url
                                      else "http://" + url)
        if split.scheme not in ("", "http"):
            raise ReproError("HttpServiceClient only speaks plain "
                             "http, got %r" % url)
        if not split.hostname:
            raise ReproError("gateway URL %r has no host" % url)
        self.url = url
        self.host = split.hostname
        self.port = split.port if split.port else 80
        self._prefix = split.path.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.poll_wait = float(poll_wait)
        self._init_retry(retry_budget, retry_cap, retry_jitter,
                         retry_seed)
        self._etags = {}           # path -> (etag, document)
        self.conditional_hits = 0
        self.conditional_misses = 0
        self.last_status = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _headers(self):
        headers = {"Connection": "close",
                   "Accept": "application/json"}
        if self.api_key is not None:
            headers["Authorization"] = "Bearer %s" % self.api_key
        return headers

    def _request(self, method, path, document=None, conditional=False):
        """One round trip; returns the parsed JSON document.

        With ``conditional=True`` the path's remembered ETag rides as
        ``If-None-Match`` and a 304 answers from the local copy.
        Rejections raise :class:`ServiceError` carrying the server's
        structured error document (``retry_after`` included on a 429),
        exactly like the TCP client's typed errors.
        """
        headers = self._headers()
        body = None
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        cached = self._etags.get(path) if conditional else None
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            try:
                connection.request(method, self._prefix + path,
                                   body=body, headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except http.client.HTTPException as exc:
                raise ServiceError(
                    "unreadable gateway response (%s: %s)"
                    % (type(exc).__name__, exc)) from exc
            if response.status == 304:
                self.conditional_hits += 1
                return self._refresh_cached(path, response, cached[1])
            parsed = self._parse(response, payload)
            if conditional:
                self.conditional_misses += 1
                etag = response.headers.get("ETag")
                if etag:
                    self._etags[path] = (etag, parsed)
                self._refresh_cached(path, response, parsed)
            return parsed
        finally:
            connection.close()

    @staticmethod
    def _refresh_cached(path, response, document):
        """Fold 304-refreshable headers into the (cached) document.

        ``expires_in`` is deliberately not part of the cached body (it
        is a GC countdown, not content); the gateway re-sends it as
        ``X-Expires-In`` on every response *including* 304s, so the
        status documents this client returns stay as fresh as the TCP
        client's.
        """
        expires = response.headers.get("X-Expires-In")
        if "status" in document or "state" in document:
            target = document if "state" in document \
                else document["status"]
            if isinstance(target, dict):
                target["expires_in"] = (None if expires is None
                                        else float(expires))
        return document

    def _parse(self, response, payload):
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("unreadable gateway response: %r"
                               % payload[:80]) from None
        if not isinstance(parsed, dict):
            raise ServiceError("gateway response must be a JSON "
                               "object")
        if response.status >= 400 or not parsed.get("ok", True):
            if response.status == 429 \
                    and "retry_after" not in parsed:
                # Belt and braces: the header is authoritative when
                # the body (some intermediary's, say) lacks the hint.
                retry_after = response.headers.get("Retry-After")
                try:
                    parsed["retry_after"] = float(retry_after)
                except (TypeError, ValueError):
                    pass
            raise ServiceError(
                parsed.get("error",
                           "gateway rejected the request (HTTP %d)"
                           % response.status), response=parsed)
        return parsed

    # ------------------------------------------------------------------
    # Operations (the ServiceClient surface)
    # ------------------------------------------------------------------
    def ping(self):
        """Gateway liveness + service/roster info."""
        return self._request("GET", "/v1/ping")

    def submit(self, points, weight=None, objective=None):
        """Submit a batch; returns the job id.

        Queue-full *and* per-key quota rejections (both 429 +
        ``Retry-After``) are retried under the shared backoff
        contract; :attr:`last_submit_rejections` counts every
        rejection absorbed, the final unretried one included.
        ``weight`` may lower this key's fair-scheduler weight for the
        job; the key's configured weight is the ceiling.
        """
        documents = [ServiceClient._coerce_point(point)
                     for point in points]
        request = {"points": documents}
        if weight is not None:
            request["weight"] = weight
        if objective is not None:
            request["objective"] = objective
        return self._submit_with_retries(
            lambda: self._request("POST", "/v1/jobs",
                                  document=request)["job"])

    def status(self, job_id):
        """The job's status document (conditionally fetched)."""
        return self._request("GET", "/v1/jobs/%s" % job_id,
                             conditional=True)

    def jobs(self):
        """Every job's status document (uncached: a volatile listing)."""
        return self._request("GET", "/v1/jobs")["jobs"]

    def results(self, job_id, library=None):
        """Yield ``(index, PointResult)`` as points complete.

        Completion-ordered, like the TCP stream; a cancelled point
        yields ``(index, None)``.  Pages through long-polls instead of
        holding a connection, so abandoning the iterator costs the
        server nothing — there is no stream to tear down.  The closing
        status document lands in :attr:`last_status`.
        """
        self.last_status = None
        after = 0
        while True:
            page = self._request(
                "GET", "/v1/jobs/%s/results?after=%d&wait=%s"
                % (job_id, after, self.poll_wait))
            for entry in page.get("results", []):
                yield self._decode_entry(entry, library)
            after = page.get("next", after)
            if page.get("done"):
                self.last_status = page.get("status")
                return

    def results_document(self, job_id, library=None):
        """The full results document, conditionally fetched.

        The polling counterpart of ``collect``: re-fetching an
        unchanged (e.g. terminal) job costs a 304.  Returns the raw
        document; the per-point results inside are wire dicts.
        """
        return self._request("GET", "/v1/jobs/%s/results" % job_id,
                             conditional=True)

    def cancel(self, job_id):
        """Cancel the job's pending points; returns the final status."""
        response = self._request("DELETE", "/v1/jobs/%s" % job_id)
        return response["status"]

    # ------------------------------------------------------------------
    # HTML documents (reports + dashboard)
    # ------------------------------------------------------------------
    def _request_html(self, path):
        """One raw round trip for an HTML document; returns the text.

        A separate path from :meth:`_request` because the payload is
        not JSON — but errors still are: any non-200 answer is parsed
        as the gateway's structured error document and raised as
        :class:`ServiceError`, so auth and 404s behave identically to
        the JSON endpoints.
        """
        headers = self._headers()
        headers["Accept"] = "text/html"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            try:
                connection.request("GET", self._prefix + path,
                                   headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except http.client.HTTPException as exc:
                raise ServiceError(
                    "unreadable gateway response (%s: %s)"
                    % (type(exc).__name__, exc)) from exc
            if response.status != 200:
                self._parse(response, payload)  # raises ServiceError
                raise ServiceError(
                    "gateway rejected the request (HTTP %d)"
                    % response.status)
            try:
                return payload.decode("utf-8")
            except UnicodeDecodeError:
                raise ServiceError("gateway sent an undecodable HTML "
                                   "document") from None
        finally:
            connection.close()

    def report(self, job_id):
        """The job's self-contained HTML report, as text."""
        return self._request_html("/v1/jobs/%s/report" % job_id)

    def dashboard(self):
        """The live service dashboard page, as text."""
        return self._request_html("/v1/dashboard")
