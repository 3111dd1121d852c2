"""TCP ≡ HTTP: every client operation gives the same document.

Both frontends call the same service operations (``ping``, ``submit``,
``status``, ``cancel``, ``jobs``), so a client sees the same documents
whichever transport it speaks.  Each test is parametrized over the
transport that *drives* the operations; after every step both clients
read the shared state and must agree.  The only differences allowed
are HTTP's own:

* ``ping`` gains ``transport``, ``http_requests`` and
  ``http_not_modified``;
* ``expires_in`` travels in the ``X-Expires-In`` header, which the HTTP
  client folds back into the status documents it fetches, but not into
  the status a ``cancel`` returns.
"""

import time

import pytest

from repro.engine import DesignPoint

from tests.service.test_service import assert_matches_serial

GRID = (DesignPoint(app="straight", area=3000.0, quanta=80),
        DesignPoint(app="straight", area=5000.0, quanta=80),
        DesignPoint(app="straight", area=7500.0, quanta=80))

HTTP_ONLY_PING_FIELDS = ("transport", "http_requests",
                         "http_not_modified")


def both_clients(harness):
    return {"tcp": harness.client(), "http": harness.http_client()}


def tcp_view(http_ping):
    """An HTTP ``ping`` document without the gateway's own fields."""
    for field in HTTP_ONLY_PING_FIELDS:
        assert field in http_ping
    return {key: value for key, value in http_ping.items()
            if key not in HTTP_ONLY_PING_FIELDS}


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_every_operation_gives_the_same_document(make_harness,
                                                 transport):
    # A pure coordinator evaluates nothing, so the job stays exactly
    # where the operations put it while both clients read it.
    harness = make_harness(local_engines=0)
    clients = both_clients(harness)
    driver = clients[transport]

    job = driver.submit(GRID)
    assert clients["tcp"].status(job) == clients["http"].status(job)
    assert clients["tcp"].status(job)["state"] == "queued"

    cancelled = driver.cancel(job)
    status = clients["tcp"].status(job)
    assert status["state"] == "cancelled"
    assert status["cancelled"] == len(GRID)
    assert clients["http"].status(job) == status
    # HTTP's cancel leaves ``expires_in`` to the header it does not
    # send; every other field matches.
    expected = dict(status)
    if transport == "http":
        del expected["expires_in"]
    assert cancelled == expected

    assert clients["tcp"].jobs() == clients["http"].jobs() == [status]

    tcp_ping = clients["tcp"].ping()
    assert tcp_view(clients["http"].ping()) == tcp_ping
    assert tcp_ping["jobs"] == 1


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_ping_after_job_ttl_reports_the_same_jobs(make_harness,
                                                  transport):
    # Retention GC runs at the entry of every operation, whichever
    # transport calls it: an HTTP ping right after the TTL must not
    # count the expired job the TCP ping no longer sees.
    ttl = 1.0
    harness = make_harness(job_ttl=ttl)
    clients = both_clients(harness)
    driver = clients[transport]
    job = driver.submit(GRID[:1])
    results = driver.collect(job)
    assert clients["tcp"].ping()["jobs"] == 1
    assert_matches_serial(results, GRID[:1])
    time.sleep(ttl + 0.2)
    http_ping = clients["http"].ping()  # first after the TTL
    tcp_ping = clients["tcp"].ping()
    assert http_ping["jobs"] == tcp_ping["jobs"] == 0
    assert tcp_view(http_ping) == tcp_ping
    assert clients["tcp"].jobs() == clients["http"].jobs() == []
