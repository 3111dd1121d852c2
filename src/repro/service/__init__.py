"""Async job-queue frontend over the exploration engine.

Layers (thinnest on top):

* :mod:`repro.service.protocol` — the line-JSON wire format: request
  parsing, submission validation, response builders, and the fabric
  ops (``join``/``lease``/``delta``/``engine-heartbeat``) with their
  store-delta codec.
* :mod:`repro.service.queue` — :class:`Job`/:class:`JobQueue`: batch
  bookkeeping, per-point lifecycle, completion-order streaming state.
* :mod:`repro.service.engine` — :class:`Engine`/:class:`EngineRoster`:
  the placement layer of the distributed fabric — affinity routing,
  bounded lanes, work stealing, engine-death re-queues.
* :mod:`repro.service.server` — :class:`ExplorationService`: the
  asyncio coordinator + scheduler draining the queue onto its engine
  roster over one shared :class:`~repro.engine.session.Session`
  (single-writer engine thread, optional persistent
  ``multiprocessing`` pool), the client operations (``ping``,
  ``submit``, ``status``, ``cancel``, ``jobs``) both frontends call,
  and the blocking :func:`serve` entry point.
* :mod:`repro.service.worker` — :class:`EngineWorker`: the worker
  process behind ``serve --join``, contributing a remote engine to a
  coordinator.
* :mod:`repro.service.client` — :class:`ServiceClient`: the blocking
  socket client the CLI's ``submit``/``status``/``results`` wrap.

Heavy modules load lazily, mirroring :mod:`repro.engine`.
"""

__all__ = [
    "EngineRoster",
    "EngineWorker",
    "ExplorationService",
    "ServiceClient",
    "ServiceError",
    "join_coordinator",
    "serve",
]


def __getattr__(name):
    if name in ("ExplorationService", "serve"):
        from repro.service import server

        return getattr(server, name)
    if name in ("ServiceClient", "ServiceError"):
        from repro.service import client

        return getattr(client, name)
    if name == "EngineRoster":
        from repro.service import engine

        return engine.EngineRoster
    if name in ("EngineWorker", "join_coordinator"):
        from repro.service import worker

        return getattr(worker, name)
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))
