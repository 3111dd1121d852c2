"""The exploration engine: one cached pipeline for every driver.

A :class:`Session` owns the memo store (:class:`~repro.engine.cache
.EvalCache`) that every stage of the compile -> allocate -> PACE ->
evaluate chain shares, plus program and Algorithm 1 memos of its own.
All experiment drivers — Table 1, the Figure 3 sweep, the design
iteration, the exhaustive search, the multi-ASIC co-design and the CLI
``sweep`` — run through a session, so work done by one stage (a BSB's
list schedule, a cost array, a PACE sequence table) is never redone by
another.

The batch API fans a list of immutable
:class:`~repro.engine.design_point.DesignPoint` instances out over
``multiprocessing`` workers; each worker holds one long-lived session
of its own, so the cache is shared across all points a worker
evaluates::

    session = Session()
    results = session.explore_grid(apps=["hal", "man"],
                                   areas=[4000.0, 8000.0, None],
                                   policies=[None, "balanced"],
                                   workers=4)
"""

import multiprocessing

from repro.apps.registry import application_spec, load_application
from repro.core.allocator import allocate, cached_restrictions
from repro.core.rmap import RMap
from repro.core.module_selection import (
    BalancedPolicy,
    CheapestPolicy,
    FastestPolicy,
    allocate_with_selection,
)
from repro.engine.cache import EvalCache
from repro.engine.design_point import (
    DesignPoint,
    PointResult,
    failed_point_result,
)
from repro.errors import ReproError
from repro.hwlib.library import default_library
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture

_POLICIES = {
    "fastest": FastestPolicy,
    "cheapest": CheapestPolicy,
    "balanced": BalancedPolicy,
}


class Session:
    """Session-scoped design-space exploration over a fixed library.

    Attributes:
        library: The resource library every stage runs against.
        cache: The shared :class:`~repro.engine.cache.EvalCache`.
        store: Optional :class:`~repro.engine.store.CacheStore` backing
            the cache with a content-addressed on-disk spill
            (``cache_dir``); ``None`` keeps the session process-local.
    """

    def __init__(self, library=None, cache_dir=None):
        self.library = library if library is not None else default_library()
        self.cache = EvalCache()
        self._programs = {}
        self.store = None
        if cache_dir is not None:
            from repro.engine.store import CacheStore

            self.store = CacheStore(cache_dir)
            self.store.register(library=self.library)
            self.store.hydrate(self.cache)

    def _adopt(self, bsbs, library=None):
        """Register a BSB array with the store and hydrate its entries.

        Called by every entry point that accepts BSBs, *before* any
        cache lookup, so persisted entries are already translated onto
        this process's uids when the lookup happens.
        """
        if self.store is not None:
            changed = self.store.register(bsbs=bsbs, library=library)
            if changed:
                self.store.hydrate(self.cache)
        return bsbs

    def save_store(self):
        """Spill the cache to the persistent store; entries written.

        A no-op (returning 0) for sessions without a ``cache_dir``.
        """
        if self.store is None:
            return 0
        return self.store.flush(self.cache)

    # ------------------------------------------------------------------
    # Stage accessors (each memoised by its true inputs)
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Hit/miss accounting across every cached stage."""
        return self.cache.stats

    def program(self, app):
        """The compiled, profiled benchmark program (compiled once).

        Resolution order: the in-process memo, then the persistent
        program store (a hydrated program gets fresh uids but identical
        structural signatures, so the stage shards key onto it
        unchanged), then a cold frontend compile — whose result is
        queued for the store, making the *next* process warm.  The
        ``compile`` stage counters are the scoreboard: a miss is an
        actual frontend compile, a hit is a compile the store absorbed.
        """
        program = self._programs.get(app)
        if program is not None:
            self.stats.hit("program")
            return program
        self.stats.miss("program")
        fingerprint = None
        if self.store is not None:
            fingerprint = self._program_fingerprint(app)
            payload = self.store.load_program(fingerprint)
            if payload is not None:
                program = self._hydrate_program(payload)
        if program is not None:
            self.stats.hit("compile")
        else:
            self.stats.miss("compile")
            program = load_application(app)
            if fingerprint is not None:
                from repro.io.serialize import program_to_dict

                self.store.put_program(fingerprint,
                                       program_to_dict(program))
        self._programs[app] = program
        self._adopt(program.bsbs)
        return program

    def hottest_bsb(self, app):
        """The BSB carrying the most software time (viz/report focus).

        Resolved through :meth:`program`, so a warm store answers this
        without a frontend compile.  Ties break to the earliest BSB in
        program order (``max`` keeps the first maximum).
        """
        from repro.swmodel.estimator import bsb_software_time
        from repro.swmodel.processor import default_processor

        processor = default_processor()
        return max(self.program(app).bsbs,
                   key=lambda bsb: bsb_software_time(bsb, processor))

    def _program_fingerprint(self, app):
        """The store key of one application under this library."""
        return self.program_affinity_key(app)

    def program_affinity_key(self, app):
        """A stable identity for one app's compiled program.

        This is the persistent-store program fingerprint (source +
        profiling inputs + library), computed without touching any
        store — so it works for store-less sessions and is identical
        across processes and restarts.  The distributed fabric routes
        design points by this key, so equal programs land on the
        engine that has already compiled and cached them.  Raises for
        unknown apps (the service falls back to the bare app name).
        """
        from repro.apps.registry import application_source
        from repro.engine.store import program_fingerprint

        source, inputs = application_source(app)
        return program_fingerprint(app, source, inputs, self.library)

    @staticmethod
    def _hydrate_program(payload):
        """Rebuild a stored program; None when the entry is damaged.

        A corrupt document degrades to a cold compile — exactly the
        graceful story corrupt stage shards already have — never to an
        error surfaced at the caller.
        """
        from repro.io.serialize import program_from_dict

        try:
            return program_from_dict(payload)
        except ReproError:
            return None

    def architecture(self, point):
        """The :class:`TargetArchitecture` a :class:`DesignPoint` names."""
        area = point.area
        if area is None:
            area = application_spec(point.app).total_area
        return TargetArchitecture(
            library=self.library, total_area=area,
            comm_cycles_per_word=point.comm_cycles_per_word)

    def restrictions(self, bsbs, library=None):
        """Memoised ASAP-parallelism restrictions of a BSB array."""
        library = library if library is not None else self.library
        self._adopt(bsbs, library=library)
        return cached_restrictions(bsbs, library, cache=self.cache)

    def allocate(self, bsbs, area, policy=None, restrictions=None,
                 library=None):
        """Memoised Algorithm 1 (or module-selection variant) run.

        ``policy`` is a policy *name* (see
        :data:`~repro.engine.design_point.POLICY_NAMES`) or ``None``
        for the paper's designated-unit algorithm.
        """
        library = library if library is not None else self.library
        self._adopt(bsbs, library=library)
        if restrictions is not None:
            if policy is not None:
                # Module selection caps per *type*, not per resource —
                # an RMap of per-resource caps does not apply there.
                raise ReproError("restrictions are only supported for "
                                 "the designated-unit allocator "
                                 "(policy=None)")
            restrictions = RMap._coerce(restrictions)
        # Snapshot the restrictions into the key: a dict is unhashable
        # and an RMap could be mutated by the caller after the call.
        restrictions_key = (None if restrictions is None
                            else tuple(restrictions.items()))
        key = (tuple(bsb.uid for bsb in bsbs), float(area), policy,
               restrictions_key, self.cache.pin(library))
        result = self.cache.allocs.get(key)
        if result is not None:
            self.stats.hit("alloc")
            return result
        self.stats.miss("alloc")
        if policy is None:
            result = allocate(bsbs, library, area=area,
                              restrictions=restrictions, cache=self.cache)
        else:
            try:
                policy_class = _POLICIES[policy]
            except KeyError:
                raise ReproError(
                    "unknown selection policy %r (expected one of %s)"
                    % (policy, ", ".join(sorted(_POLICIES)))) from None
            result = allocate_with_selection(
                bsbs, library, area=area, policy=policy_class(),
                cache=self.cache)
        self.cache.allocs[key] = result
        return result

    def evaluate(self, bsbs, allocation, architecture, area_quanta=400,
                 overhead_model=None):
        """Memoised PACE evaluation of one allocation."""
        self._adopt(bsbs, library=architecture.library)
        return evaluate_allocation(bsbs, allocation, architecture,
                                   area_quanta=area_quanta,
                                   cache=self.cache,
                                   overhead_model=overhead_model)

    def iterate(self, bsbs, allocation, architecture, max_steps=None,
                area_quanta=400, overhead_model=None, objective=None):
        """The reduce-only design iteration, on this session's cache."""
        from repro.core.iteration import design_iteration

        self._adopt(bsbs, library=architecture.library)
        return design_iteration(bsbs, allocation, architecture,
                                max_steps=max_steps,
                                area_quanta=area_quanta, session=self,
                                overhead_model=overhead_model,
                                objective=objective)

    def exhaustive(self, bsbs, architecture, restrictions=None,
                   max_evaluations=None, area_quanta=200,
                   keep_history=False, workers=1, search="brute",
                   objective="speedup"):
        """The exhaustive allocation search, on this session's cache.

        ``workers`` > 1 fans the candidate stream out over processes
        (see :func:`~repro.core.exhaustive.exhaustive_best_allocation`);
        the result is bit-identical to the serial search and the
        per-worker cache accounting is merged into ``self.stats``.
        ``search="pruned"`` walks the space branch-and-bound style —
        same winner, far fewer evaluations on prunable spaces.
        ``objective`` selects the tournament ranking candidates (see
        :mod:`repro.core.objective`); the default reproduces the
        paper's speed-up contract bit for bit.
        """
        from repro.core.exhaustive import exhaustive_best_allocation

        self._adopt(bsbs, library=architecture.library)
        return exhaustive_best_allocation(
            bsbs, architecture, restrictions=restrictions,
            max_evaluations=max_evaluations, area_quanta=area_quanta,
            keep_history=keep_history, session=self, workers=workers,
            search=search, objective=objective)

    # ------------------------------------------------------------------
    # The batch API
    # ------------------------------------------------------------------
    def evaluate_point(self, point):
        """Run the full pipeline for one :class:`DesignPoint`."""
        program = self.program(point.app)
        architecture = self.architecture(point)
        result = self.allocate(program.bsbs, architecture.total_area,
                               policy=point.policy)
        evaluation = self.evaluate(program.bsbs, result.allocation,
                                   architecture,
                                   area_quanta=point.quanta)
        return PointResult(
            point=point,
            allocation=evaluation.allocation,
            speedup=evaluation.speedup,
            datapath_area=evaluation.datapath_area,
            energy=evaluation.energy,
            hw_names=tuple(evaluation.partition.hw_names),
            evaluation=evaluation,
        )

    def evaluate_point_safe(self, point):
        """:meth:`evaluate_point` with the exception captured.

        Returns a failed :class:`PointResult` (``error`` set,
        ``allocation`` ``None``) instead of raising, so batch callers —
        and the long-lived exploration service — can keep going when
        one point names an unknown app or an infeasible configuration.
        ``KeyboardInterrupt``/``SystemExit`` still propagate.
        """
        try:
            return self.evaluate_point(point)
        except Exception as exc:
            return failed_point_result(point, exc)

    def explore(self, points, workers=1, on_error="raise",
                on_result=None):
        """Evaluate many design points, optionally across processes.

        Results come back in input order.  With ``workers`` > 1 the
        points fan out over a ``multiprocessing`` pool; every worker
        process holds one session whose cache is shared across all the
        points that worker receives (per-process caches — the workers
        do not share memory with each other or with this session,
        although a session opened with ``cache_dir`` shares its
        persistent store with the workers).  Each worker ships its
        hit/miss accounting back with its results, and the merged
        counters land in ``self.stats`` — parallel sweeps report the
        same real numbers a serial run would.

        Failure contract (identical for the serial and parallel
        paths):

        * ``on_error="capture"`` — a point that raises yields a
          :class:`PointResult` with ``error`` set; every other point
          still completes and its store entries persist.
        * ``on_error="raise"`` (default) — completed work is flushed to
          the store *first*, then the failure surfaces: the serial
          path re-raises the original exception, the parallel path
          raises :class:`ReproError` naming the first failed point (the
          original exception died in a worker process).

        ``on_result``, when given, is called with each
        :class:`PointResult` as it completes — input order serially,
        chunk-completion order in parallel — including captured
        failures.  A ``KeyboardInterrupt`` mid-sweep terminates the
        pool cleanly and still flushes everything the parent already
        absorbed.
        """
        if on_error not in ("raise", "capture"):
            raise ReproError("on_error must be 'raise' or 'capture', "
                             "got %r" % (on_error,))
        points = [self._coerce_point(point) for point in points]
        if workers <= 1 or len(points) <= 1:
            return self._explore_serial(points, on_error, on_result)
        return self._explore_parallel(points, workers, on_error,
                                      on_result)

    def _explore_serial(self, points, on_error, on_result):
        results = []
        try:
            for point in points:
                if on_error == "capture":
                    result = self.evaluate_point_safe(point)
                else:
                    # The finally-flush below persists every completed
                    # point's store deltas before the raise surfaces.
                    result = self.evaluate_point(point)
                results.append(result)
                if on_result is not None:
                    on_result(result)
        finally:
            self.save_store()  # same persistence contract as parallel
        return results

    def _explore_parallel(self, points, workers, on_error, on_result):
        processes = min(workers, len(points))
        # Contiguous chunks, one pool task each: a worker evaluates a
        # whole chunk and ships the chunk's new store entries back as
        # one delta (workers never write shards — the parent is the
        # store's only writer), so persistence costs one export per
        # chunk instead of one per point.
        chunksize = max(1, (len(points) + processes - 1) // processes)
        chunks = [points[start:start + chunksize]
                  for start in range(0, len(points), chunksize)]
        cache_dir = None if self.store is None else self.store.root
        # Spill first so workers hydrate whatever this session already
        # computed instead of starting from the store's last state.
        self.save_store()
        slots = [None] * len(chunks)
        pool = multiprocessing.Pool(processes=processes,
                                    initializer=_worker_init,
                                    initargs=(self.library, cache_dir))
        try:
            # imap_unordered: each chunk's results, accounting and
            # store delta are absorbed the moment the chunk finishes,
            # so an interrupt (or a fail-fast raise) loses only the
            # chunks still in flight — never completed work.
            outcomes = pool.imap_unordered(_worker_point_chunk,
                                           list(enumerate(chunks)))
            for index, chunk_results, stats_delta, store_delta \
                    in outcomes:
                self.stats.merge(stats_delta)
                if self.store is not None and store_delta:
                    self.store.absorb_delta(store_delta)
                slots[index] = chunk_results
                if on_result is not None:
                    for result in chunk_results:
                        on_result(result)
            pool.close()
            pool.join()
        except BaseException:
            # KeyboardInterrupt (or a broken pool): kill the workers
            # quietly instead of leaving them to die noisily at
            # interpreter teardown; the finally-flush keeps whatever
            # already came back.
            pool.terminate()
            pool.join()
            raise
        finally:
            self.save_store()
        results = [result for chunk_results in slots
                   for result in chunk_results]
        if on_error == "raise":
            failed = next((result for result in results
                           if result.error is not None), None)
            if failed is not None:
                raise ReproError("design point %r failed: %s"
                                 % (failed.point, failed.error))
        return results

    def explore_grid(self, apps, areas=(None,), policies=(None,),
                     quanta=(150,), workers=1):
        """Explore the cross product of the given scenario axes.

        Points are generated in ``apps`` (slowest) x ``areas`` x
        ``policies`` x ``quanta`` (fastest) order.
        """
        points = [DesignPoint(app=app, area=area, policy=policy,
                              quanta=resolution)
                  for app in apps
                  for area in areas
                  for policy in policies
                  for resolution in quanta]
        return self.explore(points, workers=workers)

    @staticmethod
    def _coerce_point(point):
        if isinstance(point, DesignPoint):
            return point
        if isinstance(point, str):
            return DesignPoint(app=point)
        raise ReproError("explore() expects DesignPoint instances or "
                         "app names, got %r" % (point,))

    def __repr__(self):
        return "Session(library=%r, programs=%d, %r)" % (
            self.library.name, len(self._programs), self.cache)


def explore_grid(apps, areas=(None,), policies=(None,), quanta=(150,),
                 workers=1, library=None, cache_dir=None):
    """One-shot :meth:`Session.explore_grid` on a private session.

    ``explore`` persists to the ``cache_dir`` store itself, so no
    explicit save is needed here (or by any other explore caller).
    """
    return Session(library=library, cache_dir=cache_dir).explore_grid(
        apps, areas=areas, policies=policies, quanta=quanta,
        workers=workers)


# ----------------------------------------------------------------------
# Worker-process plumbing for Session.explore
# ----------------------------------------------------------------------
_WORKER_SESSION = None


def _worker_init(library, cache_dir=None):
    global _WORKER_SESSION
    _WORKER_SESSION = Session(library=library, cache_dir=cache_dir)


def _worker_point_chunk(task):
    """Evaluate one indexed chunk of points; ships results + accounting.

    The worker's cache never leaves its process, but its accounting
    does: the parent merges the per-chunk hit/miss delta so
    ``session.stats`` reflects the pool's real cache behaviour.  With a
    persistent store, the chunk's *new* cache entries travel back too
    (stable-encoded), so the parent — the store's one writer — spills
    everything in a single final flush instead of every worker racing
    shard rewrites of its own.

    Every point is evaluated with its error *captured*: a bad point
    must not abort the chunk (which would discard its siblings' results
    and store deltas), so failures travel back as
    :class:`~repro.engine.design_point.PointError` payloads and the
    parent decides whether to raise.
    """
    index, points = task
    session = _WORKER_SESSION
    before = session.stats.snapshot()
    results = [session.evaluate_point_safe(point) for point in points]
    store_delta = None if session.store is None \
        else session.store.export_delta(session.cache)
    from repro.engine.cache import CacheStats

    return (index, results,
            CacheStats.delta(before, session.stats.snapshot()),
            store_delta)
