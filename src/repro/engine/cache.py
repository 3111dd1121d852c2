"""Session-scoped memo store for the allocate -> PACE -> evaluate pipeline.

Every experiment driver used to re-run the full compile -> schedule ->
allocate -> partition -> evaluate chain per candidate, recomputing
schedules, software times, ECA estimates, BSB cost arrays and PACE
sequence tables that depend only on a small signature of their inputs.
:class:`EvalCache` is the one store those stages share: each stage keeps
its own dict keyed by the stage's *true* inputs (BSB uid, the
allocation counts the BSB can actually use, the architecture knobs the
quantity depends on), so a hit is guaranteed to return a value
bit-identical to recomputation.

The store is deliberately dumb — plain dicts plus hit/miss accounting.
The stage logic that decides what the true inputs are lives next to
each stage (``partition/model.py``, ``partition/evaluate.py``,
``core/allocator.py`` ...), which keeps the dependency arrow pointing
from the pipeline stages to this leaf module and avoids import cycles
with :mod:`repro.engine.session` sitting on top of everything.

Object-identity keys (``id(library)`` etc.) are made safe by
:meth:`EvalCache.pin`, which keeps a strong reference to every object
whose id participates in a key, so the id can never be recycled while
the cache lives.
"""


class CacheStats:
    """Per-stage hit/miss counters of an :class:`EvalCache`."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = {}
        self.misses = {}

    def hit(self, stage):
        self.hits[stage] = self.hits.get(stage, 0) + 1

    def miss(self, stage):
        self.misses[stage] = self.misses.get(stage, 0) + 1

    def hit_count(self, stage=None):
        if stage is not None:
            return self.hits.get(stage, 0)
        return sum(self.hits.values())

    def miss_count(self, stage=None):
        if stage is not None:
            return self.misses.get(stage, 0)
        return sum(self.misses.values())

    def hit_rate(self, stage):
        """Hits / lookups for one stage; 0.0 before any lookup."""
        lookups = self.hit_count(stage) + self.miss_count(stage)
        if not lookups:
            return 0.0
        return self.hit_count(stage) / lookups

    def stages(self):
        """Stage names seen so far, sorted."""
        return sorted(set(self.hits) | set(self.misses))

    def snapshot(self):
        """Mapping stage -> (hits, misses), for assertions and reports."""
        return {stage: (self.hit_count(stage), self.miss_count(stage))
                for stage in self.stages()}

    def merge(self, snapshot):
        """Add another accounting's ``snapshot()`` into this one.

        The batch APIs fan work out over processes whose caches never
        come back; their counters do, and merging them here is what
        keeps ``session.stats`` honest for parallel runs.
        """
        for stage, (hits, misses) in snapshot.items():
            if hits:
                self.hits[stage] = self.hits.get(stage, 0) + hits
            if misses:
                self.misses[stage] = self.misses.get(stage, 0) + misses
        return self

    @staticmethod
    def delta(before, after):
        """Per-stage (hits, misses) growth between two snapshots."""
        result = {}
        for stage, (hits, misses) in after.items():
            old_hits, old_misses = before.get(stage, (0, 0))
            grown = (hits - old_hits, misses - old_misses)
            if grown != (0, 0):
                result[stage] = grown
        return result

    def overall_hit_rate(self):
        """Hits / lookups across every stage; 0.0 before any lookup."""
        lookups = self.hit_count() + self.miss_count()
        if not lookups:
            return 0.0
        return self.hit_count() / lookups

    def summary(self):
        """One human-readable line per stage."""
        lines = []
        for stage in self.stages():
            lines.append("%-12s %6d hits  %6d misses  (%.0f%% hit rate)"
                         % (stage, self.hit_count(stage),
                            self.miss_count(stage),
                            100.0 * self.hit_rate(stage)))
        return "\n".join(lines)

    def __repr__(self):
        return "CacheStats(hits=%d, misses=%d)" % (self.hit_count(),
                                                   self.miss_count())


class EvalCache:
    """Shared memo dicts for every stage of the exploration pipeline.

    Attributes (all plain dicts, keyed as noted):
        sched: (bsb uid, relevant counts, library id) -> list-schedule
            length; module-selection mixes key on (bsb uid, "hetero",
            relevant units, library id).
        ops: (bsb uid, library id) -> sorted (resource name, op count)
            tuple of the BSB's designated-resource demand.
        capable: (bsb uid, library id) -> (capable names, per-type names)
            for module-selection mixes.
        sw_times: (bsb uid, processor id) -> software cycles.
        costs: (bsb uid, allocation signature, arch key) -> BSBCost.
        intervals: (bsb uid, library id) -> ASAP/ALAP start intervals
            (unit default latency; callers with a non-default latency
            must extend their cache_key accordingly).
        furo: (bsb uid, library id) -> FURO value mapping.
        urgency: (bsb uids, library id) -> UrgencyState.
        eca: (bsb uid, library id, technology id) -> estimated area.
        restrictions: (bsb uids, library id) -> restriction RMap.
        tables: (cost ids, comm cost) -> SequenceTable.
        partitions: ((cost ids, comm cost), available area, quanta) ->
            PartitionResult — distinct allocations whose cost arrays and
            available controller areas coincide share one PACE DP run.
        evals: full-evaluation key -> AllocationEvaluation.
        allocs: Algorithm 1 memo used by the engine Session.
        sched_inputs: (bsb uid, library id) -> (priority map, latency
            table) handed to the list scheduler so repeated schedules
            of one DFG skip the ALAP and latency preprocessing.
        cost_plans: (bsb uids, library id) -> the grouping of a BSB
            array by identical cost-signature functions, so one
            evaluation computes each distinct signature once instead of
            once per BSB.
        bounds: (bsb uid, library id, capped effective counts) ->
            (schedule-length floor, controller-area floor) used by the
            branch-and-bound exhaustive search; process-local (never
            persisted — bounds are cheap to recompute and admissibility
            is easier to audit without a disk round-trip).
        energies: (bsb uids, library id, processor token) -> tuple of
            per-BSB (software energy, hardware energy) pairs; process
            -local like ``bounds`` (two multiplications per BSB to
            rebuild) and deliberately outside the hit/miss accounting.
        stats: the :class:`CacheStats` counters.
    """

    __slots__ = ("sched", "ops", "capable", "sw_times", "costs",
                 "intervals", "furo", "urgency", "eca", "restrictions",
                 "tables", "partitions", "evals", "allocs", "sched_inputs",
                 "cost_plans", "bounds", "energies", "stats", "_pins",
                 "_processor_tokens", "_uid_keys")

    def __init__(self):
        self.sched = {}
        self.ops = {}
        self.capable = {}
        self.sw_times = {}
        self.costs = {}
        self.intervals = {}
        self.furo = {}
        self.urgency = {}
        self.eca = {}
        self.restrictions = {}
        self.tables = {}
        self.partitions = {}
        self.evals = {}
        self.allocs = {}
        self.sched_inputs = {}
        self.cost_plans = {}
        self.bounds = {}
        self.energies = {}
        self.stats = CacheStats()
        self._pins = {}
        self._processor_tokens = {}
        self._uid_keys = {}

    def uid_key(self, bsbs):
        """The uid tuple of a BSB array, memoised per list identity.

        Evaluation keys embed the whole array's uids; exhaustive
        searches look tens of thousands of keys up against the same
        list object, so the tuple is built once per list (which is
        pinned — callers must not mutate a BSB list after passing it
        into cached evaluations).
        """
        token = id(bsbs)
        key = self._uid_keys.get(token)
        if key is None:
            self._pins[token] = bsbs
            key = tuple(bsb.uid for bsb in bsbs)
            self._uid_keys[token] = key
        return key

    def processor_token(self, processor):
        """A value-based key token for a processor model.

        Architectures built independently carry *equal but distinct*
        default processors (the dataclass default_factory), and the
        cycle-table dict makes them unhashable.  Tokenising by value —
        memoised per object identity so the table is only walked once —
        lets evaluations under equal processors share cache entries.
        """
        token = self._processor_tokens.get(id(processor))
        if token is None:
            token = (processor.name, processor.sequential_overhead,
                     processor.energy_per_cycle,
                     tuple(sorted((optype.value, cycles) for optype, cycles
                                  in processor.cycle_table.items())))
            self._pins[id(processor)] = processor
            self._processor_tokens[id(processor)] = token
        return token

    def pin(self, obj):
        """Return ``id(obj)`` for use in a key, keeping ``obj`` alive.

        Without the strong reference a garbage-collected library or
        processor could hand its id to a different object and alias an
        unrelated cache entry.
        """
        token = id(obj)
        if token not in self._pins:
            self._pins[token] = obj
        return token

    def clear(self):
        """Drop every memoised value (stats and pins included)."""
        for name in ("sched", "ops", "capable", "sw_times", "costs",
                     "intervals", "furo", "urgency", "eca", "restrictions",
                     "tables", "partitions", "evals", "allocs",
                     "sched_inputs", "cost_plans", "bounds", "energies",
                     "_pins", "_processor_tokens", "_uid_keys"):
            getattr(self, name).clear()
        self.stats = CacheStats()

    def __repr__(self):
        entries = sum(len(getattr(self, name)) for name in
                      ("sched", "ops", "capable", "sw_times", "costs",
                       "intervals", "furo", "urgency", "eca",
                       "restrictions", "tables", "partitions", "evals",
                       "allocs"))
        return "EvalCache(entries=%d, %r)" % (entries, self.stats)
