"""Target architecture and per-BSB cost models for partitioning."""

from dataclasses import dataclass, field

from repro.core.eca import controller_area_for_states
from repro.engine.cache import EvalCache
from repro.errors import PartitionError, ResourceError
from repro.hwlib.library import ResourceLibrary
from repro.sched.list_scheduler import list_schedule
from repro.swmodel.estimator import bsb_software_time
from repro.swmodel.processor import Processor, default_processor


@dataclass(frozen=True)
class TargetArchitecture:
    """The co-processor target: one CPU, one ASIC, shared memory.

    Attributes:
        processor: The software side's cycle model.
        library: The hardware resource library.
        total_area: Total ASIC area (data-path + controllers), gate
            equivalents.
        comm_cycles_per_word: Cycles to move one 32-bit word across the
            memory-mapped HW/SW interface.
        hw_cycle_ratio: Duration of one ASIC control step in CPU cycles
            (1.0 = same clock).
    """

    processor: Processor = field(default_factory=default_processor)
    library: ResourceLibrary = None
    total_area: float = 20000.0
    comm_cycles_per_word: float = 4.0
    hw_cycle_ratio: float = 1.0

    def __post_init__(self):
        if self.library is None:
            raise PartitionError("TargetArchitecture requires a library")
        if self.total_area <= 0:
            raise PartitionError("total area must be positive")
        if self.comm_cycles_per_word < 0:
            raise PartitionError("communication cost must be >= 0")
        if self.hw_cycle_ratio <= 0:
            raise PartitionError("hw cycle ratio must be positive")


@dataclass(frozen=True)
class BSBCost:
    """Partitioning-relevant costs of one BSB under a fixed allocation.

    Attributes:
        name: BSB name.
        profile_count: Executions per application run.
        sw_time: Total software cycles over the run.
        hw_time: Total hardware cycles over the run (``None`` when the
            allocation cannot execute the BSB, i.e. some required unit
            has count zero — the BSB must then stay in software).
        controller_area: Area of the BSB's controller if moved to
            hardware.  PACE uses the *actual* (list-schedule) state
            count, which is what makes the optimistic ECA of the
            allocator visible in section 5.1.
        reads: Live-in variable names (for boundary communication).
        writes: Live-out variable names.
    """

    name: str
    profile_count: int
    sw_time: float
    hw_time: float
    controller_area: float
    reads: frozenset
    writes: frozenset

    @property
    def movable(self):
        return self.hw_time is not None

    @property
    def gain(self):
        """Raw cycles saved by moving this BSB alone (ignoring comm)."""
        if not self.movable:
            return 0.0
        return self.sw_time - self.hw_time


def _ops_per_resource(bsb, library, cache=None):
    """Designated-resource demand of one BSB, as a sorted (name, need)
    tuple — the pre-ordered form lets the hot signature path skip a
    dict build and a sort per evaluation."""
    if isinstance(cache, EvalCache):
        key = (bsb.uid, cache.pin(library))
        ops = cache.ops.get(key)
        if ops is not None:
            return ops
    counts = {}
    for optype, op_count in bsb.dfg.count_by_type().items():
        name = library.resource_for(optype).name
        counts[name] = counts.get(name, 0) + op_count
    ops = tuple(sorted(counts.items()))
    if isinstance(cache, EvalCache):
        cache.ops[key] = ops
    return ops


def _relevant_counts(bsb, allocation, library, cache=None):
    """The allocation as seen by one BSB, capped at useful counts.

    A BSB with three multiplications schedules identically under four or
    forty multipliers; capping the counts makes the cache key collapse
    across allocations that differ only in irrelevant resources.
    """
    get = allocation.get
    return tuple((name, min(get(name, 0), need))
                 for name, need in _ops_per_resource(bsb, library,
                                                     cache=cache))


def _capability(bsb, library, cache=None):
    """(capable resource names, per-optype capable names) of one BSB.

    Used by the module-selection paths: which library units can execute
    any of the BSB's operation types at all.
    """
    if isinstance(cache, EvalCache):
        key = (bsb.uid, cache.pin(library))
        capability = cache.capable.get(key)
        if capability is not None:
            return capability
    per_type = {optype: frozenset(resource.name for resource
                                  in library.candidates_for(optype))
                for optype in bsb.dfg.op_types()}
    names = frozenset().union(*per_type.values()) if per_type \
        else frozenset()
    capability = (names, per_type)
    if isinstance(cache, EvalCache):
        cache.capable[key] = capability
    return capability


def hardware_steps(bsb, allocation, architecture, cache=None):
    """List-schedule length of a BSB under ``allocation``, or ``None``.

    ``None`` means the allocation lacks a required unit and the BSB
    cannot execute in hardware.  An
    :class:`~repro.engine.cache.EvalCache` memoises schedule lengths
    across the many allocations an exhaustive search evaluates; without
    one every call schedules afresh.

    Allocations where some type is covered only by a non-designated
    unit (module-selection mixes) are scheduled with the heterogeneous
    scheduler; the common homogeneous case keeps its fast path.
    """
    library = architecture.library
    if not len(bsb.dfg):
        return 0
    counts = _relevant_counts(bsb, allocation, library, cache=cache)
    if all(count >= 1 for _, count in counts):
        if cache is None:
            return list_schedule(bsb.dfg, dict(counts), library).length
        # The long-lived EvalCache serves sessions that may evaluate
        # under several libraries, so its keys carry the library.
        key = (bsb.uid, counts, cache.pin(library))
        if key in cache.sched:
            return cache.sched[key]
        priority, latencies = _schedule_inputs(bsb, library, cache)
        steps = list_schedule(bsb.dfg, dict(counts), library,
                              priority=priority,
                              latencies=latencies).length
        cache.sched[key] = steps
        return steps
    return _hetero_hardware_steps(bsb, allocation, library, cache)


def _schedule_inputs(bsb, library, cache):
    """(priority map, latency table) for list-scheduling one BSB.

    Derived from the memoised ASAP/ALAP intervals (the ALAP start *is*
    the list scheduler's priority), so the many allocations that
    re-schedule the same DFG pay the graph preprocessing once.
    """
    key = (bsb.uid, cache.pin(library))
    inputs = cache.sched_inputs.get(key)
    if inputs is None:
        from repro.sched.mobility import asap_alap_intervals
        from repro.sched.schedule import latency_table

        intervals = asap_alap_intervals(bsb.dfg, library=library,
                                        cache=cache.intervals,
                                        cache_key=key)
        priority = {uid: (interval[1], uid)
                    for uid, interval in intervals.items()}
        inputs = (priority, latency_table(bsb.dfg, library=library))
        cache.sched_inputs[key] = inputs
    return inputs


def _hetero_relevant(bsb, allocation, library, cache=None):
    """Allocation restricted to units capable of the BSB's types, or
    ``None`` when some type has no allocated capable unit."""
    if isinstance(cache, EvalCache):
        capable, per_type = _capability(bsb, library, cache=cache)
        for names in per_type.values():
            if not any(allocation.get(name, 0) for name in names):
                return None
        return tuple(sorted((name, count)
                            for name, count in allocation.items()
                            if count and name in capable))
    from repro.core.furo import allocated_units_for

    for optype in bsb.dfg.op_types():
        if allocated_units_for(optype, allocation, library) < 1:
            return None
    return tuple(sorted(
        (name, count) for name, count in allocation.items()
        if count and any(library.get(name).executes(optype)
                         for optype in bsb.dfg.op_types())))


def _hetero_hardware_steps(bsb, allocation, library, cache):
    """Schedule length under a module-selection mix, or ``None``."""
    from repro.sched.hetero_scheduler import hetero_list_schedule

    relevant = _hetero_relevant(bsb, allocation, library, cache=cache)
    if relevant is None:
        return None
    if cache is None:
        return hetero_list_schedule(bsb.dfg, dict(relevant), library).length
    key = (bsb.uid, "hetero", relevant, cache.pin(library))
    if key not in cache.sched:
        cache.sched[key] = hetero_list_schedule(bsb.dfg, dict(relevant),
                                                library).length
    return cache.sched[key]


def _arch_cost_key(architecture, cache):
    """The architecture knobs a BSBCost depends on, as one key part."""
    return (cache.pin(architecture.library),
            cache.processor_token(architecture.processor),
            architecture.hw_cycle_ratio)


def _software_time(bsb, processor, cache=None):
    """Memoised :func:`bsb_software_time` (allocation-independent)."""
    if isinstance(cache, EvalCache):
        key = (bsb.uid, cache.processor_token(processor))
        if key not in cache.sw_times:
            cache.sw_times[key] = bsb_software_time(bsb, processor)
        return cache.sw_times[key]
    return bsb_software_time(bsb, processor)


def _bsb_energy_pair(bsb, architecture, cache=None):
    """(software, hardware) energy of one BSB over the whole run.

    The software side prices the serial cycle count at the processor's
    per-cycle energy; the hardware side prices every operation at its
    *designated* unit's per-operation energy (module-selection mixes
    are deliberately priced at the designated unit too — the energy
    model is a partition-level estimate, not a binding).  Both sides
    are allocation-independent, so one pair per BSB covers the whole
    search space.  The hardware side is ``None`` when the library has
    no designated unit for some operation type — such a BSB can never
    move to hardware anyway.
    """
    processor = architecture.processor
    sw_energy = (_software_time(bsb, processor, cache=cache)
                 * processor.energy_per_cycle)
    library = architecture.library
    try:
        ops = _ops_per_resource(bsb, library, cache=cache)
    except ResourceError:
        return (sw_energy, None)
    hw_energy = bsb.profile_count * sum(
        op_count * library.energy_of(name) for name, op_count in ops)
    return (sw_energy, hw_energy)


def bsb_energy_pairs(bsbs, architecture, cache=None):
    """Per-BSB (software, hardware) energy pairs, in array order.

    Memoised per (BSB array, library, processor) in the cache's
    ``energies`` stage — outside the hit/miss accounting, like the
    branch-and-bound ``bounds`` stage, because the pairs are trivially
    cheap and charging lookups would shift every reported hit rate.
    """
    if isinstance(cache, EvalCache):
        key = (cache.uid_key(bsbs), cache.pin(architecture.library),
               cache.processor_token(architecture.processor))
        pairs = cache.energies.get(key)
        if pairs is None:
            pairs = tuple(_bsb_energy_pair(bsb, architecture, cache=cache)
                          for bsb in bsbs)
            cache.energies[key] = pairs
        return pairs
    return tuple(_bsb_energy_pair(bsb, architecture, cache=cache)
                 for bsb in bsbs)


def partition_energy(pairs, hw_sequences):
    """Total energy of one partition over per-BSB energy ``pairs``.

    Every BSB inside an inclusive ``(first, last)`` hardware sequence
    contributes its hardware energy; every other BSB its software
    energy.  A plain sum over the array, so the total is non-negative
    and additive over any grouping of the BSBs by construction.
    """
    in_hardware = set()
    for first, last in hw_sequences:
        in_hardware.update(range(first, last + 1))
    total = 0.0
    for index, (sw_energy, hw_energy) in enumerate(pairs):
        total += hw_energy if index in in_hardware else sw_energy
    return total


def bsb_cost(bsb, allocation, architecture, cache=None):
    """Compute the :class:`BSBCost` of one BSB under ``allocation``.

    Not memoised as a whole: ``cache`` (an
    :class:`~repro.engine.cache.EvalCache` or ``None``) only serves the
    schedule-length and software-time stages.  :func:`bsb_costs` is
    what memoises cost objects by their allocation signature.
    """
    sw_time = _software_time(bsb, architecture.processor, cache=cache)
    steps = hardware_steps(bsb, allocation, architecture, cache=cache)
    if steps is None:
        hw_time = None
        controller_area = float("inf")
    else:
        hw_time = bsb.profile_count * steps * architecture.hw_cycle_ratio
        controller_area = controller_area_for_states(
            max(1, steps), technology=architecture.library.technology)
    return BSBCost(
        name=bsb.name,
        profile_count=bsb.profile_count,
        sw_time=sw_time,
        hw_time=hw_time,
        controller_area=controller_area,
        reads=frozenset(bsb.reads),
        writes=frozenset(bsb.writes),
    )


def _cost_plan(bsbs, library, cache):
    """Group a BSB array by identical cost-signature functions.

    A BSB's signature depends only on its designated-resource demand
    (homogeneous case) or its capable-resource set (module-selection
    case); BSBs sharing both compute identical signatures under every
    allocation, so one evaluation needs each distinct signature once.
    Returns (per-BSB group indices, group identity list).
    """
    plan_key = (cache.uid_key(bsbs), cache.pin(library))
    plan = cache.cost_plans.get(plan_key)
    if plan is not None:
        return plan
    group_index = {}
    group_list = []
    members = []
    for bsb in bsbs:
        if not len(bsb.dfg):
            identity = None
        else:
            ops = _ops_per_resource(bsb, library, cache=cache)
            capable, per_type = _capability(bsb, library, cache=cache)
            type_sets = tuple(names for _, names in sorted(
                per_type.items(), key=lambda item: item[0].value))
            identity = (ops, capable, type_sets)
        index = group_index.get(identity)
        if index is None:
            index = len(group_list)
            group_index[identity] = index
            group_list.append(identity)
        members.append(index)
    plan = (members, group_list)
    cache.cost_plans[plan_key] = plan
    return plan


def _cached_bsb_costs(bsbs, allocation, architecture, cache):
    """Memoised cost array: one signature per group, one get per BSB.

    A signature is the slice of ``allocation`` a BSB's cost actually
    depends on; two allocations with equal signatures yield
    bit-identical BSBCosts, which is what makes the per-BSB cost memo
    exact.
    """
    library = architecture.library
    members, group_list = _cost_plan(bsbs, library, cache)
    arch_key = _arch_cost_key(architecture, cache)
    get = allocation.get
    signatures = []
    for identity in group_list:
        if identity is None:
            signatures.append(("empty",))
            continue
        ops, capable, type_sets = identity
        counts = tuple((name, min(get(name, 0), need))
                       for name, need in ops)
        if all(count >= 1 for _, count in counts):
            signatures.append(("homo", counts))
        elif all(any(get(name, 0) for name in names)
                 for names in type_sets):
            signatures.append(("hetero", tuple(sorted(
                (name, count) for name, count in allocation.items()
                if count and name in capable))))
        else:
            # Unexecutable under this allocation: every such allocation
            # shares one signature (and thus one cost object), exactly
            # like _hetero_relevant's None case.
            signatures.append(("hetero", None))
    costs_memo = cache.costs
    hits = 0
    misses = 0
    result = []
    for bsb, index in zip(bsbs, members):
        key = (bsb.uid, signatures[index], arch_key)
        cost = costs_memo.get(key)
        if cost is None:
            misses += 1
            cost = bsb_cost(bsb, allocation, architecture, cache)
            costs_memo[key] = cost
        else:
            hits += 1
        result.append(cost)
    stats = cache.stats
    if hits:
        stats.hits["cost"] = stats.hits.get("cost", 0) + hits
    if misses:
        stats.misses["cost"] = stats.misses.get("cost", 0) + misses
    return result


def bsb_costs(bsbs, allocation, architecture, cache=None):
    """Per-BSB costs for the whole application, in array order."""
    if cache is None:
        return [bsb_cost(bsb, allocation, architecture) for bsb in bsbs]
    return _cached_bsb_costs(bsbs, allocation, architecture, cache)
