"""Evaluate an allocation: build BSB costs, run PACE, report the result.

This is the paper's evaluation loop (section 5): the quality of an
allocation *is* the speed-up PACE achieves with it.  Both the heuristic
allocation and every allocation visited by the exhaustive search go
through this same function, so comparisons are consistent.

With an :class:`~repro.engine.cache.EvalCache` (what the engine's
:class:`~repro.engine.session.Session` passes), three levels memoise:

* whole evaluations, keyed by (BSBs, architecture, allocation, quanta);
* per-BSB cost objects (see :mod:`repro.partition.model`);
* PACE :class:`~repro.partition.pace.SequenceTable` instances, keyed by
  the identity of the cost array — allocations that differ only in
  resources no BSB can use share one table and only re-run the DP.
"""

from dataclasses import dataclass

from repro.core.rmap import RMap
from repro.errors import PartitionError
from repro.partition.model import bsb_costs, bsb_energy_pairs, \
    partition_energy
from repro.partition.pace import SequenceTable, pace_partition, \
    PartitionResult


@dataclass
class AllocationEvaluation:
    """An allocation together with its PACE partitioning outcome.

    Attributes:
        allocation: The evaluated allocation.
        datapath_area: Data-path area the allocation consumes.
        available_controller_area: Area left for controllers.
        partition: The :class:`PartitionResult` PACE produced.
        overhead_area: Interconnect/storage estimate charged (zero
            unless an overhead model was supplied).
        energy: Total energy of the partitioned implementation — each
            moved BSB priced at its hardware energy, every other at
            its software energy (see
            :func:`~repro.partition.model.partition_energy`).
        datapath_fraction: Data-path share of the ASIC area actually
            used (data-path + controllers), the paper's "Size" column.
    """

    allocation: RMap
    datapath_area: float
    available_controller_area: float
    partition: PartitionResult
    overhead_area: float = 0.0
    energy: float = 0.0

    @property
    def speedup(self):
        return self.partition.speedup

    @property
    def datapath_fraction(self):
        used = self.datapath_area + self.partition.controller_area_used
        if used <= 0:
            return 0.0
        return self.datapath_area / used


def _evaluation_key(bsbs, allocation, architecture, area_quanta,
                    overhead_model, cache):
    return (cache.uid_key(bsbs),
            cache.pin(architecture.library),
            cache.processor_token(architecture.processor),
            architecture.total_area,
            architecture.comm_cycles_per_word,
            architecture.hw_cycle_ratio,
            allocation,
            area_quanta,
            None if overhead_model is None else cache.pin(overhead_model))


def evaluate_allocation(bsbs, allocation, architecture, area_quanta=400,
                        cache=None, overhead_model=None,
                        remember=True):
    """Partition ``bsbs`` under ``allocation`` and return the evaluation.

    Args:
        bsbs: The application's leaf-BSB array.
        allocation: Data-path allocation (RMap or dict).
        architecture: The target architecture (defines the total area).
        area_quanta: Resolution of PACE's area axis.
        cache: Optional :class:`~repro.engine.cache.EvalCache` shared
            across evaluations: memoises schedule lengths, cost arrays,
            PACE sequence tables and whole evaluations.  ``None``
            computes everything afresh — the uncached reference.
        overhead_model: Optional
            :class:`~repro.hwlib.overheads.OverheadModel`: charges the
            interconnect/storage estimate of the future-work extension
            against the area left for controllers.
        remember: Store the whole evaluation (and its PACE result) in
            the cache.  Enumeration-style searches that visit each
            allocation exactly once pass ``False`` so the memo does not
            grow by one entry per candidate for ~zero hits; the
            schedule/cost/table collapsing — where the actual reuse is
            — still applies, and lookups still hit entries remembered
            by other callers.  The intermediate value ``"partitions"``
            remembers PACE results but not whole evaluations: what a
            search backed by a persistent store wants, since the DP
            runs are exactly what a warm restart can skip.

    Note on resolutions: ``area_quanta`` defaults differ deliberately
    across entry points — 400 here (one-off evaluations favour
    fidelity), 200 in :func:`~repro.core.exhaustive
    .exhaustive_best_allocation` and 150 in the engine's
    :class:`~repro.engine.design_point.DesignPoint` (searches trade
    resolution for throughput over many candidates).  Results are only
    comparable across calls made at one resolution.
    """
    allocation = RMap._coerce(allocation)
    if cache is not None:
        key = _evaluation_key(bsbs, allocation, architecture, area_quanta,
                              overhead_model, cache)
        evaluation = cache.evals.get(key)
        if evaluation is not None:
            cache.stats.hit("eval")
            return evaluation
        cache.stats.miss("eval")

    datapath_area = allocation.area(architecture.library)
    if datapath_area > architecture.total_area:
        raise PartitionError(
            "allocation area %.1f exceeds total ASIC area %.1f"
            % (datapath_area, architecture.total_area))
    overhead_area = 0.0
    if overhead_model is not None:
        from repro.hwlib.overheads import total_overhead_area

        overhead_area = total_overhead_area(
            allocation, bsbs, architecture.library, model=overhead_model)
    # Overheads may leave no controller room at all — that is a valid
    # (terrible) design point, not an error: PACE then moves nothing.
    available = architecture.total_area - datapath_area - overhead_area
    costs = bsb_costs(bsbs, allocation, architecture, cache=cache)

    sequence_table = None
    if cache is not None:
        # Cost objects are memoised (hence pinned) by bsb_costs, so
        # their ids are a stable, cheap identity for the whole array.
        table_key = (tuple(map(id, costs)),
                     architecture.comm_cycles_per_word)
        sequence_table = cache.tables.get(table_key)
        if sequence_table is None:
            cache.stats.miss("table")
            sequence_table = SequenceTable(costs, architecture)
            cache.tables[table_key] = sequence_table
        else:
            cache.stats.hit("table")

    partition = None
    partition_key = None
    if cache is not None:
        # A PartitionResult depends only on (costs, communication model,
        # available area, quanta) — the table key already encodes the
        # first two, so allocations that differ only in resources no BSB
        # uses while their data-path areas coincide share one DP run.
        # Keyed by the cost-id tuple rather than the table's own id so a
        # persistent store can re-key the entry by cost content hashes.
        partition_key = (table_key, available, area_quanta)
        partition = cache.partitions.get(partition_key)
        if partition is None:
            cache.stats.miss("partition")
        else:
            cache.stats.hit("partition")
    if partition is None:
        partition = pace_partition(costs, architecture, available,
                                   area_quanta=area_quanta,
                                   sequence_table=sequence_table)
        if cache is not None and remember:
            cache.partitions[partition_key] = partition
    evaluation = AllocationEvaluation(
        allocation=allocation,
        datapath_area=datapath_area,
        available_controller_area=available,
        partition=partition,
        overhead_area=overhead_area,
        energy=partition_energy(
            bsb_energy_pairs(bsbs, architecture, cache=cache),
            partition.hw_sequences),
    )
    if cache is not None and remember is True:
        cache.evals[key] = evaluation
    return evaluation

