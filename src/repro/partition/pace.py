"""The PACE dynamic-programming partitioner.

Problem statement (from Knudsen & Madsen [7]): the application is an
ordered array of BSBs.  Any set of *contiguous sequences* of BSBs may be
moved to hardware; a moved sequence

* saves the software-vs-hardware time difference of its BSBs,
* pays boundary communication on entry and exit (internal traffic is
  free — the incentive to move neighbours together), and
* consumes controller area for each moved BSB.

PACE finds the time-optimal selection under the available controller
area by dynamic programming over (BSB prefix, discretised area), the
classic knapsack-with-sequences formulation.  Area is discretised into
``area_quanta`` buckets (ceiling rounding, so the area constraint is
never violated).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError
from repro.partition.speedup import speedup_percent


@dataclass
class PartitionResult:
    """Outcome of one PACE run.

    Attributes:
        hw_sequences: List of (first_index, last_index) BSB index pairs
            (inclusive) moved to hardware, in array order.
        hw_names: Names of the BSBs moved to hardware.
        sw_time_all: Execution time of the all-software solution.
        hybrid_time: Execution time of the partitioned solution,
            including communication.
        speedup: Speed-up percentage, the paper's SU metric.
        controller_area_used: Controller area consumed by moved BSBs.
        available_area: Controller area that was available.
        hw_fraction: Fraction of *operations executed* that moved to HW
            (profile-weighted; the paper's HW/SW column).
    """

    hw_sequences: list = field(default_factory=list)
    hw_names: list = field(default_factory=list)
    sw_time_all: float = 0.0
    hybrid_time: float = 0.0
    speedup: float = 0.0
    controller_area_used: float = 0.0
    available_area: float = 0.0
    hw_fraction: float = 0.0


class SequenceTable:
    """Gain and area of feasible contiguous sequences, area-prunable.

    A sequence's gain and area do not depend on the controller area
    available — only on its BSB costs and the communication model.  The
    area constraint merely *prunes* which sequences are worth keeping.
    The table therefore builds entries lazily up to the largest area
    horizon ever queried and serves smaller areas by filtering, so
    incremental-area re-partitions — the exhaustive search evaluating
    many allocations whose cost arrays coincide while their data-path
    areas differ — reuse all sequence work done so far.

    Entries map ``(first, last)`` (inclusive, 0-based) to
    ``(gain_cycles, area)``; sequences containing an unmovable BSB are
    absent.  A table must only be queried with the exact ``costs`` and
    ``architecture`` it was built from.
    """

    __slots__ = ("_costs", "_architecture", "_entries", "_horizon", "_resume",
                 "_positive", "_fields", "sw_time_all", "total_static")

    def __init__(self, costs, architecture):
        # Built lazily by _prepare: a partition hit never pays for it.
        self._costs = list(costs)
        self._architecture = architecture
        self._entries = {}
        self._positive = []
        self._horizon = 0.0
        self._fields = None

    def _prepare(self):
        self.sw_time_all = sum(cost.sw_time for cost in self._costs)
        self.total_static = sum(_op_count(cost) for cost in self._costs)
        # Variable names become bits in first-seen order: int masks are
        # not GC-tracked, unlike sets held by thousands of cached tables.
        bits = {}

        def mask(names):
            value = 0
            for name in names:
                value |= bits.setdefault(name, 1 << len(bits))
            return value

        # Cost attributes unpacked once into parallel tuples: the build
        # loop below touches each many times per row and dataclass
        # attribute loads dominate it otherwise.
        self._fields = tuple(
            (cost.movable, cost.controller_area, mask(cost.reads),
             mask(cost.writes), cost.profile_count,
             (cost.sw_time - cost.hw_time) if cost.movable else 0.0)
            for cost in self._costs)
        # Per-first continuation: first -> (next last index, area, live-in
        # mask, defined mask, min profile count, gain sum) — the incremental
        # state from which appending one more BSB extends the row in O(1)
        # mask work instead of re-walking the whole segment.  A row
        # leaves the map once it hits an unmovable BSB or the array end.
        self._resume = {first: (first, 0.0, 0, 0, float("inf"), 0.0)
                        for first, cost in enumerate(self._costs)
                        if cost.movable}

    def __len__(self):
        return len(self._entries)

    @property
    def horizon(self):
        """Largest area the table has been built for so far."""
        return self._horizon

    def entries(self, available_area):
        """dict (first, last) -> (gain, area) of sequences fitting the area.

        Growing queries extend the table in place; shrinking queries
        prune the already-built entries without recomputation.  The
        returned dict is always a fresh copy the caller may mutate.
        """
        if available_area > self._horizon:
            self._extend(available_area)
        if available_area >= self._horizon:
            return dict(self._entries)
        return {key: value for key, value in self._entries.items()
                if value[1] <= available_area}

    def positive_entries(self, available_area):
        """(last, first, gain, area) of positive-gain sequences that fit.

        The flat-list form the DP consumes: only sequences that save
        cycles can ever be chosen, so the losers are filtered once at
        build time instead of on every partition call.  When the area
        covers the whole horizon this is the table's internal list, not
        a copy: the DP only reads it, and callers must not mutate it.
        """
        if available_area > self._horizon:
            self._extend(available_area)
        if available_area >= self._horizon:
            return self._positive
        return [entry for entry in self._positive
                if entry[3] <= available_area]

    def _extend(self, horizon):
        # The incremental state mirrors sequence_communication_time /
        # sequence_live_in / sequence_live_out exactly: live-in grows by
        # the reads not yet defined, the defined set (== live-out, every
        # written variable is conservatively transferred) by the writes,
        # the activation count is the running min profile count, and the
        # gain sum accumulates in the same left-to-right order as the
        # from-scratch sum() — so entries are bit-identical to a rebuild.
        if self._fields is None:
            self._prepare()
        fields = self._fields
        comm_per_word = self._architecture.comm_cycles_per_word
        count = len(fields)
        entries = self._entries
        positive = self._positive
        finished = []
        for first, state in self._resume.items():
            last, area, live_in, defined, min_profile, gain_sum = state
            while last < count:
                (movable, controller_area, reads, writes, profile,
                 time_delta) = fields[last]
                if not movable:
                    last = count
                    break
                if area + controller_area > horizon:
                    break
                area += controller_area
                live_in |= reads & ~defined
                defined |= writes
                if profile < min_profile:
                    min_profile = profile
                gain_sum += time_delta
                words = live_in.bit_count() + defined.bit_count()
                gain = gain_sum - comm_per_word * (words * min_profile)
                entries[(first, last)] = (gain, area)
                if gain > 0:
                    positive.append((last, first, gain, area))
                last += 1
            if last >= count:
                finished.append(first)
            else:
                self._resume[first] = (last, area, live_in, defined,
                                       min_profile, gain_sum)
        for first in finished:
            del self._resume[first]
        self._horizon = horizon


#: Relative slack tolerated when rounding an area up to whole quanta: a
#: sequence whose area is a float-noise epsilon above a quantum boundary
#: must not be charged a full extra quantum.  Areas reach the DP as sums
#: of float controller areas, so the noise scales with the magnitude of
#: the ratio — hence a relative, not absolute, tolerance.
_QUANTIZE_RTOL = 1e-9


def _quantize(area, quantum):
    """Quanta covering ``area``: ceiling with a relative tolerance."""
    ratio = area / quantum
    quanta = math.ceil(ratio - _QUANTIZE_RTOL * max(1.0, ratio))
    return max(1, quanta)


def _quantized_by_last(positive, quantum, count):
    """Group positive sequences by last BSB with their quanta charge.

    Returns per-last lists of (first, gain, needed), ascending first —
    the order the DP relaxes them in.  The quantization is _quantize
    inlined (one call per worthwhile sequence per partition call is
    where the function-call overhead shows); a unit test pins the two
    implementations together.
    """
    seq_by_last = [[] for _ in range(count)]
    ceil = math.ceil
    rtol = _QUANTIZE_RTOL
    for last, first, gain, area in positive:
        ratio = area / quantum
        needed = ceil(ratio - rtol * (ratio if ratio > 1.0 else 1.0))
        seq_by_last[last].append((first, gain,
                                  needed if needed > 1 else 1))
    for entries in seq_by_last:
        entries.sort()
    return seq_by_last


def _dp(count, width, seq_by_last):
    """The knapsack-with-sequences DP over dense numpy area rows.

    ``rows[j][w]`` is the max saving considering BSBs[0..j-1] with ``w``
    quanta.  The forward pass records no choices: the backtrack
    re-derives each one from the table.  That is exact because every
    candidate value is produced by the same float addition in both
    passes and ``np.maximum`` returns one of its operands, so a state
    that moved a sequence equals that sequence's candidate bit for bit.
    Taking the *earliest* matching sequence reproduces the tie-break of
    a sequential strict-``>`` relaxation in ascending-first order.

    Returns (total saving, chosen (first, last) pairs in array order).
    """
    # A row no sequence ends at aliases its predecessor: no copy.
    rows = [np.zeros(width)]
    maximum = np.maximum
    for sequences in seq_by_last:
        row = rows[-1].copy() if sequences else rows[-1]
        for first, gain, needed in sequences:
            if needed < width:
                tail = row[needed:]
                maximum(tail, rows[first][:width - needed] + gain, out=tail)
        rows.append(row)

    hw_sequences = []
    j, w = count, width - 1
    while j > 0:
        value = rows[j][w].item()
        if value == rows[j - 1][w].item():
            j -= 1
            continue
        for first, gain, needed in seq_by_last[j - 1]:
            if needed <= w and rows[first][w - needed].item() + gain == value:
                break
        hw_sequences.append((first, j - 1))
        j, w = first, w - needed
    hw_sequences.reverse()
    return rows[count][width - 1].item(), hw_sequences


def pace_partition(costs, architecture, available_area, area_quanta=400,
                   sequence_table=None):
    """Run PACE and return a :class:`PartitionResult`.

    Args:
        costs: Per-BSB :class:`~repro.partition.model.BSBCost` array.
        architecture: The :class:`~repro.partition.model.TargetArchitecture`.
        available_area: Area left for controllers (total ASIC area minus
            the pre-allocated data-path).
        area_quanta: Resolution of the DP's area axis, an ``int`` >= 1.
        sequence_table: Optional pre-built :class:`SequenceTable` for
            exactly these ``costs`` under exactly this communication
            model; reused across calls with different available areas.
    """
    if (not isinstance(area_quanta, int) or isinstance(area_quanta, bool)
            or area_quanta < 1):
        raise PartitionError("area_quanta must be an int >= 1, got %r"
                             % (area_quanta,))
    costs = list(costs)
    count = len(costs)

    if available_area <= 0 or count == 0:
        sw_time_all = sum(cost.sw_time for cost in costs)
        return PartitionResult(
            sw_time_all=sw_time_all, hybrid_time=sw_time_all,
            speedup=0.0, available_area=max(0.0, available_area))

    quantum = available_area / area_quanta
    if sequence_table is None:
        sequence_table = SequenceTable(costs, architecture)

    # Ties on equal savings go to the earliest-relaxed sequence, so the
    # ascending-first order _quantized_by_last returns is part of the
    # DP's contract.
    width = area_quanta + 1
    seq_by_last = _quantized_by_last(
        sequence_table.positive_entries(available_area), quantum, count)
    sw_time_all = sequence_table.sw_time_all
    total_static = sequence_table.total_static

    total_saving, hw_sequences = _dp(count, width, seq_by_last)

    hw_names = []
    controller_area_used = 0.0
    hw_weighted_ops = 0.0
    for first, last in hw_sequences:
        for index in range(first, last + 1):
            hw_names.append(costs[index].name)
            controller_area_used += costs[index].controller_area
    hybrid_time = sw_time_all - total_saving

    # The paper's HW/SW column is a *static* measure of how much of the
    # application moved to hardware (man moves only "8%" yet gets a 31x
    # speed-up because that 8% dominates the runtime) — so weigh each
    # BSB by its per-execution size, not by its profile count.
    for first, last in hw_sequences:
        for index in range(first, last + 1):
            hw_weighted_ops += _op_count(costs[index])
    hw_fraction = hw_weighted_ops / total_static if total_static else 0.0

    return PartitionResult(
        hw_sequences=hw_sequences,
        hw_names=hw_names,
        sw_time_all=sw_time_all,
        hybrid_time=hybrid_time,
        speedup=speedup_percent(sw_time_all, hybrid_time),
        controller_area_used=controller_area_used,
        available_area=available_area,
        hw_fraction=hw_fraction,
    )


def _op_count(cost):
    """Approximate operation count of a BSB from its software time.

    BSBCost deliberately does not retain the DFG; for the HW/SW-fraction
    statistic the per-execution software time is a faithful weight (it
    is a fixed positive multiple of the operation count for uniform op
    mixes, and a better workload measure otherwise).
    """
    if cost.profile_count == 0:
        return 0
    return cost.sw_time / cost.profile_count
