"""Tests for the prunable SequenceTable and the PACE DP rewrite."""

import gc
import math
import random

import pytest

from repro.partition.communication import (
    sequence_communication_time,
    sequence_live_in,
    sequence_live_out,
)
from repro.partition.model import BSBCost, TargetArchitecture
from repro.partition.pace import (
    SequenceTable,
    _dp,
    _quantize,
    _quantized_by_last,
    pace_partition,
)


def make_cost(name, sw, hw, area, profile=1, reads=(), writes=()):
    return BSBCost(name=name, profile_count=profile, sw_time=float(sw),
                   hw_time=None if hw is None else float(hw),
                   controller_area=float(area),
                   reads=frozenset(reads), writes=frozenset(writes))


@pytest.fixture
def architecture(library):
    return TargetArchitecture(library=library, total_area=10000.0,
                              comm_cycles_per_word=4.0)


@pytest.fixture
def costs():
    return [
        make_cost("a", 500, 100, 60, profile=5,
                  reads={"x"}, writes={"y"}),
        make_cost("b", 900, 200, 80, profile=5,
                  reads={"y"}, writes={"z"}),
        make_cost("c", 100, 90, 40, profile=1,
                  reads={"z", "w"}, writes={"v"}),
        make_cost("d", 50, None, 10, profile=1,
                  reads={"v"}, writes={"u"}),
        make_cost("e", 700, 150, 120, profile=3,
                  reads={"u"}, writes={"t"}),
    ]


def reference_tables(costs, architecture, available_area):
    """The seed's from-scratch sequence enumeration, kept as the oracle."""
    count = len(costs)
    tables = {}
    for first in range(count):
        if not costs[first].movable:
            continue
        area = 0.0
        for last in range(first, count):
            cost = costs[last]
            if not cost.movable:
                break
            area += cost.controller_area
            if area > available_area:
                break
            segment = costs[first:last + 1]
            comm = sequence_communication_time(segment, architecture)
            gain = sum(c.sw_time - c.hw_time for c in segment) - comm
            tables[(first, last)] = (gain, area)
    return tables


class TestSequenceTable:
    @pytest.mark.parametrize("available", [50.0, 100.0, 150.0, 1000.0])
    def test_matches_reference(self, costs, architecture, available):
        table = SequenceTable(costs, architecture)
        assert table.entries(available) == \
            reference_tables(costs, architecture, available)

    def test_growing_queries_extend_in_place(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        small = dict(table.entries(80.0))
        assert small == reference_tables(costs, architecture, 80.0)
        large = table.entries(500.0)
        assert large == reference_tables(costs, architecture, 500.0)
        assert table.horizon == 500.0

    def test_shrinking_queries_prune(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        table.entries(1000.0)
        entries = len(table)
        pruned = table.entries(90.0)
        assert pruned == reference_tables(costs, architecture, 90.0)
        # Pruning does not discard the already-built entries.
        assert len(table) == entries

    def test_unmovable_breaks_rows(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        entries = table.entries(10000.0)
        assert (0, 3) not in entries       # crosses the unmovable "d"
        assert (3, 3) not in entries       # "d" itself
        assert (4, 4) in entries

    def test_entries_result_is_the_callers_copy(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        table.entries(1000.0).clear()
        assert table.entries(1000.0) == \
            reference_tables(costs, architecture, 1000.0)

    def test_positive_entries_consistent(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        entries = table.entries(1000.0)
        positive = table.positive_entries(1000.0)
        assert {(first, last) for last, first, _, _ in positive} == \
            {key for key, (gain, _) in entries.items() if gain > 0}
        for last, first, gain, area in positive:
            assert entries[(first, last)] == (gain, area)


def wide_costs():
    """Twelve BSBs over 90 variable names: masks wider than one word.

    Every BSB re-reads a variable its predecessor wrote and re-writes
    one of its own live-ins; the sixth BSB is unmovable.
    """
    rng = random.Random(20261017)
    names = ["v%d" % index for index in range(90)]
    costs = []
    previous_writes = ["v0"]
    for index in range(12):
        reads = set(rng.sample(names, 9)) | {previous_writes[0]}
        writes = set(rng.sample(names, 7)) | {sorted(reads)[0]}
        costs.append(make_cost(
            "w%d" % index, rng.randint(200, 2000),
            None if index == 5 else rng.randint(20, 150),
            rng.randint(10, 90), profile=rng.randint(1, 6),
            reads=reads, writes=writes))
        previous_writes = sorted(writes)
    return costs


class TestWideMasks:
    def test_entries_match_reference_past_64_names(self, architecture):
        costs = wide_costs()
        words = (len(sequence_live_in(costs[6:]))
                 + len(sequence_live_out(costs[6:])))
        assert words > 64
        table = SequenceTable(costs, architecture)
        for available in (60.0, 150.0, 400.0, 2000.0, 300.0, 90.0):
            assert table.entries(available) == \
                reference_tables(costs, architecture, available)
        assert (6, 11) in table.entries(2000.0)


class TestRowStateGc:
    def test_row_state_holds_no_gc_tracked_object(self, architecture):
        table = SequenceTable(wide_costs(), architecture)
        table.entries(150.0)
        assert 0 < len(table) and table._resume
        for state in table._resume.values():
            assert not any(gc.is_tracked(item) for item in state), state


class TestQuantize:
    def test_exact_multiples_do_not_round_up(self):
        assert _quantize(3.0, 1.0) == 3
        assert _quantize(300.0, 100.0) == 3

    def test_float_noise_above_boundary_forgiven(self):
        # The old int(area / quantum + 0.999999999) bumped this to 257.
        assert _quantize(256.00000000001, 1.0) == 256

    def test_real_excess_still_rounds_up(self):
        assert _quantize(256.01, 1.0) == 257
        assert _quantize(3.5, 1.0) == 4

    def test_minimum_one_quantum(self):
        assert _quantize(0.001, 1.0) == 1
        assert _quantize(0.0, 1.0) == 1

    def test_uses_true_ceiling(self):
        for area in (0.1, 1.0, 1.5, 7.25, 1234.5):
            assert _quantize(area, 0.5) == max(1, math.ceil(area / 0.5))

    def test_dp_grouping_inlines_the_same_quantization(self):
        # _quantized_by_last inlines _quantize for speed; this pins the
        # two implementations together so they cannot drift.
        areas = [0.001, 0.5, 1.0, 3.0, 3.5, 256.00000000001, 256.01,
                 300.0, 1234.5]
        positive = [(0, index, 1.0, area)
                    for index, area in enumerate(areas)]
        for quantum in (0.5, 1.0, 100.0):
            grouped = _quantized_by_last(positive, quantum, 1)
            assert [needed for _, _, needed in grouped[0]] == \
                [_quantize(area, quantum) for area in areas]


def oracle_dp(count, width, seq_by_last):
    """Sequential strict-> relaxation recording choices: the reference.

    A pure-Python DP that records each choice as it relaxes; the numpy
    kernel re-derives its choices in the backtrack and must agree with
    it exactly, savings and chosen sequences alike.

    Returns (total saving, chosen (first, last) pairs in array order).
    """
    best = [[0.0] * width]
    choice = [[None] * width]
    for j in range(1, count + 1):
        row = best[j - 1][:]
        choice_row = [None] * width
        for first, gain, needed in seq_by_last[j - 1]:
            if needed >= width:
                continue
            base = best[first]
            # Rows are nondecreasing in w (more area never hurts), so a
            # sequence whose best candidate cannot beat the cheapest
            # target state cannot improve anything.
            if base[width - 1 - needed] + gain <= row[needed]:
                continue
            w = needed
            for base_value in base[:width - needed]:
                candidate = base_value + gain
                if candidate > row[w]:
                    row[w] = candidate
                    choice_row[w] = (first, w - needed)
                w += 1
        best.append(row)
        choice.append(choice_row)

    hw_sequences = []
    j, w = count, width - 1
    while j > 0:
        picked = choice[j][w]
        if picked is None:
            j -= 1
            continue
        first, w_prev = picked
        hw_sequences.append((first, j - 1))
        j, w = first, w_prev
    hw_sequences.reverse()
    return best[count][width - 1], hw_sequences


def random_instance(rng, keep=lambda last, count: True):
    """A small DP instance biased towards ties and edge widths.

    Rows ``keep(last, count)`` rejects get no sequence: the kernel
    aliases such a row to its predecessor instead of copying it.
    """
    count = rng.randint(1, 9)
    width = rng.choice([1, 1, 2, 3, 5, 8, 13])
    pool = rng.choice([
        [1.0, 2.0, 3.0],                 # integer, duplicate gains
        [0.1, 0.2, 0.3],                 # 0.1 + 0.2 != 0.3 collisions
        [rng.uniform(0.5, 9.5) for _ in range(4)],
    ])
    seq_by_last = []
    for last in range(count):
        if not keep(last, count):
            seq_by_last.append([])
            continue
        firsts = sorted(rng.sample(range(last + 1),
                                   rng.randint(0, last + 1)))
        # needed may reach past the area axis (needed >= width).
        seq_by_last.append([(first, rng.choice(pool),
                             rng.randint(1, width + 2))
                            for first in firsts])
    return count, width, seq_by_last


def same_result(left, right):
    return (repr(left[0]), left[1]) == (repr(right[0]), right[1])


class TestDpPathEquality:
    @pytest.mark.parametrize("available", [100.0, 180.0, 260.0, 310.0])
    def test_kernel_matches_oracle(self, costs, architecture, available):
        width = 58
        seq_by_last = _quantized_by_last(
            SequenceTable(costs, architecture).positive_entries(available),
            available / (width - 1), len(costs))
        assert same_result(_dp(len(costs), width, seq_by_last),
                           oracle_dp(len(costs), width, seq_by_last))

    def test_kernel_matches_oracle_on_tie_heavy_instances(self):
        rng = random.Random(20260417)
        for _ in range(300):
            instance = random_instance(rng)
            assert same_result(_dp(*instance), oracle_dp(*instance)), \
                instance

    @pytest.mark.parametrize("keep", [
        lambda last, count: False,
        lambda last, count: last == 0,
        lambda last, count: last == count - 1,
        lambda last, count: last % 2 == 1,
    ], ids=["all-empty", "only-first", "only-last", "alternating"])
    def test_kernel_matches_oracle_with_empty_rows(self, keep):
        rng = random.Random(20261017)
        for _ in range(200):
            instance = random_instance(rng, keep)
            result = _dp(*instance)
            assert type(result[0]) is float
            assert same_result(result, oracle_dp(*instance)), instance

    def test_shared_table_matches_fresh(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        for available in (310.0, 260.0, 100.0):
            shared = pace_partition(costs, architecture, available,
                                    area_quanta=80, sequence_table=table)
            fresh = pace_partition(costs, architecture, available,
                                   area_quanta=80)
            assert shared == fresh
