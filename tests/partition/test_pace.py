"""Tests for the PACE dynamic-programming partitioner.

The key test is optimality: on small instances, PACE's DP must match a
brute-force search over every feasible set of contiguous sequences.
"""

import itertools

import pytest

from repro.errors import PartitionError
from repro.hwlib.library import default_library
from repro.partition.communication import sequence_communication_time
from repro.partition.model import BSBCost, TargetArchitecture
from repro.partition.pace import pace_partition


def make_cost(name, sw, hw, area, profile=1, reads=(), writes=()):
    return BSBCost(name=name, profile_count=profile, sw_time=float(sw),
                   hw_time=None if hw is None else float(hw),
                   controller_area=float(area),
                   reads=frozenset(reads), writes=frozenset(writes))


@pytest.fixture
def architecture(library):
    return TargetArchitecture(library=library, total_area=10000.0,
                              comm_cycles_per_word=4.0)


def brute_force_best(costs, architecture, available_area):
    """Optimal saving by enumerating all sets of disjoint sequences."""
    count = len(costs)
    best = 0.0

    def gain_of(first, last):
        segment = costs[first:last + 1]
        if any(not cost.movable for cost in segment):
            return None, None
        area = sum(cost.controller_area for cost in segment)
        comm = sequence_communication_time(segment, architecture)
        gain = sum(cost.sw_time - cost.hw_time
                   for cost in segment) - comm
        return gain, area

    # Enumerate which BSBs are in hardware (bitmask); contiguous runs
    # of selected BSBs form the sequences.
    for mask in range(2 ** count):
        total_gain = 0.0
        total_area = 0.0
        feasible = True
        index = 0
        while index < count:
            if not (mask >> index) & 1:
                index += 1
                continue
            last = index
            while last + 1 < count and (mask >> (last + 1)) & 1:
                last += 1
            gain, area = gain_of(index, last)
            if gain is None:
                feasible = False
                break
            total_gain += gain
            total_area += area
            index = last + 1
        if feasible and total_area <= available_area:
            best = max(best, total_gain)
    return best


class TestBasics:
    def test_empty_costs(self, architecture):
        result = pace_partition([], architecture, 1000.0)
        assert result.speedup == 0.0
        assert result.hw_sequences == []

    def test_no_area_means_all_software(self, architecture):
        costs = [make_cost("b", 100, 10, 50)]
        result = pace_partition(costs, architecture, 0.0)
        assert result.hw_names == []
        assert result.hybrid_time == result.sw_time_all

    def test_single_profitable_bsb_moves(self, architecture):
        costs = [make_cost("b", 1000, 10, 50)]
        result = pace_partition(costs, architecture, 100.0)
        assert result.hw_names == ["b"]
        assert result.hybrid_time == pytest.approx(10.0)

    def test_unprofitable_bsb_stays(self, architecture):
        costs = [make_cost("b", 10, 9, 50, reads={"a", "b", "c"},
                           writes={"d"}, profile=10)]
        result = pace_partition(costs, architecture, 100.0)
        assert result.hw_names == []

    def test_unmovable_bsb_stays(self, architecture):
        costs = [make_cost("b", 1000, None, 50)]
        result = pace_partition(costs, architecture, 100.0)
        assert result.hw_names == []

    def test_area_constraint_respected(self, architecture):
        costs = [make_cost("b%d" % i, 1000, 10, 60) for i in range(5)]
        result = pace_partition(costs, architecture, 130.0)
        assert result.controller_area_used <= 130.0
        assert len(result.hw_names) == 2

    def test_bad_quanta_rejected(self, architecture):
        with pytest.raises(PartitionError):
            pace_partition([], architecture, 100.0, area_quanta=0)

    @pytest.mark.parametrize("quanta", [150.5, 150.0, True, "150"])
    def test_non_int_quanta_rejected(self, architecture, quanta):
        costs = [make_cost("b0", 1000, 10, 60)]
        with pytest.raises(PartitionError, match="int >= 1"):
            pace_partition(costs, architecture, 100.0, area_quanta=quanta)


class TestSequences:
    def test_adjacent_bsbs_merge_to_save_comm(self, architecture):
        # Two BSBs share data b->c; moving them together avoids paying
        # for the intermediate variable.
        costs = [
            make_cost("p", 500, 50, 60, reads={"a"}, writes={"b"}),
            make_cost("q", 500, 50, 60, reads={"b"}, writes={"c"}),
        ]
        result = pace_partition(costs, architecture, 200.0)
        assert result.hw_sequences == [(0, 1)]

    def test_gap_bsb_splits_sequences(self, architecture):
        costs = [
            make_cost("p", 500, 50, 60, reads={"a"}, writes={"b"}),
            make_cost("gap", 10, None, 60, reads={"b"}, writes={"c"}),
            make_cost("q", 500, 50, 60, reads={"c"}, writes={"d"}),
        ]
        result = pace_partition(costs, architecture, 300.0)
        assert result.hw_sequences == [(0, 0), (2, 2)]
        assert "gap" not in result.hw_names

    def test_loop_nest_moves_whole(self, architecture):
        # setup(1x) + test(33x) + body(32x): taking all three pays
        # communication once, slicing the body alone pays it 32 times.
        costs = [
            make_cost("setup", 20, 5, 40, profile=1,
                      reads={"n"}, writes={"i", "acc"}),
            make_cost("test", 66, 33, 40, profile=33,
                      reads={"i", "n"}, writes=set()),
            make_cost("body", 3200, 320, 40, profile=32,
                      reads={"i", "acc"}, writes={"i", "acc"}),
        ]
        result = pace_partition(costs, architecture, 200.0)
        assert result.hw_sequences == [(0, 2)]


class TestOptimality:
    """PACE must match brute force on every small instance."""

    def test_matches_brute_force_basic(self, architecture):
        costs = [
            make_cost("a", 300, 30, 80, reads={"x"}, writes={"y"}),
            make_cost("b", 50, 40, 120, reads={"y"}, writes={"z"}),
            make_cost("c", 700, 20, 90, reads={"z"}, writes={"w"}),
            make_cost("d", 10, 5, 200, reads={"w"}, writes={"v"}),
        ]
        available = 250.0
        result = pace_partition(costs, architecture, available,
                                area_quanta=1000)
        expected = brute_force_best(costs, architecture, available)
        saving = result.sw_time_all - result.hybrid_time
        assert saving == pytest.approx(expected, rel=0.02)

    def test_matches_brute_force_with_unmovables(self, architecture):
        costs = [
            make_cost("a", 300, 30, 80, reads={"x"}, writes={"y"}),
            make_cost("b", 500, None, 0, reads={"y"}, writes={"z"}),
            make_cost("c", 700, 20, 90, reads={"z"}, writes={"w"}),
            make_cost("d", 400, 100, 150, reads={"w"}, writes={"u"}),
            make_cost("e", 90, 80, 30, reads={"u"}, writes={"t"}),
        ]
        available = 300.0
        result = pace_partition(costs, architecture, available,
                                area_quanta=1000)
        expected = brute_force_best(costs, architecture, available)
        saving = result.sw_time_all - result.hybrid_time
        assert saving == pytest.approx(expected, rel=0.02)

    def test_matches_brute_force_profile_mix(self, architecture):
        costs = [
            make_cost("a", 2000, 100, 100, profile=10,
                      reads={"x", "q"}, writes={"y"}),
            make_cost("b", 1500, 200, 100, profile=10,
                      reads={"y"}, writes={"z"}),
            make_cost("c", 100, 50, 100, profile=1,
                      reads={"z"}, writes={"w"}),
            make_cost("d", 3000, 200, 100, profile=20,
                      reads={"w", "y"}, writes={"v"}),
        ]
        for available in (150.0, 250.0, 450.0):
            result = pace_partition(costs, architecture, available,
                                    area_quanta=2000)
            expected = brute_force_best(costs, architecture, available)
            saving = result.sw_time_all - result.hybrid_time
            assert saving == pytest.approx(expected, rel=0.02), available


class TestStatistics:
    def test_speedup_consistent_with_times(self, architecture):
        costs = [make_cost("b", 1000, 10, 50)]
        result = pace_partition(costs, architecture, 100.0)
        expected = (result.sw_time_all - result.hybrid_time) \
            / result.hybrid_time * 100.0
        assert result.speedup == pytest.approx(expected)

    def test_hw_fraction_static_weighting(self, architecture):
        # Half of the per-execution work moves: fraction must be ~0.5
        # regardless of profile counts.
        costs = [
            make_cost("hot", 10000, 10, 50, profile=100,
                      reads={"a"}, writes={"b"}),
            make_cost("cold", 100, None, 0, profile=1),
        ]
        result = pace_partition(costs, architecture, 100.0)
        assert result.hw_names == ["hot"]
        assert result.hw_fraction == pytest.approx(0.5, abs=0.01)

    def test_quantisation_conservative(self, architecture):
        # Coarse quanta may under-use area but never over-use it.
        costs = [make_cost("b%d" % i, 1000, 10, 33) for i in range(6)]
        for quanta in (3, 10, 50, 400):
            result = pace_partition(costs, architecture, 100.0,
                                    area_quanta=quanta)
            assert result.controller_area_used <= 100.0
