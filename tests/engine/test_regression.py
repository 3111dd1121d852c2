"""Session-routed pipelines must be bit-identical to the direct paths.

The engine is pure plumbing: every cached stage is keyed by its true
inputs, so running Table 1, Figure 3, the design iteration or the
multi-ASIC co-design through a (warm) session must reproduce exactly
what the uncached computation produces.
"""

import pytest

from repro.apps.registry import application_spec
from repro.core.exhaustive import (
    enumerate_allocations,
    exhaustive_best_allocation,
)
from repro.core.iteration import design_iteration
from repro.core.rmap import RMap
from repro.engine import Session
from repro.ir.ops import OpType
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture
from repro.partition.multi_asic import multi_asic_codesign
from repro.report.experiments import design_iteration_report, fig3_sweep

from tests.conftest import make_leaf, make_parallel_dfg


@pytest.fixture
def small_app():
    muls = make_leaf(make_parallel_dfg(OpType.MUL, 3, "muls"),
                     profile=40, name="muls", reads={"a"}, writes={"b"})
    adds = make_leaf(make_parallel_dfg(OpType.ADD, 4, "adds"),
                     profile=15, name="adds", reads={"b"}, writes={"c"})
    return [muls, adds]


def assert_same_evaluation(one, other):
    assert one.allocation == other.allocation
    assert one.datapath_area == other.datapath_area
    assert one.available_controller_area == other.available_controller_area
    assert one.overhead_area == other.overhead_area
    assert one.partition.hw_sequences == other.partition.hw_sequences
    assert one.partition.hw_names == other.partition.hw_names
    assert one.partition.sw_time_all == other.partition.sw_time_all
    assert one.partition.hybrid_time == other.partition.hybrid_time
    assert one.partition.speedup == other.partition.speedup
    assert (one.partition.controller_area_used
            == other.partition.controller_area_used)


class TestEvaluateParity:
    def test_session_matches_uncached_on_synthetic(self, library,
                                                   small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        session = Session(library=library)
        for allocation in enumerate_allocations(small_app, library):
            if allocation.area(library) > architecture.total_area:
                continue
            plain = evaluate_allocation(small_app, allocation,
                                        architecture, area_quanta=100)
            cached = session.evaluate(small_app, allocation, architecture,
                                      area_quanta=100)
            rewarmed = session.evaluate(small_app, allocation,
                                        architecture, area_quanta=100)
            assert_same_evaluation(plain, cached)
            assert cached is rewarmed

    @pytest.mark.parametrize("remember", [False, "partitions", True])
    def test_remember_modes_match_uncached(self, library, small_app,
                                           remember):
        # The searches evaluate every candidate with remember=False or
        # "partitions"; each mode returns the uncached result and keeps
        # only the memo entries it names.
        from repro.engine import EvalCache

        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        cache = EvalCache()
        for allocation in enumerate_allocations(small_app, library):
            if allocation.area(library) > architecture.total_area:
                continue
            plain = evaluate_allocation(small_app, allocation,
                                        architecture, area_quanta=100)
            cached = evaluate_allocation(small_app, allocation,
                                         architecture, area_quanta=100,
                                         cache=cache, remember=remember)
            assert_same_evaluation(plain, cached)
        assert bool(cache.partitions) == bool(remember)
        assert bool(cache.evals) == (remember is True)

    def test_session_matches_uncached_on_hal(self):
        session = Session()
        program = session.program("hal")
        spec = application_spec("hal")
        architecture = TargetArchitecture(library=session.library,
                                          total_area=spec.total_area)
        allocation = session.allocate(program.bsbs,
                                      spec.total_area).allocation
        plain = evaluate_allocation(program.bsbs, allocation, architecture,
                                    area_quanta=150)
        cached = session.evaluate(program.bsbs, allocation, architecture,
                                  area_quanta=150)
        assert_same_evaluation(plain, cached)


class TestCostSignatureParity:
    """The memoised cost array equals the uncached per-BSB costs.

    ``bsb_costs`` with an EvalCache collapses allocations onto cost
    signatures; if a signature ever merged two allocations whose costs
    differ, some BSB here would get another allocation's cost.
    """

    @pytest.mark.parametrize("allocation", [
        {"multiplier": 1, "adder": 1},       # homogeneous
        {"multiplier": 9, "adder": 9},       # saturated counts collapse
        {"adder": 1},                        # muls BSB unexecutable
        {},                                  # everything unexecutable
    ])
    def test_cached_costs_equal_uncached(self, library, small_app,
                                         allocation):
        from repro.engine import EvalCache
        from repro.partition.model import bsb_cost, bsb_costs

        allocation = RMap(allocation)
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        cache = EvalCache()
        # Warm the memo with other allocations first: a signature that
        # collapsed too much would serve one of their cost objects.
        for other in ({"multiplier": 2, "adder": 3},
                      {"multiplier": 3, "adder": 4},
                      {"multiplier": 2}, {"adder": 2}):
            bsb_costs(small_app, RMap(other), architecture, cache=cache)
        cached = bsb_costs(small_app, allocation, architecture,
                           cache=cache)
        uncached = [bsb_cost(bsb, allocation, architecture)
                    for bsb in small_app]
        assert cached == uncached


class TestDriverParity:
    def test_design_iteration_identical(self, library, small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=2500.0)
        start = RMap({"multiplier": 2, "adder": 1})
        private = design_iteration(small_app, start, architecture,
                                   area_quanta=100)
        session = Session(library=library)
        warm_up = session.evaluate(small_app, start, architecture,
                                   area_quanta=100)
        assert warm_up is not None
        shared = design_iteration(small_app, start, architecture,
                                  area_quanta=100, session=session)
        assert [str(step) for step in shared.steps] == \
            [str(step) for step in private.steps]
        assert shared.final_allocation == private.final_allocation
        assert (shared.final_evaluation.speedup
                == private.final_evaluation.speedup)

    def test_exhaustive_identical_cold_and_warm(self, library, small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        session = Session(library=library)
        cold = exhaustive_best_allocation(small_app, architecture,
                                          area_quanta=100,
                                          session=session)
        warm = exhaustive_best_allocation(small_app, architecture,
                                          area_quanta=100,
                                          session=session)
        private = exhaustive_best_allocation(small_app, architecture,
                                             area_quanta=100)
        for other in (warm, private):
            assert other.best_allocation == cold.best_allocation
            assert (other.best_evaluation.speedup
                    == cold.best_evaluation.speedup)
            assert other.evaluations == cold.evaluations
            assert other.space == cold.space

    def test_multi_asic_identical(self, library, small_app):
        private = multi_asic_codesign(small_app, library, [3000.0, 3000.0])
        session = Session(library=library)
        shared = multi_asic_codesign(small_app, library, [3000.0, 3000.0],
                                     session=session)
        again = multi_asic_codesign(small_app, library, [3000.0, 3000.0],
                                    session=session)
        for other in (shared, again):
            assert other.speedup == private.speedup
            assert other.hybrid_time == private.hybrid_time
            assert other.hw_names() == private.hw_names()
            assert [plan.allocation for plan in other.asics] == \
                [plan.allocation for plan in private.asics]

    def test_fig3_sweep_identical(self):
        fractions = [0.3, 0.6, 0.9]
        private = fig3_sweep(name="hal", fractions=fractions)
        session = Session()
        shared = fig3_sweep(name="hal", fractions=fractions,
                            session=session)
        again = fig3_sweep(name="hal", fractions=fractions,
                           session=session)
        assert shared == private
        assert again == private

    def test_sched_memo_keys_include_library(self, library):
        # Two libraries sharing resource names but with different adder
        # latencies must not serve each other's schedule lengths from a
        # shared session cache.
        from repro.engine import EvalCache
        from repro.hwlib.library import ResourceLibrary
        from repro.ir.ops import OpType
        from repro.partition.model import hardware_steps

        slow = ResourceLibrary(name="slow")
        slow.add_single("adder", OpType.ADD, area=100.0, latency=3)
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 2, "adds"),
                        profile=1, name="adds")
        cache = EvalCache()
        fast_arch = TargetArchitecture(library=library, total_area=5000.0)
        slow_arch = TargetArchitecture(library=slow, total_area=5000.0)
        allocation = RMap({"adder": 1})
        fast_steps = hardware_steps(bsb, allocation, fast_arch,
                                    cache=cache)
        slow_steps = hardware_steps(bsb, allocation, slow_arch,
                                    cache=cache)
        assert slow_steps == 3 * fast_steps

    def test_driver_rejects_conflicting_session_and_library(self):
        from repro.hwlib.library import default_library
        from repro.report.experiments import table1_row

        session = Session()
        with pytest.raises(Exception):
            table1_row("hal", library=default_library(), session=session)

    def test_iteration_report_identical(self):
        private = design_iteration_report("man")
        session = Session()
        shared = design_iteration_report("man", session=session)
        assert shared["initial_speedup"] == private["initial_speedup"]
        assert shared["final_speedup"] == private["final_speedup"]
        assert shared["final_allocation"] == private["final_allocation"]
        assert [str(s) for s in shared["steps"]] == \
            [str(s) for s in private["steps"]]
