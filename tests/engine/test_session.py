"""Tests for the exploration engine's Session and DesignPoint."""

import pytest

from repro.apps.registry import application_spec
from repro.engine import DesignPoint, EvalCache, PointResult, Session
from repro.errors import ReproError
from repro.ir.ops import OpType
from repro.partition.model import TargetArchitecture

from tests.conftest import make_leaf, make_parallel_dfg


@pytest.fixture
def small_app():
    muls = make_leaf(make_parallel_dfg(OpType.MUL, 2, "muls"),
                     profile=50, name="muls", reads={"a"}, writes={"b"})
    adds = make_leaf(make_parallel_dfg(OpType.ADD, 3, "adds"),
                     profile=20, name="adds", reads={"b"}, writes={"c"})
    return [muls, adds]


class TestDesignPoint:
    def test_defaults(self):
        point = DesignPoint(app="hal")
        assert point.area is None
        assert point.policy is None
        assert point.quanta == 150

    def test_points_are_hashable_and_comparable(self):
        assert DesignPoint(app="hal") == DesignPoint(app="hal")
        assert len({DesignPoint(app="hal"), DesignPoint(app="hal"),
                    DesignPoint(app="man")}) == 2

    def test_rejects_bad_app(self):
        with pytest.raises(ReproError):
            DesignPoint(app="")

    def test_rejects_bad_area(self):
        with pytest.raises(ReproError):
            DesignPoint(app="hal", area=-1.0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ReproError):
            DesignPoint(app="hal", policy="greedy")

    def test_rejects_bad_quanta(self):
        with pytest.raises(ReproError):
            DesignPoint(app="hal", quanta=0)

    @pytest.mark.parametrize("quanta", [150.5, 150.0, True, "150", None])
    def test_rejects_non_int_quanta(self, quanta):
        # Caught at construction, not deep inside PACE at evaluation.
        with pytest.raises(ReproError, match="int >= 1"):
            DesignPoint(app="hal", quanta=quanta)

    def test_points_are_immutable(self):
        with pytest.raises(Exception):
            DesignPoint(app="hal").quanta = 7


class TestSessionCaching:
    def test_program_compiled_once(self):
        session = Session()
        first = session.program("hal")
        second = session.program("hal")
        assert first is second
        assert session.stats.snapshot()["program"] == (1, 1)

    def test_evaluate_hit_and_miss_accounting(self, library, small_app):
        session = Session(library=library)
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        allocation = {"multiplier": 1, "adder": 1}
        first = session.evaluate(small_app, allocation, architecture,
                                 area_quanta=100)
        second = session.evaluate(small_app, allocation, architecture,
                                  area_quanta=100)
        assert first is second
        assert session.stats.snapshot()["eval"] == (1, 1)

    def test_distinct_points_do_not_alias(self, library, small_app):
        session = Session(library=library)
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        one = session.evaluate(small_app, {"multiplier": 1}, architecture,
                               area_quanta=100)
        two = session.evaluate(small_app, {"multiplier": 2}, architecture,
                               area_quanta=100)
        assert one.allocation != two.allocation

    def test_warm_session_matches_fresh_session(self):
        warm = Session()
        points = [DesignPoint(app="hal"),
                  DesignPoint(app="hal", area=4000.0)]
        warmed = [warm.evaluate_point(p) for p in points for _ in (0, 1)]
        fresh = [Session().evaluate_point(p) for p in points]
        assert warmed[0].speedup == warmed[1].speedup
        assert warmed[0].speedup == fresh[0].speedup
        assert warmed[2].speedup == fresh[1].speedup
        assert warmed[0].allocation == fresh[0].allocation
        assert warmed[2].allocation == fresh[1].allocation

    def test_allocate_memoised(self, library, small_app):
        session = Session(library=library)
        first = session.allocate(small_app, 6000.0)
        second = session.allocate(small_app, 6000.0)
        assert first is second
        assert session.stats.snapshot()["alloc"] == (1, 1)

    def test_allocate_policy_variant(self, library, small_app):
        session = Session(library=library)
        result = session.allocate(small_app, 6000.0, policy="balanced")
        assert result.policy_name == "balanced"
        assert not result.allocation.is_empty()

    def test_allocate_rejects_unknown_policy(self, library, small_app):
        session = Session(library=library)
        with pytest.raises(ReproError):
            session.allocate(small_app, 6000.0, policy="greedy")

    def test_allocate_accepts_dict_restrictions(self, library, small_app):
        session = Session(library=library)
        result = session.allocate(small_app, 6000.0,
                                  restrictions={"multiplier": 1,
                                                "adder": 2})
        assert result.allocation["multiplier"] <= 1
        assert result.allocation["adder"] <= 2
        again = session.allocate(small_app, 6000.0,
                                 restrictions={"multiplier": 1,
                                               "adder": 2})
        assert again is result

    def test_allocate_rejects_restrictions_with_policy(self, library,
                                                       small_app):
        session = Session(library=library)
        with pytest.raises(ReproError):
            session.allocate(small_app, 6000.0, policy="balanced",
                             restrictions={"multiplier": 1})

    def test_stats_summary_renders(self):
        session = Session()
        session.program("hal")
        text = session.stats.summary()
        assert "program" in text
        assert "misses" in text

    def test_cache_clear_resets(self, library, small_app):
        session = Session(library=library)
        session.allocate(small_app, 6000.0)
        session.cache.clear()
        assert session.stats.hit_count() == 0
        assert not session.cache.allocs


class TestExplore:
    def test_explore_serial_results_in_order(self):
        session = Session()
        spec = application_spec("hal")
        points = [DesignPoint(app="hal", area=spec.total_area),
                  DesignPoint(app="hal", area=0.6 * spec.total_area)]
        results = session.explore(points)
        assert [r.point for r in results] == points
        assert all(isinstance(r, PointResult) for r in results)
        assert all(r.speedup > 0 for r in results)

    def test_explore_accepts_app_names(self):
        session = Session()
        results = session.explore(["hal"])
        assert results[0].point == DesignPoint(app="hal")

    def test_explore_rejects_garbage(self):
        with pytest.raises(ReproError):
            Session().explore([42])

    def test_explore_parallel_equals_serial(self):
        session = Session()
        spec = application_spec("man")
        points = [DesignPoint(app="man", area=fraction * spec.total_area)
                  for fraction in (0.4, 0.6, 0.8, 1.0)]
        serial = session.explore(points)
        parallel = session.explore(points, workers=2)
        assert [r.point for r in parallel] == [r.point for r in serial]
        assert [r.speedup for r in parallel] == [r.speedup for r in serial]
        assert [r.allocation for r in parallel] == \
            [r.allocation for r in serial]

    def test_explore_grid_cross_product(self):
        session = Session()
        results = session.explore_grid(
            apps=["hal"], areas=[4000.0, 8000.0],
            policies=[None, "balanced"], quanta=[100])
        assert len(results) == 4
        assert {r.point.policy for r in results} == {None, "balanced"}
        assert {r.point.area for r in results} == {4000.0, 8000.0}

    def test_grid_points_use_spec_area_by_default(self):
        session = Session()
        result = session.explore_grid(apps=["hal"])[0]
        assert result.point.area is None
        spec = application_spec("hal")
        direct = session.evaluate_point(
            DesignPoint(app="hal", area=spec.total_area))
        assert result.speedup == direct.speedup


class TestEvalCache:
    def test_pin_keeps_ids_stable(self):
        cache = EvalCache()
        obj = object()
        assert cache.pin(obj) == cache.pin(obj) == id(obj)

    def test_processor_token_by_value(self):
        from repro.swmodel.processor import default_processor

        cache = EvalCache()
        assert (cache.processor_token(default_processor())
                == cache.processor_token(default_processor()))

    def test_uid_key_memoised_per_list(self, small_app):
        cache = EvalCache()
        assert cache.uid_key(small_app) is cache.uid_key(small_app)
        assert cache.uid_key(small_app) == \
            tuple(bsb.uid for bsb in small_app)
