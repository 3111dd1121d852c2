"""Property-based tests for the branch-and-bound exhaustive search.

Random synthetic BSB arrays, random areas, random cap tightenings:
whatever the space looks like, the pruned search must return the brute
scan's exact winner, the per-candidate accounting must balance, the
speed-up bound must dominate every evaluated candidate, and every
candidate the pruned walk evaluates must agree with the uncached
reference evaluator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import synthetic_bsb_array
from repro.core.bounds import BoundEngine
from repro.core.exhaustive import allocation_space
from repro.core.rmap import RMap
from repro.engine.session import Session
from repro.hwlib.library import default_library
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture


@st.composite
def search_instances(draw):
    bsb_count = draw(st.integers(1, 4))
    ops = draw(st.integers(1, 6))
    seed = draw(st.integers(1, 50))
    chain = draw(st.sampled_from([0.0, 0.5, 1.0]))
    total_area = draw(st.sampled_from([800.0, 3000.0, 8000.0]))
    cap = draw(st.integers(1, 2))
    return bsb_count, ops, seed, chain, total_area, cap


def _setup(instance):
    bsb_count, ops, seed, chain, total_area, cap = instance
    bsbs = synthetic_bsb_array(bsb_count, ops, seed=seed,
                               chain_probability=chain)
    session = Session(library=default_library())
    architecture = TargetArchitecture(library=session.library,
                                      total_area=total_area)
    full = session.restrictions(bsbs)
    tight = RMap({name: min(count, cap)
                  for name, count in full.items()})
    return session, bsbs, architecture, tight


@settings(max_examples=40, deadline=None)
@given(search_instances())
def test_pruned_search_never_loses_the_brute_winner(instance):
    session, bsbs, architecture, tight = _setup(instance)
    brute = session.exhaustive(bsbs, architecture, restrictions=tight,
                               area_quanta=100)
    fresh, bsbs_p, architecture_p, tight_p = _setup(instance)
    pruned = fresh.exhaustive(bsbs_p, architecture_p,
                              restrictions=tight_p, area_quanta=100,
                              search="pruned")
    assert pruned.best_evaluation.speedup == brute.best_evaluation.speedup
    assert pruned.best_allocation == brute.best_allocation
    assert brute.evaluations + brute.skipped_infeasible == brute.space
    assert pruned.evaluations + pruned.skipped_infeasible \
        + pruned.pruned_leaves == pruned.space


@settings(max_examples=25, deadline=None)
@given(search_instances())
def test_bound_dominates_every_evaluated_candidate(instance):
    session, bsbs, architecture, tight = _setup(instance)
    result = session.exhaustive(bsbs, architecture, restrictions=tight,
                                area_quanta=100, keep_history=True)
    names, ranges = allocation_space(bsbs, architecture.library,
                                     restrictions=tight)
    caps = [len(counts) - 1 for counts in ranges]
    unit_areas = {name: architecture.library.area_of(name)
                  for name in names}
    engine = BoundEngine(bsbs, architecture, names, caps, session.cache)
    for allocation, speedup in result.history:
        effective = [allocation[name] for name in names]
        bound = engine.speedup_bound(
            effective, allocation.area_from(unit_areas))
        assert bound >= speedup
        # An internal node covering this leaf only relaxes the bound.
        relaxed = engine.speedup_bound(caps, 0.0)
        assert relaxed >= bound or relaxed == float("inf")


@settings(max_examples=25, deadline=None)
@given(search_instances())
def test_pruned_history_matches_uncached_evaluation(instance):
    session, bsbs, architecture, tight = _setup(instance)
    result = session.exhaustive(bsbs, architecture, restrictions=tight,
                                area_quanta=100, keep_history=True,
                                search="pruned")
    assert result.history
    for allocation, speedup in result.history:
        reference = evaluate_allocation(bsbs, allocation, architecture,
                                        area_quanta=100, cache=None)
        assert speedup == reference.speedup
    winner = result.best_evaluation
    reference = evaluate_allocation(bsbs, result.best_allocation,
                                    architecture, area_quanta=100,
                                    cache=None)
    assert winner.speedup == reference.speedup
    assert winner.partition.hw_sequences == \
        reference.partition.hw_sequences
    assert winner.datapath_area == reference.datapath_area
