"""Property-based tests for the objective layer.

Three contracts the objective abstraction must keep whatever the
inputs look like:

* the default :class:`SpeedupObjective` tournament is the historical
  speed-up-then-area rule of the exhaustive search (kept below as
  ``_better``, the oracle), decision for decision;
* a :class:`ParetoFront` never retains a dominated point, keeps each
  axis's single-objective winner, and reports a positive hypervolume
  for any non-empty front;
* the partition energy model is non-negative and additive over any
  grouping of the BSB array.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import synthetic_bsb_array
from repro.core.objective import (
    AreaObjective,
    EnergyObjective,
    ParetoFront,
    SpeedupObjective,
    dominates,
    get_objective,
)
from repro.engine.session import Session
from repro.hwlib.library import default_library
from repro.partition.model import (
    TargetArchitecture,
    bsb_energy_pairs,
    partition_energy,
)


class _FakeAllocation:
    """area(library) stub so objectives see a controlled data-path."""

    def __init__(self, area):
        self._area = area

    def area(self, library):
        return self._area


class _FakeEvaluation:
    def __init__(self, speedup, area, energy=0.0):
        self.speedup = speedup
        self.allocation = _FakeAllocation(area)
        self.energy = energy


def _better(candidate, incumbent, library):
    """The historical tournament: higher speed-up wins; ties go to the
    smaller data-path."""
    if candidate.speedup != incumbent.speedup:
        return candidate.speedup > incumbent.speedup
    return (candidate.allocation.area(library)
            < incumbent.allocation.area(library))


_metric = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# Default objective == the historical _better tournament
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(_metric, _metric, _metric, _metric)
def test_default_objective_is_the_historical_tournament(
        su_a, area_a, su_b, area_b):
    candidate = _FakeEvaluation(su_a, area_a)
    incumbent = _FakeEvaluation(su_b, area_b)
    objective = SpeedupObjective()
    assert objective.better(candidate, incumbent, None) \
        == _better(candidate, incumbent, None)
    # Incumbent wins exact ties under both formulations.
    twin = _FakeEvaluation(su_b, area_b)
    assert not objective.better(twin, incumbent, None)
    assert not _better(twin, incumbent, None)


@settings(max_examples=100, deadline=None)
@given(_metric, _metric, _metric, st.sampled_from(["speedup", "area",
                                                   "energy", "pareto"]))
def test_primary_is_the_key_head(speedup, area, energy, name):
    objective = get_objective(name)
    evaluation = _FakeEvaluation(speedup, area, energy)
    assert objective.primary(evaluation, None) \
        == objective.key(evaluation, None)[0]
    # improves() is irreflexive: nothing improves on itself.
    assert not objective.improves(evaluation, evaluation, None)


@settings(max_examples=100, deadline=None)
@given(_metric, _metric, _metric, _metric, _metric, _metric)
def test_area_and_energy_objectives_minimise(su_a, area_a, energy_a,
                                             su_b, area_b, energy_b):
    a = _FakeEvaluation(su_a, area_a, energy_a)
    b = _FakeEvaluation(su_b, area_b, energy_b)
    if area_a < area_b:
        assert AreaObjective().better(a, b, None)
    if energy_a < energy_b:
        assert EnergyObjective().better(a, b, None)


# ----------------------------------------------------------------------
# Pareto front invariants
# ----------------------------------------------------------------------
_vectors = st.lists(st.tuples(_metric, _metric, _metric),
                    min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(_vectors)
def test_front_never_keeps_a_dominated_point(vectors):
    front = ParetoFront()
    for vector in vectors:
        front.add(vector)
    kept = [vector for vector, _ in front.items()]
    for left in kept:
        for right in kept:
            assert not dominates(left, right)
    # Nothing offered dominates anything kept either.
    for vector in vectors:
        for right in kept:
            assert not dominates(tuple(vector), right)


@settings(max_examples=100, deadline=None)
@given(_vectors)
def test_front_keeps_every_single_axis_winner(vectors):
    front = ParetoFront()
    for vector in vectors:
        front.add(vector)
    kept = front.vectors()
    axes = len(vectors[0])
    for axis in range(axes):
        assert max(vector[axis] for vector in kept) \
            == max(vector[axis] for vector in vectors)


@settings(max_examples=100, deadline=None)
@given(_vectors)
def test_hypervolume_positive_and_insertion_order_free(vectors):
    front = ParetoFront()
    for vector in vectors:
        front.add(vector)
    assert len(front) >= 1
    assert front.hypervolume() > 0.0
    reversed_front = ParetoFront()
    for vector in reversed(vectors):
        reversed_front.add(vector)
    # The non-dominated *set* is insertion-order independent.
    assert set(front.vectors()) == set(reversed_front.vectors())


# ----------------------------------------------------------------------
# Energy model: non-negative, additive over BSB groupings
# ----------------------------------------------------------------------
@st.composite
def energy_instances(draw):
    bsb_count = draw(st.integers(1, 5))
    ops = draw(st.integers(1, 6))
    seed = draw(st.integers(1, 50))
    hw_mask = draw(st.lists(st.booleans(), min_size=bsb_count,
                            max_size=bsb_count))
    return bsb_count, ops, seed, hw_mask


def _mask_to_sequences(hw_mask):
    """Inclusive (first, last) runs of the True entries."""
    sequences = []
    start = None
    for index, in_hw in enumerate(hw_mask):
        if in_hw and start is None:
            start = index
        elif not in_hw and start is not None:
            sequences.append((start, index - 1))
            start = None
    if start is not None:
        sequences.append((start, len(hw_mask) - 1))
    return sequences


@settings(max_examples=40, deadline=None)
@given(energy_instances())
def test_energy_non_negative_and_additive(instance):
    bsb_count, ops, seed, hw_mask = instance
    bsbs = synthetic_bsb_array(bsb_count, ops, seed=seed)
    session = Session(library=default_library())
    architecture = TargetArchitecture(library=session.library,
                                      total_area=8000.0)
    pairs = bsb_energy_pairs(bsbs, architecture, cache=session.cache)
    assert len(pairs) == len(bsbs)
    for sw_energy, hw_energy in pairs:
        assert sw_energy >= 0.0
        assert hw_energy is None or hw_energy >= 0.0
    # Restrict the mask to BSBs that *can* move (hw side priced).
    hw_mask = [flag and pairs[index][1] is not None
               for index, flag in enumerate(hw_mask)]
    sequences = _mask_to_sequences(hw_mask)
    total = partition_energy(pairs, sequences)
    assert total >= 0.0
    # Additivity: the total is the per-BSB sum of the chosen sides,
    # so any grouping of the array sums to the same energy.
    expected = sum(pair[1] if hw_mask[index] else pair[0]
                   for index, pair in enumerate(pairs))
    assert total == expected
    split = sum(partition_energy([pair],
                                 [(0, 0)] if hw_mask[index] else [])
                for index, pair in enumerate(pairs))
    assert split == expected
