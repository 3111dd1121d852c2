"""Exhaustive allocation search (the paper's evaluation baseline).

Section 5: "the PACE algorithm is used to generate a partition of the
application for all possible allocations.  Through this exhaustive
search, the allocation that gives the best partitioning result in terms
of speed-up is marked as the best allocation."

The search space is the cross product of per-resource counts from zero
up to the ASAP-parallelism restriction caps.  The paper's footnote notes
the eigen benchmark has about a million allocations and could not be
exhausted; :func:`exhaustive_best_allocation` therefore accepts a
``max_evaluations`` budget and switches to seeded random sampling for
such spaces.  With ``workers`` > 1 the candidate stream fans out over
worker processes in contiguous chunks; each worker scans its chunk
exactly the way the serial loop would, and the parent reduces the
chunk winners with the same deterministic objective tournament (by
default :class:`~repro.core.objective.SpeedupObjective`'s) — so the
parallel result is bit-identical to the serial one.

``search="pruned"`` walks the same space as a mixed-radix prefix tree
instead of a flat product stream: each partial allocation carries an
admissible area lower bound and speed-up upper bound (see
:mod:`repro.core.bounds`), so subtrees provably unable to beat the
incumbent are skipped wholesale, and the surviving leaves are
evaluated through :func:`~repro.partition.evaluate.evaluate_allocation`
like every other candidate.  The winner is bit-identical to the brute
scan's — pruning only ever discards candidates the objective's
tournament would have discarded — while the number of candidate
evaluations can drop by orders of magnitude on spaces with a dominant
incumbent.
"""

import itertools
import multiprocessing
import random
from dataclasses import dataclass, field

from repro.core.allocator import required_resources
from repro.core.bounds import BoundEngine
from repro.core.objective import as_objective
from repro.core.restrictions import asap_restrictions
from repro.core.rmap import RMap
from repro.errors import AllocationError, ReproError
from repro.partition.evaluate import evaluate_allocation

#: Valid ``search=`` modes of :func:`exhaustive_best_allocation`.
SEARCH_MODES = ("brute", "pruned")


def allocation_space(bsbs, library, restrictions=None):
    """(resource names, per-resource count ranges) of the search space.

    Only resources some BSB actually needs are enumerated; counts range
    from 0 to the restriction cap of each resource — a resource capped
    at 0 contributes only the count 0, so the search never visits
    allocations that violate the ASAP restriction caps.
    """
    if restrictions is None:
        restrictions = asap_restrictions(bsbs, library)
    needed = RMap()
    for bsb in bsbs:
        needed = needed | required_resources(bsb, library)
    names = needed.names()
    ranges = [range(0, restrictions[name] + 1) for name in names]
    return names, ranges


def space_size(bsbs, library, restrictions=None):
    """Number of allocations the exhaustive search would visit."""
    _, ranges = allocation_space(bsbs, library, restrictions=restrictions)
    size = 1
    for counts in ranges:
        size *= len(counts)
    return size


def enumerate_allocations(bsbs, library, restrictions=None, stride=1):
    """Yield every allocation in the search space (RMap instances).

    ``stride`` > 1 yields every stride-th allocation in lexicographic
    order (kept for deterministic partial scans; for *searching* large
    spaces prefer :func:`sample_allocations`, which is unbiased).
    """
    if stride < 1:
        raise AllocationError("stride must be >= 1, got %r" % (stride,))
    names, ranges = allocation_space(bsbs, library,
                                     restrictions=restrictions)
    for index, counts in enumerate(itertools.product(*ranges)):
        if index % stride:
            continue
        yield RMap._unchecked({name: count
                               for name, count in zip(names, counts)
                               if count})


def _random_allocation_stream(names, ranges, seed):
    """The unbounded seeded draw stream both sampling paths consume.

    One definition keeps :func:`sample_allocations` and
    :func:`_draw_feasible_samples` on the *same* sequence of draws —
    their documented correspondence is load-bearing for reproducible
    sampled results, so neither re-implements the expression.
    """
    generator = random.Random(seed)
    while True:
        yield RMap._unchecked({name: value for name, value in
                               ((name, generator.randrange(len(counts)))
                                for name, counts in zip(names, ranges))
                               if value})


def sample_allocations(bsbs, library, count, restrictions=None, seed=1998):
    """Yield ``count`` pseudo-random allocations from the space.

    Sampling is uniform and reproducible (fixed seed); duplicates are
    possible for tiny spaces but the caller only cares about the best
    evaluation found.  Used when the space is too large to exhaust —
    the situation the paper's eigen footnote describes.  (The budgeted
    search itself draws through :func:`_draw_feasible_samples`, which
    adds dedup and area-feasibility filtering on top of this same
    stream.)
    """
    names, ranges = allocation_space(bsbs, library,
                                     restrictions=restrictions)
    yield from itertools.islice(
        _random_allocation_stream(names, ranges, seed), count)


def _enumerate_slice(names, ranges, start, stop):
    """Allocations ``start <= index < stop`` of the lexicographic space.

    Identical to ``islice(enumerate_allocations(...), start, stop)``
    but O(1) to position: the start index is decoded into per-resource
    counts (mixed radix, last resource fastest — the
    ``itertools.product`` convention) and an odometer increments from
    there, so a worker chunk deep in a ~10^6-allocation space does not
    build and discard a prefix of RMaps just to reach its slice.
    """
    caps = [len(counts) - 1 for counts in ranges]
    digits = []
    remainder = start
    for cap in reversed(caps):
        remainder, digit = divmod(remainder, cap + 1)
        digits.append(digit)
    digits.reverse()
    for _ in range(stop - start):
        yield RMap._unchecked({name: digit for name, digit
                               in zip(names, digits) if digit})
        for axis in range(len(digits) - 1, -1, -1):
            if digits[axis] < caps[axis]:
                digits[axis] += 1
                break
            digits[axis] = 0


#: Draw-attempt budget multiplier for the sampled search: with heavy
#: area infeasibility or a small distinct-feasible population the draw
#: loop must terminate even though the evaluation budget cannot be met.
_SAMPLE_ATTEMPT_FACTOR = 50


def _draw_feasible_samples(names, ranges, budget, unit_areas, total_area,
                           space, seed=1998):
    """``budget`` distinct, area-feasible random allocations.

    Infeasible draws are *replaced* (drawing continues until the budget
    is met), duplicates are redrawn without being counted, and the loop
    gives up once every distinct allocation has been seen or an attempt
    cap is hit — whichever comes first.  Returns ``(candidates,
    skipped_infeasible)`` where the second element counts the distinct
    infeasible allocations that were discarded along the way.
    """
    stream = _random_allocation_stream(names, ranges, seed)
    seen = set()
    candidates = []
    skipped_infeasible = 0
    attempts = 0
    limit = max(budget * _SAMPLE_ATTEMPT_FACTOR, budget + 1000)
    while len(candidates) < budget and attempts < limit \
            and len(seen) < space:
        attempts += 1
        allocation = next(stream)
        if allocation in seen:
            continue
        seen.add(allocation)
        if allocation.area_from(unit_areas) > total_area:
            skipped_infeasible += 1
            continue
        candidates.append(allocation)
    return candidates, skipped_infeasible


@dataclass
class ExhaustiveResult:
    """Outcome of the exhaustive (or sampled) allocation search.

    Attributes:
        best_allocation: Allocation with the highest PACE speed-up.
        best_evaluation: Its full :class:`AllocationEvaluation`.
        evaluations: Number of allocations actually evaluated.
        space: Total size of the allocation space.
        sampled: True when the space exceeded the evaluation budget and
            seeded pseudo-random sampling (not full enumeration, and
            not stride sampling) supplied the candidates.
        skipped_infeasible: Distinct candidates discarded without
            evaluation because their data-path area alone exceeded the
            ASIC area.  On the sampled path these were redrawn, so
            ``evaluations`` still meets the budget whenever enough
            feasible allocations exist.
        history: Optional list of (allocation, speedup) pairs for the
            candidates actually evaluated, in ``history_order`` order.
        search: The search that actually ran: ``"brute"``,
            ``"pruned"``, or ``"sampled"`` when the evaluation budget
            forced sampling regardless of the requested mode.
        history_order: ``"scan"`` when the history follows the
            lexicographic scan order of the enumerated space (brute and
            pruned searches — a pruned history is the scan-order
            subsequence that survived the bounds); ``"sampled"`` when
            it follows the seeded draw order of the sampled search,
            which is *not* lexicographic.
        subtrees_pruned: Prefix-tree subtrees the branch-and-bound
            speed-up bound discarded (0 for other searches).
        bound_evaluations: Bound computations spent finding them (the
            warm-start evaluation seeding the prune threshold, when one
            ran, is accounted here rather than in ``evaluations``).
        pruned_leaves: Candidate allocations inside those subtrees;
            ``evaluations + skipped_infeasible + pruned_leaves ==
            space`` holds for every enumerated search.
        objective: Name of the objective the tournament ranked
            candidates under (``"speedup"`` unless overridden).
        front: The :class:`~repro.core.objective.ParetoFront` collected
            over every evaluated candidate when the objective was
            ``"pareto"``; ``None`` otherwise.
    """

    best_allocation: RMap
    best_evaluation: object
    evaluations: int
    space: int
    sampled: bool
    skipped_infeasible: int = 0
    history: list = field(default_factory=list)
    search: str = "brute"
    history_order: str = "scan"
    subtrees_pruned: int = 0
    bound_evaluations: int = 0
    pruned_leaves: int = 0
    objective: str = "speedup"
    front: object = None


def _scan_candidates(candidates, bsbs, architecture, area_quanta,
                     keep_history, session, unit_areas, check_area,
                     objective, remember):
    """The inner evaluation loop, shared by the serial path and every
    parallel worker so both scan a candidate stream identically.

    Candidates are ranked by ``objective`` (the default
    :class:`~repro.core.objective.SpeedupObjective` tournament: higher
    speed-up wins, ties go to the smaller data-path); a Pareto-style
    objective additionally accumulates its dominance front over every
    evaluated candidate.  ``remember`` is passed to every
    :func:`evaluate_allocation` call.  Returns (best allocation, best
    evaluation, evaluations, skipped_infeasible, history, front).
    """
    library = architecture.library
    front = objective.new_front() if hasattr(objective, "new_front") \
        else None
    best_eval = None
    best_allocation = None
    evaluations = 0
    skipped_infeasible = 0
    history = []
    for allocation in candidates:
        if check_area and \
                allocation.area_from(unit_areas) > architecture.total_area:
            skipped_infeasible += 1
            continue
        evaluation = evaluate_allocation(bsbs, allocation, architecture,
                                         area_quanta=area_quanta,
                                         cache=session.cache,
                                         remember=remember)
        evaluations += 1
        if keep_history:
            history.append((allocation, evaluation.speedup))
        if front is not None:
            front.add(objective.vector(evaluation, library), evaluation)
        if best_eval is None or objective.better(evaluation, best_eval,
                                                 library):
            best_eval = evaluation
            best_allocation = allocation
    return (best_allocation, best_eval, evaluations, skipped_infeasible,
            history, front)


def _empty_prune_stats():
    """Zeroed pruning counters (shape shared by every search mode)."""
    return {"subtrees_pruned": 0, "bound_evaluations": 0,
            "pruned_leaves": 0}


def _warm_threshold(bsbs, architecture, restrictions, area_quanta,
                    session, names, ranges, unit_areas, remember):
    """Speed-up of Algorithm 1's allocation, as a strict prune threshold.

    The greedy allocator lands on (or near) the best allocation long
    before the lexicographic scan does, so its evaluated speed-up makes
    a strong bound from the very first node.  Soundness: the threshold
    only ever prunes subtrees whose bound is *strictly* below it, and
    it is the speed-up of a member of the search space — so no
    candidate tying the eventual winner can be discarded and the
    scan-order tie-breaking (hence the winner) stays bit-identical to
    the brute scan.  Returns ``None`` when the allocator fails or its
    allocation falls outside the space (custom restrictions can do
    that), where that guarantee would not hold.
    """
    try:
        allocation = session.allocate(
            bsbs, architecture.total_area,
            restrictions=restrictions).allocation
    except ReproError:
        return None
    caps = {name: len(counts) - 1
            for name, counts in zip(names, ranges)}
    for name, count in allocation.items():
        if count > caps.get(name, 0):
            return None
    if allocation.area_from(unit_areas) > architecture.total_area:
        return None
    evaluation = evaluate_allocation(bsbs, allocation, architecture,
                                     area_quanta=area_quanta,
                                     cache=session.cache,
                                     remember=remember)
    return evaluation.speedup


def _scan_pruned(bsbs, architecture, restrictions, area_quanta,
                 keep_history, session, names, ranges, unit_areas,
                 total, workers, objective, remember):
    """Drive the branch-and-bound search: prime, then split or recurse.

    Candidate 0 — the empty allocation, always area-feasible, hence a
    member of the space under any objective — is evaluated up front and
    seeds every range scan's incumbent, and (under the default
    objective) the greedy allocator's speed-up seeds a strict prune
    threshold, so even parallel chunks prune against shared bounds from
    their first node instead of each rediscovering them.  A parallel
    run additionally shares the best-known primary value through a
    ``multiprocessing.Value``, so a chunk that finds a strong incumbent
    tightens every other chunk's threshold mid-flight; the sharing is
    read-only tightening below *achieved* values, so the winner stays
    bit-identical to the serial walk's (only the prune counters become
    timing-dependent).  Returns the common scan 7-tuple (best
    allocation, best evaluation, evaluations, skipped_infeasible,
    history, front, prune stats).
    """
    library = architecture.library
    alloc0 = RMap()
    eval0 = evaluate_allocation(bsbs, alloc0, architecture,
                                area_quanta=area_quanta,
                                cache=session.cache, remember=remember)
    # The warm allocator threshold is a *speed-up* achieved inside the
    # space; under any other objective it bounds nothing.
    warm_su = None
    if objective.name == "speedup":
        warm_su = _warm_threshold(bsbs, architecture, restrictions,
                                  area_quanta, session, names, ranges,
                                  unit_areas, remember)
    best_allocation, best_eval = alloc0, eval0
    evaluations = 1
    skipped_infeasible = 0
    history = [(alloc0, eval0.speedup)] if keep_history else []
    prune = _empty_prune_stats()
    if warm_su is not None:
        # The warm-start evaluation exists only to seed the threshold:
        # account it as bound work, not as a scanned candidate.
        prune["bound_evaluations"] += 1
    primed = (alloc0, eval0, warm_su)
    if total > 1:
        if workers > 1 and total > 2:
            initial = objective.primary(eval0, library)
            if warm_su is not None and warm_su > initial:
                initial = warm_su
            shared = multiprocessing.Value("d", initial)
            outcome = _parallel_scan(
                bsbs, architecture, restrictions, area_quanta,
                keep_history, session, unit_areas, False, None,
                total - 1, min(workers, total - 1), search="pruned",
                primed=primed, offset=1, objective=objective,
                shared=shared)
        else:
            outcome = _scan_pruned_range(
                bsbs, architecture, area_quanta, keep_history, session,
                names, ranges, unit_areas, 1, total, primed, objective,
                remember)
        (range_allocation, range_eval, range_evaluations, range_skipped,
         range_history, _, range_prune) = outcome
        evaluations += range_evaluations
        skipped_infeasible += range_skipped
        history.extend(range_history)
        for stage, count in range_prune.items():
            prune[stage] += count
        if range_eval is not None:
            best_allocation, best_eval = range_allocation, range_eval
    return (best_allocation, best_eval, evaluations, skipped_infeasible,
            history, None, prune)


def _scan_pruned_range(bsbs, architecture, area_quanta, keep_history,
                       session, names, ranges, unit_areas, start, stop,
                       incumbent, objective, remember, shared=None):
    """Branch-and-bound over lexicographic indices ``[start, stop)``.

    The index range is walked as a mixed-radix prefix tree (first
    resource outermost, matching ``itertools.product``).  A node whose
    decided digits already exceed the ASIC area accounts its whole
    subtree as ``skipped_infeasible`` — and, since a digit only ever
    adds area, so do all of its later siblings at once.  A feasible
    node whose admissible bound on the objective's primary axis cannot
    beat the incumbent under the objective's tournament accounts its
    subtree as pruned: the default objective keeps the historical
    speed-up bound with its exact-tie area rule, area prunes on the
    negated prefix area (a digit only adds area), and energy prunes on
    the negated :meth:`~repro.core.bounds.BoundEngine.energy_floor`.
    Surviving leaves are evaluated in scan order through
    :func:`evaluate_allocation` with ``remember``.

    ``incumbent`` is the primed (allocation, evaluation, warm
    threshold) triple; the returned winner is ``(None, None, ...)``
    unless some leaf in the range strictly improved on the primed
    evaluation, which keeps the parallel reduction identical to the
    serial tournament.  ``shared``, when given, is a
    ``multiprocessing.Value`` holding the best primary value any
    parallel chunk has *achieved*; it is read as an extra strict-only
    prune threshold and advanced monotonically on every improvement,
    which cannot change the winner (a candidate tying the global
    optimum always bounds at or above any achieved value) but lets
    sibling chunks prune harder.
    """
    library = architecture.library
    caps = [len(counts) - 1 for counts in ranges]
    engine = BoundEngine(bsbs, architecture, names, caps, session.cache)
    axes = len(caps)
    # suffix[depth] = number of leaves below one node at that depth.
    suffix = [1] * (axes + 1)
    for axis in range(axes - 1, -1, -1):
        suffix[axis] = suffix[axis + 1] * (caps[axis] + 1)
    unit = [unit_areas[name] for name in names]
    total_area = architecture.total_area

    speedup_mode = objective.name == "speedup"
    energy_mode = objective.name == "energy"
    inc_allocation, inc_eval, warm_su = incumbent
    inc_su = inc_eval.speedup
    inc_area = inc_allocation.area(library)
    inc_primary = objective.primary(inc_eval, library)
    state = {"improved": False, "evaluations": 0,
             "skipped_infeasible": 0, "subtrees_pruned": 0,
             "bound_evaluations": 0, "pruned_leaves": 0}
    history = []
    digits = [0] * axes
    effective = list(caps)

    def descend(depth, node_lo, prefix_area):
        nonlocal inc_allocation, inc_eval, inc_su, inc_area, inc_primary
        if depth == axes:
            allocation = RMap._unchecked(
                {name: digit for name, digit in zip(names, digits)
                 if digit})
            evaluation = evaluate_allocation(bsbs, allocation, architecture,
                                             area_quanta=area_quanta,
                                             cache=session.cache,
                                             remember=remember)
            state["evaluations"] += 1
            if keep_history:
                history.append((allocation, evaluation.speedup))
            if objective.better(evaluation, inc_eval, library):
                inc_allocation, inc_eval = allocation, evaluation
                inc_su = evaluation.speedup
                inc_area = allocation.area(library)
                inc_primary = objective.primary(evaluation, library)
                state["improved"] = True
                if shared is not None:
                    with shared.get_lock():
                        if inc_primary > shared.value:
                            shared.value = inc_primary
            return
        span = suffix[depth + 1]
        for digit in range(caps[depth] + 1):
            child_lo = node_lo + digit * span
            if child_lo >= stop:
                break
            overlap = min(child_lo + span, stop) - max(child_lo, start)
            if overlap <= 0:
                continue
            area = prefix_area + digit * unit[depth]
            if area > total_area:
                # A digit only adds area, so every later sibling's
                # subtree is infeasible too: account them all and stop.
                state["skipped_infeasible"] += \
                    min(node_lo + suffix[depth], stop) \
                    - max(child_lo, start)
                break
            digits[depth] = digit
            effective[depth] = digit
            state["bound_evaluations"] += 1
            if speedup_mode:
                bound = engine.speedup_bound(effective, area)
                prunable = (warm_su is not None and bound < warm_su) \
                    or bound < inc_su \
                    or (bound == inc_su and area >= inc_area) \
                    or (shared is not None and bound < shared.value)
                # No completion can win the speed-up tournament: the
                # speed-up bound is admissible, the warm threshold (and
                # the shared best-known value) is achieved inside the
                # space and only prunes *strictly* worse subtrees, and
                # on an exact incumbent tie the area can only grow from
                # the prefix's.
            else:
                # Generic admissible upper bound on the primary axis:
                # higher-is-better, so area negates the prefix floor
                # and energy negates the completion energy floor.  The
                # comparisons are strict, so an exact tie with the
                # incumbent (or with a shared achieved value) is never
                # pruned and the scan-order tie-break survives.
                if energy_mode:
                    bound = -engine.energy_floor(effective)
                else:
                    bound = -area
                prunable = bound < inc_primary \
                    or (shared is not None and bound < shared.value)
            if prunable:
                state["subtrees_pruned"] += 1
                state["pruned_leaves"] += overlap
            else:
                descend(depth + 1, child_lo, area)
        digits[depth] = 0
        effective[depth] = caps[depth]

    descend(0, 0, 0)
    prune = {"subtrees_pruned": state["subtrees_pruned"],
             "bound_evaluations": state["bound_evaluations"],
             "pruned_leaves": state["pruned_leaves"]}
    if not state["improved"]:
        inc_allocation, inc_eval = None, None
    return (inc_allocation, inc_eval, state["evaluations"],
            state["skipped_infeasible"], history, None, prune)


def exhaustive_best_allocation(bsbs, architecture, restrictions=None,
                               max_evaluations=None, area_quanta=200,
                               keep_history=False, session=None,
                               workers=1, search="brute",
                               objective="speedup"):
    """Search the allocation space for the objective's best allocation.

    ``objective`` names the tournament ranking candidates (an
    :class:`~repro.core.objective.Objective` instance is accepted
    too).  The default ``"speedup"`` objective reproduces the paper's
    contract — highest speed-up, ties to the smaller data-path — bit
    for bit; ``"area"`` and ``"energy"`` minimise their axis with
    speed-up as tie-break; ``"pareto"`` keeps the default tournament
    for the single reported winner while additionally collecting the
    (speed-up, area, energy) dominance front over every evaluated
    candidate into the result's ``front``.  An objective without an
    admissible bound (``pareto`` needs every non-dominated point, so
    nothing may be pruned) silently downgrades ``search="pruned"`` to
    the brute scan; the result's ``search`` field reports what ran.

    When the space exceeds ``max_evaluations``, distinct feasible
    allocations are drawn pseudo-randomly (seeded, reproducible) until
    the budget is met — the result is then marked ``sampled``, matching
    the paper's treatment of eigen, where the "best" allocation came
    from numerous experiments rather than full enumeration.

    ``search`` selects how an *enumerated* space is walked.  ``"brute"``
    scans every candidate; ``"pruned"`` runs the branch-and-bound walk
    (admissible bounds over the allocation prefix tree, evaluating only
    the surviving leaves) whose winner — speed-up, allocation and
    tie-breaks included — is bit-identical to the brute scan's,
    typically after far fewer candidate evaluations.  The mode
    is ignored when the budget forces sampling; the result's ``search``
    field records what actually ran.

    Every candidate is evaluated through an engine
    :class:`~repro.engine.session.Session` (a private one when none is
    passed), whose cache collapses the thousands of candidate
    allocations onto the few distinct schedules, cost arrays and PACE
    sequence tables they actually induce.  A shared session lets the
    search reuse work done by earlier evaluations of the same BSBs —
    and vice versa; a session opened with ``cache_dir`` additionally
    persists that work across process restarts.

    ``workers`` > 1 splits the candidate stream into contiguous chunks
    scanned by worker processes (each holding a session of its own,
    sharing the parent's persistent store when there is one).  The
    chunk winners are reduced with the deterministic objective
    tournament in chunk order and the per-worker cache accounting is
    merged into the parent session's stats, so the parallel search is
    bit-identical to — just faster than — the serial one.
    """
    if session is None:
        from repro.engine.session import Session

        session = Session(library=architecture.library)
    if workers < 1:
        raise AllocationError("workers must be >= 1, got %r" % (workers,))
    if search not in SEARCH_MODES:
        raise AllocationError("search must be one of %r, got %r"
                              % (SEARCH_MODES, search))
    objective = as_objective(objective)
    if search == "pruned" and not objective.bounded:
        search = "brute"
    library = architecture.library
    # Register the BSBs with the session's persistent store (and
    # hydrate their entries) no matter how the search was entered —
    # with explicit restrictions the session.restrictions() path below
    # is skipped, and without this the store would sit inert.
    session._adopt(bsbs, library=library)
    if restrictions is None:
        restrictions = session.restrictions(bsbs, library=library)
    names, ranges = allocation_space(bsbs, library,
                                     restrictions=restrictions)
    total = 1
    for counts in ranges:
        total *= len(counts)
    unit_areas = {name: library.area_of(name) for name in names}
    sampled = (max_evaluations is not None and total > max_evaluations)
    # remember="partitions": each candidate is visited exactly once, so
    # storing one whole evaluation per candidate would grow the session
    # cache linearly for ~zero in-process hits; schedules, cost arrays
    # and sequence tables still collapse across candidates.  PACE DP
    # results *are* remembered when a persistent store backs the
    # session — a warm restart replays them from disk — and dropped
    # otherwise.
    remember = "partitions" if session.store is not None else False

    skipped_infeasible = 0
    if sampled:
        candidates, skipped_infeasible = _draw_feasible_samples(
            names, ranges, max_evaluations, unit_areas,
            architecture.total_area, total)
        workload = len(candidates)
    elif search == "pruned":
        candidates = None  # the prefix-tree walk enumerates itself
        workload = total
    else:
        candidates = enumerate_allocations(bsbs, library,
                                           restrictions=restrictions)
        workload = total

    if not sampled and search == "pruned":
        outcome = _scan_pruned(bsbs, architecture, restrictions,
                               area_quanta, keep_history, session,
                               names, ranges, unit_areas, total, workers,
                               objective, remember)
    elif workers > 1 and workload > 1:
        outcome = _parallel_scan(
            bsbs, architecture, restrictions, area_quanta, keep_history,
            session, unit_areas, sampled, candidates, workload,
            min(workers, workload), objective=objective)
    else:
        outcome = _scan_candidates(candidates, bsbs, architecture,
                                   area_quanta, keep_history, session,
                                   unit_areas,
                                   check_area=not sampled,
                                   objective=objective,
                                   remember=remember) \
            + (_empty_prune_stats(),)
    (best_allocation, best_eval, evaluations, skipped_scanning,
     history, front, prune) = outcome
    skipped_infeasible += skipped_scanning
    # Persist what this search learned (worker deltas included) right
    # away — searches are long and a crash should not lose them.  For a
    # fully warm search the flush skips itself; callers batching many
    # searches on one session pay one shard rewrite per search that
    # actually computed something new.
    session.save_store()

    if best_eval is None:
        raise AllocationError("no feasible allocation fits the ASIC area")
    return ExhaustiveResult(
        best_allocation=best_allocation,
        best_evaluation=best_eval,
        evaluations=evaluations,
        space=total,
        sampled=sampled,
        skipped_infeasible=skipped_infeasible,
        history=history,
        search="sampled" if sampled else search,
        history_order="sampled" if sampled else "scan",
        subtrees_pruned=prune["subtrees_pruned"],
        bound_evaluations=prune["bound_evaluations"],
        pruned_leaves=prune["pruned_leaves"],
        objective=objective.name,
        front=front,
    )


# ----------------------------------------------------------------------
# Worker-process plumbing for the parallel candidate scan
# ----------------------------------------------------------------------
#: Chunks handed out per worker: more than one so a lucky worker that
#: finishes early picks up another slice instead of idling, while the
#: chunks stay contiguous (the reduction depends on chunk order, not on
#: completion order, so load balancing never affects the result).
_CHUNKS_PER_WORKER = 4

_WORKER_SCAN_CONTEXT = None


def _parallel_scan(bsbs, architecture, restrictions, area_quanta,
                   keep_history, session, unit_areas, sampled,
                   candidates, workload, workers, search="brute",
                   primed=None, offset=0, objective=None, shared=None):
    """Fan the candidate stream out over a pool; reduce chunk winners.

    Chunks are contiguous slices of the exact stream the serial loop
    would scan — index ranges re-enumerated inside each worker for the
    enumerated searches (shipping ~10^6 RMaps would swamp the pipes),
    the pre-drawn candidate slices themselves for the sampled search.
    A pruned search chunks the index range ``[offset, offset +
    workload)`` and hands every worker the ``primed`` incumbent (plus
    the ``shared`` best-known primary value, tightened mid-flight), so
    the chunks prune independently against a common initial bound; each
    returns a winner only where it *improved* on that incumbent, which
    keeps the chunk-order reduction identical to the serial tournament.
    A Pareto objective's chunk fronts are merged in chunk order —
    dominance is order-independent and an exact vector tie keeps the
    first point in scan order either way, so the merged front equals
    the serial scan's.
    """
    objective = as_objective(objective)
    chunk_count = min(workload, workers * _CHUNKS_PER_WORKER)
    bounds = [offset + (index * workload) // chunk_count
              for index in range(chunk_count + 1)]
    if sampled:
        specs = [("list", candidates[start:stop])
                 for start, stop in zip(bounds, bounds[1:])
                 if stop > start]
    else:
        kind = "prange" if search == "pruned" else "range"
        specs = [(kind, (start, stop))
                 for start, stop in zip(bounds, bounds[1:])
                 if stop > start]
    cache_dir = None if session.store is None else session.store.root
    # Spill the parent's cache first: work the session already did
    # (allocations, evaluations, earlier searches) reaches the workers
    # through their hydration instead of being recomputed per worker.
    session.save_store()
    with multiprocessing.Pool(
            processes=workers,
            initializer=_scan_worker_init,
            initargs=(bsbs, architecture, restrictions, area_quanta,
                      keep_history, cache_dir, primed, objective.name,
                      shared)) as pool:
        results = pool.map(_scan_worker_chunk, specs, chunksize=1)

    best_eval = None
    best_allocation = None
    evaluations = 0
    skipped_infeasible = 0
    history = []
    front = objective.new_front() if hasattr(objective, "new_front") \
        else None
    prune = _empty_prune_stats()
    library = architecture.library
    for (chunk_allocation, chunk_eval, chunk_evaluations, chunk_skipped,
         chunk_history, chunk_front, chunk_prune, stats_delta,
         store_delta) in results:
        session.stats.merge(stats_delta)
        if session.store is not None and store_delta:
            session.store.absorb_delta(store_delta)
        evaluations += chunk_evaluations
        skipped_infeasible += chunk_skipped
        history.extend(chunk_history)
        if front is not None and chunk_front is not None:
            front.merge(chunk_front)
        if chunk_prune is not None:
            for stage, count in chunk_prune.items():
                prune[stage] += count
        if chunk_eval is None:
            continue
        if best_eval is None or objective.better(chunk_eval, best_eval,
                                                 library):
            best_eval = chunk_eval
            best_allocation = chunk_allocation
    return (best_allocation, best_eval, evaluations, skipped_infeasible,
            history, front, prune)


def _scan_worker_init(bsbs, architecture, restrictions, area_quanta,
                      keep_history, cache_dir, primed=None,
                      objective_name=None, shared=None):
    global _WORKER_SCAN_CONTEXT
    from repro.engine.session import Session

    session = Session(library=architecture.library, cache_dir=cache_dir)
    session._adopt(bsbs)
    names, ranges = allocation_space(bsbs, architecture.library,
                                     restrictions=restrictions)
    unit_areas = {name: architecture.library.area_of(name)
                  for name in names}
    # Objectives are stateless singletons: the *name* crosses the
    # process boundary and resolves to this process's instance.
    objective = as_objective(objective_name)
    # Same rule as exhaustive_best_allocation: this session has a store
    # exactly when the parent's has.
    remember = "partitions" if session.store is not None else False
    _WORKER_SCAN_CONTEXT = (bsbs, architecture, area_quanta,
                            keep_history, session, unit_areas,
                            names, ranges, primed, objective, remember,
                            shared)


def _scan_worker_chunk(spec):
    """Scan one contiguous chunk; ship the winner and accounting back."""
    (bsbs, architecture, area_quanta, keep_history, session, unit_areas,
     names, ranges, primed, objective, remember,
     shared) = _WORKER_SCAN_CONTEXT
    kind, payload = spec
    before = session.stats.snapshot()
    if kind == "prange":
        start, stop = payload
        outcome = _scan_pruned_range(bsbs, architecture, area_quanta,
                                     keep_history, session, names,
                                     ranges, unit_areas, start, stop,
                                     primed, objective, remember,
                                     shared=shared)
    else:
        if kind == "range":
            start, stop = payload
            candidates = _enumerate_slice(names, ranges, start, stop)
            check_area = True
        else:
            candidates = payload
            check_area = False
        outcome = _scan_candidates(candidates, bsbs, architecture,
                                   area_quanta, keep_history, session,
                                   unit_areas, check_area=check_area,
                                   objective=objective,
                                   remember=remember) \
            + (None,)
    # New cache entries ship back stable-encoded; the parent session —
    # the store's one writer — spills them in its final flush.
    store_delta = None if session.store is None \
        else session.store.export_delta(session.cache)
    from repro.engine.cache import CacheStats

    return outcome + (CacheStats.delta(before,
                                       session.stats.snapshot()),
                      store_delta)
