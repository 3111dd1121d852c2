"""Immutable coordinates of one point in the design space.

A :class:`DesignPoint` names everything that distinguishes one
exploration run from another — the application, the ASIC area, the
module-selection policy and the PACE resolution — and nothing else, so
two equal points always denote the same pipeline computation.  That is
what makes points usable as cache keys and safe to ship to worker
processes.
"""

from dataclasses import dataclass, field

from repro.errors import ReproError

#: Module-selection policies understood by the engine (None means the
#: paper's designated-unit Algorithm 1).
POLICY_NAMES = ("fastest", "cheapest", "balanced")


@dataclass(frozen=True)
class DesignPoint:
    """One point of the exploration grid.

    Attributes:
        app: Benchmark name from the application registry
            (``straight``, ``hal``, ``man``, ``eigen``).
        area: Total ASIC area in gate equivalents; ``None`` uses the
            registry spec's Table 1 area.
        policy: Module-selection policy name (one of
            :data:`POLICY_NAMES`) or ``None`` for the designated-unit
            Algorithm 1 of the paper.
        quanta: PACE area-axis resolution, an ``int`` >= 1.
        comm_cycles_per_word: HW/SW interface cost in CPU cycles.
    """

    app: str
    area: float = None
    policy: str = None
    quanta: int = 150
    comm_cycles_per_word: float = 4.0

    def __post_init__(self):
        if not isinstance(self.app, str) or not self.app:
            raise ReproError("DesignPoint.app must be a benchmark name, "
                             "got %r" % (self.app,))
        if self.area is not None and self.area <= 0:
            raise ReproError("DesignPoint.area must be positive, got %r"
                             % (self.area,))
        if self.policy is not None and self.policy not in POLICY_NAMES:
            raise ReproError(
                "DesignPoint.policy must be one of %s or None, got %r"
                % (", ".join(POLICY_NAMES), self.policy))
        if (not isinstance(self.quanta, int)
                or isinstance(self.quanta, bool) or self.quanta < 1):
            raise ReproError("DesignPoint.quanta must be an int >= 1, "
                             "got %r" % (self.quanta,))
        if self.comm_cycles_per_word < 0:
            raise ReproError("DesignPoint.comm_cycles_per_word must be "
                             ">= 0, got %r" % (self.comm_cycles_per_word,))


@dataclass(frozen=True)
class PointError:
    """Picklable capture of the exception one design point died on.

    A long-lived batch (or service job) cannot let one infeasible point
    abort the rest, and it cannot ship live exception objects across
    process boundaries either — tracebacks hold frames, frames hold
    arbitrary unpicklable state.  What travels instead is the stable
    pair every caller actually needs: the exception class name and its
    message.

    Attributes:
        kind: Exception class name (``"ReproError"``, ``"KeyError"``…).
        message: ``str(exception)`` at capture time.
    """

    kind: str
    message: str

    @classmethod
    def from_exception(cls, exc):
        return cls(kind=type(exc).__name__, message=str(exc))

    def __str__(self):
        return "%s: %s" % (self.kind, self.message)


@dataclass(frozen=True)
class PointResult:
    """Outcome of exploring one :class:`DesignPoint`.

    Attributes:
        point: The explored point.
        allocation: Allocation the point's allocator produced
            (``None`` for a failed point).
        speedup: PACE speed-up percentage of that allocation.
        datapath_area: Data-path area the allocation consumes.
        energy: Modelled energy of the partitioned execution (see
            :func:`~repro.partition.model.partition_energy`); 0.0 for
            a failed point.
        hw_names: BSBs the partition moved to hardware.
        evaluation: The full
            :class:`~repro.partition.evaluate.AllocationEvaluation`.
        error: ``None`` for a successful point, else the
            :class:`PointError` captured when the pipeline raised —
            the per-point error contract of ``Session.explore(...,
            on_error="capture")`` and of the exploration service.
    """

    point: DesignPoint
    allocation: object
    speedup: float
    datapath_area: float
    energy: float = 0.0
    hw_names: tuple = field(default_factory=tuple)
    evaluation: object = None
    error: object = None

    @property
    def ok(self):
        """True when the point completed (``error`` is ``None``)."""
        return self.error is None


def failed_point_result(point, exc):
    """The :class:`PointResult` standing in for a point that raised."""
    return PointResult(point=point, allocation=None, speedup=0.0,
                       datapath_area=0.0,
                       error=PointError.from_exception(exc))
