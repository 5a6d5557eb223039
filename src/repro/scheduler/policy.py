"""Harvesting scheduler policies: how much to borrow, and from whom.

The paper's closing argument (§5) is that a resource harvester should
not pick one global contention cap: it should *measure* user comfort and
borrow up to each (task, resource) cell's comfort threshold.  This
module turns that argument into three competing, swappable policies:

* ``static`` — the strawman every deployment starts with: one fixed
  fraction of each cell's contention cap, no feedback, no admission
  control.
* ``aimd`` — the TCP-style feedback loop already shipped as
  :class:`~repro.throttle.controller.FeedbackController`: multiplicative
  backoff on discomfort, additive recovery while comfortable.
* ``cdf`` — the paper's proposal: admission control plus a dynamic
  throttle driven by the measured discomfort CDF.  The policy counts
  every discomfort level into per-cell cumulative buckets over the
  client ``uucs_discomfort_level`` histogram's bounds, reads ``c_a``
  from them with the :func:`repro.util.comfort.quantile_from_buckets`
  kernel and the 4-place rounding
  :func:`repro.telemetry.web.comfort_cells` applies to the dashboard's
  ``c_q`` (a property test pins the two equal), and keeps its ceiling a
  safety margin below ``c_a``, where ``a`` is the configured
  discomfort-event budget.  When a cell's realized discomfort rate
  overruns the budget, new borrow requests for that cell are denied
  until the rate amortizes back under it.

Policies are deterministic value machines: they draw no randomness and
read no clocks, so a fleet simulation over them is byte-reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.resources import CONTENTION_LIMITS, Resource
from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.errors import SchedulerError
from repro.paperdata import RAMP_PARAMS
from repro.telemetry import Telemetry
from repro.throttle import FeedbackController, Throttle
from repro.util.comfort import quantile_from_buckets

__all__ = [
    "SCHEDULER_POLICIES",
    "AIMDPolicy",
    "CDFPolicy",
    "SchedulerDecision",
    "SchedulerPolicy",
    "StaticPolicy",
    "build_policy",
    "cell_cap",
]


#: ``static`` borrows this fraction of each cell's cap.
STATIC_FRACTION = 0.5
#: ``aimd`` multiplies a cell's ceiling by this on each discomfort.
AIMD_BACKOFF = 0.5
#: ``aimd`` recovers this fraction of a cell's cap per comfortable minute.
AIMD_RECOVERY_FRACTION = 0.05
#: ``cdf`` starts each cell's ceiling at this fraction of its cap.
CDF_START_FRACTION = 0.1
#: ``cdf`` climbs this fraction of a cell's cap per comfortable minute.
CDF_CLIMB_FRACTION = 0.3
#: ``cdf`` multiplies a cell's ceiling by at most this on each discomfort.
CDF_SOFT_BACKOFF = 0.9
#: ``cdf`` keeps a cell's ceiling at most this fraction of its ``c_a``.
CDF_SAFETY = 0.75
#: ``cdf`` admits a cell's first this-many decisions whatever its rate.
CDF_MIN_OBSERVATIONS = 4
#: ``aimd`` and ``cdf`` never back a cell off below this fraction of its cap.
FLOOR_FRACTION = 0.02

#: Each studied cell's cap: its ramp maximum, within its resource's limit.
_STUDIED_CAPS: dict[tuple[str, Resource], float] = {
    (task, resource): min(ramp[0], CONTENTION_LIMITS[resource])
    for (task, resource), ramp in RAMP_PARAMS.items()
}


def cell_cap(task: str, resource: Resource) -> float:
    """The borrowing ceiling a (task, resource) cell may never exceed.

    The study ramps (:data:`~repro.paperdata.RAMP_PARAMS`) explored each
    cell up to a per-cell maximum; outside the studied cells the
    resource-wide :data:`~repro.core.resources.CONTENTION_LIMITS` cap
    applies.  The cap is also what keeps every policy's ceiling inside
    :meth:`~repro.throttle.throttle.Throttle.set_ceiling`'s envelope.
    """
    cap = _STUDIED_CAPS.get((task, resource))
    return CONTENTION_LIMITS[resource] if cap is None else cap


class SchedulerDecision(NamedTuple):
    """One admission-control verdict for a borrow request."""

    #: Whether the request may borrow at all this epoch.
    admitted: bool
    #: The contention ceiling granted (the cell's current setpoint,
    #: reported even on denial so callers can log the withheld level).
    ceiling: float


class SchedulerPolicy:
    """Base class: per-cell admission + ceiling decisions from feedback.

    Subclasses keep whatever per-(task, resource) state they need; the
    fleet driver calls :meth:`decide` once per borrow request and then
    reports the outcome through exactly one of :meth:`on_discomfort` /
    :meth:`on_comfortable`.  Implementations must be deterministic —
    no randomness, no wall clocks — so seeded fleet runs replay exactly.
    """

    def __init__(self, budget: float = 0.05):
        """``budget`` is the discomfort-event rate ``cdf`` targets;
        ``static`` and ``aimd`` have none and ignore it."""

    def decide(self, task: str, resource: Resource) -> SchedulerDecision:
        """Admission verdict + granted ceiling for one borrow request."""
        raise NotImplementedError

    def on_discomfort(self, task: str, resource: Resource, level: float) -> None:
        """The user reacted while borrowing at ``level`` in this cell."""
        raise NotImplementedError

    def on_comfortable(
        self, task: str, resource: Resource, elapsed_s: float
    ) -> None:
        """``elapsed_s`` seconds of borrowing passed without a reaction."""
        raise NotImplementedError


class StaticPolicy(SchedulerPolicy):
    """Fixed-ceiling borrowing: :data:`STATIC_FRACTION` of each cell's
    cap, always.

    No feedback path and no admission control — the pre-measurement
    baseline the paper argues against.  Its discomfort rate is whatever
    the population's tolerance CDF says it is at that fixed level.
    """

    def decide(self, task: str, resource: Resource) -> SchedulerDecision:
        return SchedulerDecision(True, STATIC_FRACTION * cell_cap(task, resource))

    def on_discomfort(self, task: str, resource: Resource, level: float) -> None:
        pass  # deaf by design

    def on_comfortable(
        self, task: str, resource: Resource, elapsed_s: float
    ) -> None:
        pass


class AIMDPolicy(SchedulerPolicy):
    """Per-cell AIMD feedback via :class:`FeedbackController`.

    Each (task, resource) cell lazily gets its own controller starting
    at the cell cap (AIMD probes from the top): discomfort multiplies
    the ceiling by :data:`AIMD_BACKOFF`, comfortable time recovers it
    additively at :data:`AIMD_RECOVERY_FRACTION` of the cap per minute.
    Every request is admitted — AIMD shapes *how much* is borrowed,
    never *whether*.
    """

    def __init__(self, budget: float = 0.05):
        self._controllers: dict[tuple[str, Resource], FeedbackController] = {}
        # One explicitly-disabled hub shared by every controller: policy
        # decisions must never write metrics behind the fleet driver's
        # back (and must cost nothing when telemetry is off).
        self._telemetry = Telemetry.disabled()

    def _controller(self, task: str, resource: Resource) -> FeedbackController:
        cell = (task, resource)
        controller = self._controllers.get(cell)
        if controller is None:
            cap = cell_cap(task, resource)
            controller = self._controllers[cell] = FeedbackController(
                Throttle(resource),
                max_level=cap,
                backoff=AIMD_BACKOFF,
                recovery_per_minute=AIMD_RECOVERY_FRACTION * cap,
                floor=FLOOR_FRACTION * cap,
                telemetry=self._telemetry,
            )
        return controller

    def decide(self, task: str, resource: Resource) -> SchedulerDecision:
        return SchedulerDecision(
            True, self._controller(task, resource).throttle.ceiling
        )

    def on_discomfort(self, task: str, resource: Resource, level: float) -> None:
        self._controller(task, resource).on_discomfort()

    def on_comfortable(
        self, task: str, resource: Resource, elapsed_s: float
    ) -> None:
        self._controller(task, resource).on_comfortable(elapsed_s)


class _CDFCell:
    """One (task, resource) cell of :class:`CDFPolicy`; ``counts[i]``
    counts its discomfort levels ``<= DISCOMFORT_LEVEL_BUCKETS[i]``."""

    __slots__ = ("cap", "floor", "ceiling", "decisions", "discomforts",
                 "counts")

    def __init__(self, cap: float, floor: float, ceiling: float):
        self.cap, self.floor, self.ceiling = cap, floor, ceiling
        self.decisions = self.discomforts = 0
        self.counts = [0] * len(DISCOMFORT_LEVEL_BUCKETS)


class CDFPolicy(SchedulerPolicy):
    """CDF-driven admission control + dynamic throttle (the paper's §5).

    Ceiling control: each cell starts probing at
    :data:`CDF_START_FRACTION` of its cap and climbs additively toward
    the cap while comfortable.  Every discomfort level is counted into
    the cell's cumulative buckets over the client
    ``uucs_discomfort_level`` histogram's bounds, and its ``c_a`` — the
    ``budget``-quantile of that measured discomfort CDF — is read with
    :func:`~repro.util.comfort.quantile_from_buckets` and the 4-place
    rounding of :func:`repro.telemetry.web.comfort_cells`, so it equals
    the dashboard's ``c_q`` (a property test pins it).  The level is
    counted before ``c_a`` is read, so every discomfort has a measured
    CDF behind it: the ceiling drops straight to :data:`CDF_SAFETY`
    times ``c_a`` — the measured budget-compliant setpoint — instead of
    blindly halving, so one event re-seats the cell where the CDF says
    at most a ``budget`` fraction of reactions lie below.

    Admission control: a cell whose realized discomfort-event rate
    (events per decision) exceeds ``budget`` stops admitting requests.
    Denied epochs still count as decisions, so the rate amortizes back
    under budget and borrowing resumes — a measured duty cycle rather
    than a permanent blacklist.
    """

    def __init__(self, budget: float = 0.05):
        if not 0.0 < budget < 1.0:
            raise SchedulerError(f"budget must be in (0, 1), got {budget}")
        self._budget = float(budget)
        self._cells: dict[tuple[str, Resource], _CDFCell] = {}

    @property
    def budget(self) -> float:
        """Target discomfort-event rate (events per borrow decision)."""
        return self._budget

    def _add(self, task: str, resource: Resource) -> _CDFCell:
        """A new record for a cell this policy has not met yet."""
        cap = cell_cap(task, resource)
        cell = self._cells[task, resource] = _CDFCell(
            cap, FLOOR_FRACTION * cap, CDF_START_FRACTION * cap
        )
        return cell

    def _c_a_for(self, cell: tuple[str, Resource]) -> float | None:
        """This cell's measured ``c_a`` (``None`` before any discomfort).

        Rounded to 4 places, as ``comfort_cells`` rounds its ``c_q``.
        """
        state = self._cells.get(cell)
        if state is None or not state.discomforts:
            return None
        return self._c_a(state)

    def _c_a(self, cell: _CDFCell) -> float:
        """``c_a`` of a cell that has counted a discomfort."""
        c_a = quantile_from_buckets(
            DISCOMFORT_LEVEL_BUCKETS, cell.counts, cell.discomforts,
            self._budget,
        )
        return round(c_a, 4)

    def decide(self, task: str, resource: Resource) -> SchedulerDecision:
        cell = self._cells.get((task, resource)) or self._add(task, resource)
        decisions = cell.decisions
        cell.decisions = decisions + 1
        over_budget = (
            decisions >= CDF_MIN_OBSERVATIONS
            and cell.discomforts > self._budget * decisions
        )
        return SchedulerDecision(not over_budget, cell.ceiling)

    def on_discomfort(self, task: str, resource: Resource, level: float) -> None:
        cell = self._cells.get((task, resource)) or self._add(task, resource)
        cell.discomforts += 1
        level = float(level)
        counts = cell.counts
        for i, bound in enumerate(DISCOMFORT_LEVEL_BUCKETS):
            if level <= bound:
                counts[i] += 1
        # The measured CDF (never empty: the level was just counted)
        # says where to sit: the budget-quantile of observed discomfort
        # levels, shaded by the safety margin.  The soft step keeps every
        # discomfort a strict decrease even when the ceiling is already
        # at or below the CDF target.
        target = min(
            cell.ceiling * CDF_SOFT_BACKOFF,
            CDF_SAFETY * self._c_a(cell),
        )
        cell.ceiling = max(cell.floor, target)

    def on_comfortable(
        self, task: str, resource: Resource, elapsed_s: float
    ) -> None:
        cell = self._cells.get((task, resource)) or self._add(task, resource)
        cap = cell.cap
        gain = CDF_CLIMB_FRACTION * cap * elapsed_s / 60.0
        cell.ceiling = max(cell.floor, min(cap, cell.ceiling + gain))


#: name -> policy class; :func:`build_policy` and the CLI look up here.
SCHEDULER_POLICIES: dict[str, type[SchedulerPolicy]] = {
    "static": StaticPolicy,
    "aimd": AIMDPolicy,
    "cdf": CDFPolicy,
}


def build_policy(name: str, budget: float = 0.05) -> SchedulerPolicy:
    """A new policy ``name``; only ``cdf`` reads ``budget``."""
    try:
        cls = SCHEDULER_POLICIES[name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler policy {name!r}; "
            f"available: {', '.join(sorted(SCHEDULER_POLICIES))}"
        ) from None
    return cls(budget)
