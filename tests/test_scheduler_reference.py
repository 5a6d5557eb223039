"""The fleet simulation against the scalar loop it replaced.

``reference_simulate_clients``, ``ReferenceCDFPolicy`` and
``ReferenceUser.threshold_for`` below are the fleet loop, the ``cdf``
policy and the threshold draw as they were before the loop drew tasks
in blocks and bound its methods once per client, the policy kept one
record per cell, and ``SimulatedUser.threshold_for`` kept each cell's
constants: one scalar ``integers`` call per epoch, an aggregate key
and row built per decision, three dicts plus a labelled ``Histogram``
of cell state, and a spec lookup and skill shift per draw.  They are
kept verbatim, except that the reference loop builds a
``ReferenceUser`` and takes its policy builder as an argument, so every
decision either side makes can be recorded.

The properties hold the current code to them: equal per-cell
aggregates for every policy, and for ``cdf`` the same
``(admitted, ceiling)`` decision stream and the same ``c_a`` in every
cell.  A second property pins the contract the block draws rest on:
sized ``integers(n, size=k)`` calls give the values of scalar
``integers(n)`` calls, wherever the block boundaries fall.
"""

import itertools
import math
from typing import ClassVar
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resources import Resource
from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.errors import SchedulerError
from repro.paperdata import STUDY_TASKS
from repro.scheduler import fleet
from repro.scheduler.fleet import (
    _AGG_FIELDS,
    _TASK_BLOCK,
    FLEET_RESOURCES,
    FleetConfig,
    SimulatedUser,
    _task_stream,
    derive_rng,
    paper_calibrated_table,
    sample_profile,
    simulate_clients,
)
from repro.scheduler.policy import (
    SchedulerDecision,
    SchedulerPolicy,
    build_policy,
    cell_cap,
)
from repro.telemetry.metrics import Histogram
from repro.util import rng as rng_mod

ALL_CELLS = [
    (task, resource) for task in STUDY_TASKS for resource in FLEET_RESOURCES
]


class ReferenceCDFPolicy(SchedulerPolicy):
    """CDF-driven admission control + dynamic throttle (the paper's §5).

    Ceiling control: each cell starts probing at ``start_fraction`` of
    its cap and climbs additively toward the cap while comfortable.
    Every discomfort event is observed into a private
    ``uucs_discomfort_level`` histogram (the client instrument's exact
    shape: same name, same label set, same buckets), and the cell's
    ``c_a`` — the ``budget``-quantile of that measured discomfort CDF —
    is read from it with the quantile kernel and rounding the fleet
    dashboard's :func:`repro.telemetry.web.comfort_cells` uses.  The
    event is observed before ``c_a`` is read, so every discomfort has a
    measured CDF behind it: the ceiling drops straight to ``safety *
    c_a`` — the measured budget-compliant setpoint — instead of blindly
    halving, so one event re-seats the cell where the CDF says at most
    a ``budget`` fraction of reactions lie below.

    Admission control: a cell whose realized discomfort-event rate
    (events per decision) exceeds ``budget`` stops admitting requests.
    Denied epochs still count as decisions, so the rate amortizes back
    under budget and borrowing resumes — a measured duty cycle rather
    than a permanent blacklist.
    """

    name: ClassVar[str] = "cdf"

    def __init__(
        self,
        budget: float = 0.05,
        start_fraction: float = 0.1,
        climb_fraction: float = 0.3,
        soft_backoff: float = 0.9,
        safety: float = 0.75,
        floor_fraction: float = 0.02,
        min_observations: int = 4,
    ):
        if not 0.0 < budget < 1.0:
            raise SchedulerError(f"budget must be in (0, 1), got {budget}")
        if not 0.0 < soft_backoff < 1.0:
            raise SchedulerError(
                f"soft_backoff must be in (0,1), got {soft_backoff}"
            )
        if not 0.0 < safety <= 1.0:
            raise SchedulerError(f"safety must be in (0, 1], got {safety}")
        if not 0.0 < start_fraction <= 1.0:
            raise SchedulerError("start_fraction must be in (0, 1]")
        if climb_fraction <= 0:
            raise SchedulerError("climb_fraction must be > 0")
        if not 0.0 <= floor_fraction < 1.0:
            raise SchedulerError("floor_fraction must be in [0, 1)")
        if min_observations < 1:
            raise SchedulerError("min_observations must be >= 1")
        self._budget = float(budget)
        self._start = float(start_fraction)
        self._climb = float(climb_fraction)
        self._soft_backoff = float(soft_backoff)
        self._safety = float(safety)
        self._floor = float(floor_fraction)
        self._min_observations = int(min_observations)
        self._histogram = Histogram(
            "uucs_discomfort_level",
            "Contention levels at which this scheduler drew discomfort.",
            unit="level",
            labelnames=("task", "resource"),
            buckets=DISCOMFORT_LEVEL_BUCKETS,
        )
        self._ceilings: dict[tuple[str, Resource], float] = {}
        self._decisions: dict[tuple[str, Resource], int] = {}
        self._discomforts: dict[tuple[str, Resource], int] = {}

    @classmethod
    def build(cls, budget: float = 0.05) -> "ReferenceCDFPolicy":
        """Construct targeting ``budget`` discomfort events per decision."""
        return cls(budget=budget)

    @property
    def budget(self) -> float:
        """Target discomfort-event rate (events per borrow decision)."""
        return self._budget

    def _c_a_for(self, cell: tuple[str, Resource]) -> float | None:
        """This cell's measured ``c_a`` (``None`` before any discomfort).

        Rounded to 4 places, as ``comfort_cells`` rounds its ``c_q``.
        """
        task, resource = cell
        c_a = self._histogram.quantile(
            self._budget, task=task, resource=resource.value
        )
        return round(c_a, 4) if c_a is not None else None

    def _ceiling(self, cell: tuple[str, Resource]) -> float:
        ceiling = self._ceilings.get(cell)
        if ceiling is None:
            ceiling = self._ceilings[cell] = self._start * cell_cap(*cell)
        return ceiling

    def decide(self, task: str, resource: Resource) -> SchedulerDecision:
        cell = (task, resource)
        ceiling = self._ceiling(cell)
        decisions = self._decisions.get(cell, 0)
        discomforts = self._discomforts.get(cell, 0)
        self._decisions[cell] = decisions + 1
        over_budget = (
            decisions >= self._min_observations
            and discomforts > self._budget * decisions
        )
        return SchedulerDecision(not over_budget, ceiling)

    def on_discomfort(self, task: str, resource: Resource, level: float) -> None:
        cell = (task, resource)
        self._discomforts[cell] = self._discomforts.get(cell, 0) + 1
        self._histogram.observe(
            float(level), task=task, resource=resource.value
        )
        floor = self._floor * cell_cap(task, resource)
        # The measured CDF (never empty: the level was just observed)
        # says where to sit: the budget-quantile of observed discomfort
        # levels, shaded by the safety margin.  The soft step keeps every
        # discomfort a strict decrease even when the ceiling is already
        # at or below the CDF target.
        target = min(
            self._ceiling(cell) * self._soft_backoff,
            self._safety * self._c_a_for(cell),
        )
        self._ceilings[cell] = max(floor, target)

    def on_comfortable(
        self, task: str, resource: Resource, elapsed_s: float
    ) -> None:
        cell = (task, resource)
        cap = cell_cap(task, resource)
        floor = self._floor * cap
        gain = self._climb * cap * elapsed_s / 60.0
        self._ceilings[cell] = max(floor, min(cap, self._ceiling(cell) + gain))


class ReferenceUser(SimulatedUser):
    def threshold_for(
        self, task: str, resource: Resource, shape: str
    ) -> float:
        """Sample this user's effective threshold for one run.

        ``inf`` means the user never reacts in the explored range.
        """
        spec = self._table.spec(task, resource)
        base = spec.sample_threshold(self._rng)
        if math.isinf(base):
            return base
        threshold = base * self._profile.tolerance_factor
        threshold += self._skill_shift(task, spec.mean_threshold())
        if shape != "ramp":
            threshold -= spec.ramp_bonus
        return max(1e-3, threshold)


def reference_simulate_clients(
    config: FleetConfig, start: int, stop: int, build_policy
) -> dict[str, list[int]]:
    """Simulate clients ``[start, stop)``; per-cell integer aggregates.

    The returned mapping keys are ``"task,resource"`` and each value
    lists the :data:`_AGG_FIELDS` counts in order.  Depends only on
    ``(config, start, stop)`` — module-level and picklable, so it runs
    identically in-process, forked, or spawned.
    """
    if not 0 <= start <= stop <= config.clients:
        raise SchedulerError(
            f"bad client range [{start}, {stop}) for {config.clients} clients"
        )
    table = paper_calibrated_table()
    epoch_s = float(config.epoch_seconds)
    aggregates: dict[str, list[int]] = {}
    for index in range(start, stop):
        profile = sample_profile(
            f"fleet-{index:06d}", derive_rng(config.seed, "fleet-profile", index)
        )
        user = ReferenceUser(
            profile, table, seed=derive_rng(config.seed, "fleet-behavior", index)
        )
        task_rng = derive_rng(config.seed, "fleet-tasks", index)
        policy = build_policy(config.policy, budget=config.budget)
        # The user notices sustained contention only after their mean
        # reaction delay; a discomforted epoch harvests just that window.
        reaction_s = min(float(profile.reaction_delay_mean), epoch_s)
        cooldown = 0
        for _ in range(config.epochs):
            if cooldown > 0:
                cooldown -= 1
                continue
            task = STUDY_TASKS[int(task_rng.integers(len(STUDY_TASKS)))]
            epoch_discomforted = False
            for resource in FLEET_RESOURCES:
                decision = policy.decide(task, resource)
                cell = aggregates.setdefault(
                    f"{task},{resource.value}", [0] * len(_AGG_FIELDS)
                )
                cell[0] += 1  # decisions
                if not decision.admitted:
                    cell[2] += 1  # denials
                    continue
                ceiling = decision.ceiling
                cell[1] += 1  # admitted
                cell[5] += round(ceiling * 1000.0)  # ceiling_milli_sum
                threshold = user.threshold_for(task, resource, "constant")
                if ceiling >= threshold:
                    cell[3] += 1  # discomforts
                    cell[4] += round(ceiling * reaction_s * 1000.0)
                    policy.on_discomfort(task, resource, ceiling)
                    epoch_discomforted = True
                else:
                    cell[4] += round(ceiling * epoch_s * 1000.0)
                    policy.on_comfortable(task, resource, epoch_s)
            if epoch_discomforted:
                cooldown = config.cooldown_epochs
    return aggregates


class _Recording(SchedulerPolicy):
    """Passes every call through to ``policy`` and logs each decision."""

    def __init__(self, policy: SchedulerPolicy, log: list):
        self.policy = policy
        self._log = log

    def decide(self, task, resource):
        decision = self.policy.decide(task, resource)
        self._log.append((task, resource, decision.admitted, decision.ceiling))
        return decision

    def on_discomfort(self, task, resource, level):
        self.policy.on_discomfort(task, resource, level)

    def on_comfortable(self, task, resource, elapsed_s):
        self.policy.on_comfortable(task, resource, elapsed_s)


def _builder(make, policies: list, log: list):
    def build(name, budget):
        policy = make(name, budget)
        policies.append(policy)
        return _Recording(policy, log)

    return build


def _reference_policy(name, budget):
    if name == "cdf":
        return ReferenceCDFPolicy.build(budget=budget)
    return build_policy(name, budget=budget)


_FLEETS = given(
    policy=st.sampled_from(["cdf", "aimd", "static"]),
    seed=st.integers(min_value=0, max_value=2**32),
    clients=st.integers(min_value=1, max_value=40),
    epochs=st.integers(min_value=1, max_value=150),
    cooldown=st.integers(min_value=0, max_value=4),
    budget=st.floats(min_value=0.01, max_value=0.9),
    epoch_seconds=st.floats(min_value=0.5, max_value=3600.0),
    data=st.data(),
)


class TestMatchesReferenceLoop:
    @settings(max_examples=100, deadline=None)
    @_FLEETS
    def test_same_aggregates_decisions_and_c_a(
        self, policy, seed, clients, epochs, cooldown, budget, epoch_seconds,
        data,
    ):
        self._check(policy, seed, clients, epochs, cooldown, budget,
                    epoch_seconds, data)

    @settings(max_examples=50, deadline=None)
    @_FLEETS
    def test_same_across_state_blocks(
        self, policy, seed, clients, epochs, cooldown, budget, epoch_seconds,
        data,
    ):
        """Client streams hashed 3 at a time: ranges cross block edges
        and start mid-block, yet match the per-client ``derive_rng``."""
        with mock.patch.object(rng_mod, "_STATE_BLOCK", 3):
            self._check(policy, seed, clients, epochs, cooldown, budget,
                        epoch_seconds, data)

    def _check(
        self, policy, seed, clients, epochs, cooldown, budget, epoch_seconds,
        data,
    ):
        config = FleetConfig(
            policy=policy, clients=clients, epochs=epochs, budget=budget,
            seed=seed, epoch_seconds=epoch_seconds, cooldown_epochs=cooldown,
        )
        start = data.draw(st.integers(0, clients - 1), label="start")
        stop = data.draw(st.integers(start + 1, clients), label="stop")
        want_policies, want_log = [], []
        want = reference_simulate_clients(
            config, start, stop,
            _builder(_reference_policy, want_policies, want_log),
        )
        got_policies, got_log = [], []
        with mock.patch.object(
            fleet, "build_policy",
            _builder(build_policy, got_policies, got_log),
        ):
            got = simulate_clients(config, start, stop)
        assert got == want
        assert got_log == want_log
        assert len(got_policies) == len(want_policies) == stop - start
        if policy == "cdf":
            for mine, theirs in zip(got_policies, want_policies):
                for cell in ALL_CELLS:
                    assert mine._c_a_for(cell) == theirs._c_a_for(cell)


class TestTaskStream:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=1, max_value=12),
        sizes=st.lists(st.integers(min_value=1, max_value=3 * _TASK_BLOCK),
                       min_size=1, max_size=8),
    )
    def test_blocks_give_the_scalar_draws(self, seed, n, sizes):
        blocked = derive_rng(seed, "fleet-tasks", 0)
        values = []
        for size in sizes:
            values.extend(blocked.integers(n, size=size).tolist())
        scalar = derive_rng(seed, "fleet-tasks", 0)
        assert values == [int(scalar.integers(n)) for _ in values]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        block=st.integers(min_value=1, max_value=_TASK_BLOCK),
        count=st.integers(min_value=0, max_value=3 * _TASK_BLOCK),
    )
    def test_task_stream_gives_the_scalar_draws(self, seed, block, count):
        stream = _task_stream(derive_rng(seed, "fleet-tasks", 7), block)
        scalar = derive_rng(seed, "fleet-tasks", 7)
        assert list(itertools.islice(stream, count)) == [
            int(scalar.integers(len(STUDY_TASKS))) for _ in range(count)
        ]
