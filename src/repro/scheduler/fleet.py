"""Seeded fleet simulation: one scheduler policy vs. a synthetic fleet.

The paper measured ~100 real users; the question its §5 leaves open —
*how much more can a comfort-aware scheduler harvest at the same
discomfort rate?* — needs fleets far larger than any study.  This module
simulates them: ``clients`` independent synthetic users (the same
tolerance model the study engines draw from), each fronted by its own
:class:`~repro.scheduler.policy.SchedulerPolicy` instance, borrowing
for ``epochs`` fixed-length epochs across every studied (task,
resource) cell.

Determinism is the load-bearing wall.  Every random draw for client
``i`` comes from streams derived solely from ``(seed, label, i)`` —
never from shard layout — and every harvested quantity is quantized to
**integer milliseconds** before aggregation, so per-cell sums are
associative and the scoreboard is byte-identical for any shard count
(integer addition cannot reorder-drift the way float addition can).
Workers therefore return tiny per-cell integer aggregates, not
per-epoch records, and a 100k-client fleet is minutes of CPU, not GB of
IPC.

Epoch model (per client, per epoch): the client draws the foreground
task it is running, then for each studied resource asks its policy for
an admission verdict and ceiling.  A denied request harvests nothing.
An admitted request borrows at the ceiling for the whole epoch; if the
ceiling is at or above the user's sampled discomfort threshold the user
reacts after their mean reaction delay (the borrower only harvests
those seconds, then yields) and the policy hears ``on_discomfort``;
otherwise the full epoch is harvested and the policy hears
``on_comfortable``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.resources import Resource
from repro.errors import SchedulerError
from repro.paperdata import STUDY_TASKS
from repro.scheduler.policy import SCHEDULER_POLICIES, build_policy, cell_cap
from repro.study.sharded import Shard, shard_ranges
from repro.study.supervisor import SupervisorPolicy, supervised_map
from repro.telemetry import Telemetry, get_telemetry
from repro.users import SimulatedUser, paper_calibrated_table
from repro.users.population import sample_profile
from repro.util.rng import DerivedStream, config_seed, derive_rng

__all__ = [
    "CellStats",
    "FleetConfig",
    "Scoreboard",
    "run_fleet",
    "simulate_clients",
]

#: Resources every epoch exercises, in deterministic order.
FLEET_RESOURCES: tuple[Resource, ...] = (
    Resource.CPU,
    Resource.MEMORY,
    Resource.DISK,
)

#: How hard a sharded fleet run fights for each shard: the supervisor's
#: defaults (3 attempts, seeded backoff, no watchdog).
_SUPERVISOR = SupervisorPolicy()

#: The largest ceiling any policy grants in a fleet cell.
_MAX_CAP = max(cell_cap(t, r) for t in STUDY_TASKS for r in FLEET_RESOURCES)

#: Most task draws a client takes at once (memory flat in ``epochs``).
_TASK_BLOCK = 64

#: Aggregate field order inside worker payloads (one int list per cell).
_AGG_FIELDS = (
    "decisions",
    "admitted",
    "denials",
    "discomforts",
    "harvested_ms",
    "ceiling_milli_sum",
)


@dataclass(frozen=True)
class FleetConfig:
    """One fleet-simulation run, fully determined by its fields."""

    policy: str = "cdf"
    clients: int = 100
    epochs: int = 32
    epoch_seconds: float = 60.0
    budget: float = 0.05
    seed: int = 0
    #: Epochs the client suspends *all* borrowing after an epoch with a
    #: discomfort event.  The paper's participants stopped the exerciser
    #: the moment they felt discomfort (§3.2); a deployed harvester
    #: similarly loses the host for a while after annoying its owner.
    #: This is what makes a high-discomfort policy genuinely expensive.
    cooldown_epochs: int = 2

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULER_POLICIES:
            raise SchedulerError(
                f"unknown scheduler policy {self.policy!r}; "
                f"available: {', '.join(sorted(SCHEDULER_POLICIES))}"
            )
        if self.clients < 1:
            raise SchedulerError(f"clients must be >= 1, got {self.clients}")
        if self.epochs < 1:
            raise SchedulerError(f"epochs must be >= 1, got {self.epochs}")
        # An epoch at the largest cap must harvest finite milliseconds.
        harvest_ms = _MAX_CAP * self.epoch_seconds * 1000.0
        if not (self.epoch_seconds > 0 and math.isfinite(harvest_ms)):
            raise SchedulerError(
                "epoch_seconds must be > 0 and keep an epoch's harvested "
                f"milliseconds finite, got {self.epoch_seconds}"
            )
        if not 0.0 < self.budget < 1.0:
            raise SchedulerError(
                f"budget must be in (0, 1), got {self.budget}"
            )
        if self.cooldown_epochs < 0:
            raise SchedulerError(
                f"cooldown_epochs must be >= 0, got {self.cooldown_epochs}"
            )
        object.__setattr__(self, "seed", config_seed(self.seed, SchedulerError))

    def to_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "clients": self.clients,
            "epochs": self.epochs,
            "epoch_seconds": self.epoch_seconds,
            "budget": self.budget,
            "seed": self.seed,
            "cooldown_epochs": self.cooldown_epochs,
        }


@dataclass(frozen=True)
class CellStats:
    """Fleet-wide integer aggregates for one (task, resource) cell."""

    task: str
    resource: str
    decisions: int = 0
    admitted: int = 0
    denials: int = 0
    discomforts: int = 0
    #: Harvested resource-time, integer milliseconds of resource-level 1.0
    #: (a 60 s epoch at ceiling 2.0 harvests 120_000).
    harvested_ms: int = 0
    #: Sum over admitted decisions of the granted ceiling in integer
    #: milli-levels; ``ceiling_milli_sum / admitted / 1000`` is the mean.
    ceiling_milli_sum: int = 0

    @property
    def harvested_resource_hours(self) -> float:
        """Resource-hours harvested (level x hours)."""
        return self.harvested_ms / 3_600_000.0

    @property
    def discomfort_rate(self) -> float:
        """Discomfort events per borrow decision (denials included)."""
        return self.discomforts / self.decisions if self.decisions else 0.0

    @property
    def mean_ceiling(self) -> float:
        """Mean granted ceiling over admitted decisions."""
        if not self.admitted:
            return 0.0
        return self.ceiling_milli_sum / self.admitted / 1000.0

    def to_dict(self) -> dict[str, object]:
        return {
            "task": self.task,
            "resource": self.resource,
            "decisions": self.decisions,
            "admitted": self.admitted,
            "denials": self.denials,
            "discomforts": self.discomforts,
            "harvested_ms": self.harvested_ms,
            "ceiling_milli_sum": self.ceiling_milli_sum,
        }


@dataclass(frozen=True)
class Scoreboard:
    """Deterministic outcome of one fleet run (plus advisory wall-clock).

    Everything serialized by :meth:`to_json` is a pure function of the
    :class:`FleetConfig` — wall-clock lives only in :attr:`elapsed_s`,
    which is deliberately excluded so two runs of the same config (at
    any shard count) produce byte-identical JSON.
    """

    config: FleetConfig
    cells: tuple[CellStats, ...]
    elapsed_s: float = field(default=0.0, compare=False)

    def _total(self, name: str) -> int:
        return sum(getattr(cell, name) for cell in self.cells)

    @property
    def decisions(self) -> int:
        return self._total("decisions")

    @property
    def denials(self) -> int:
        return self._total("denials")

    @property
    def discomforts(self) -> int:
        return self._total("discomforts")

    @property
    def harvested_ms(self) -> int:
        return self._total("harvested_ms")

    @property
    def harvested_resource_hours(self) -> float:
        """Total harvested resource-hours across every cell."""
        return self.harvested_ms / 3_600_000.0

    @property
    def discomfort_rate(self) -> float:
        """Fleet-wide discomfort events per borrow decision."""
        decisions = self.decisions
        return self.discomforts / decisions if decisions else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "totals": {
                "decisions": self.decisions,
                "denials": self.denials,
                "discomforts": self.discomforts,
                "harvested_ms": self.harvested_ms,
                "harvested_resource_hours": round(
                    self.harvested_resource_hours, 6
                ),
                "discomfort_rate": round(self.discomfort_rate, 6),
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        """Canonical scoreboard JSON (the bit-reproducibility surface)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _task_stream(task_rng, block: int) -> Iterator[int]:
    """A client's foreground-task indices, drawn ``block`` at a time: a
    sized ``integers`` call gives the values of as many scalar calls."""
    while True:
        yield from task_rng.integers(len(STUDY_TASKS), size=block).tolist()


def _client_rngs(
    seed: int, label: str, start: int, stop: int
) -> Iterator[np.random.Generator]:
    """``derive_rng(seed, label, i)`` for each client ``i`` in ``[start,
    stop)``: the first client's is derived, and that one Generator is
    re-seated in place for each later client, so a client's stream
    lives only until the next client starts."""
    rng = derive_rng(seed, label, start)
    yield rng
    yield from DerivedStream(seed, label).reseated(rng, start + 1, stop)


def simulate_clients(
    config: FleetConfig, start: int, stop: int
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
    block = min(_TASK_BLOCK, config.epochs)
    # Per task index: each resource with its aggregate key.
    task_cells = [
        [(resource, f"{task},{resource.value}") for resource in FLEET_RESOURCES]
        for task in STUDY_TASKS
    ]
    aggregates: dict[str, list[int]] = {}
    streams = [
        _client_rngs(config.seed, label, start, stop)
        for label in ("fleet-profile", "fleet-behavior", "fleet-tasks")
    ]
    # The range comes first: an empty range derives nothing.
    for index, profile_rng, behavior_rng, task_rng in zip(
        range(start, stop), *streams
    ):
        profile = sample_profile(f"fleet-{index:06d}", profile_rng)
        user = SimulatedUser(profile, table, seed=behavior_rng)
        next_task = _task_stream(task_rng, block).__next__
        policy = build_policy(config.policy, budget=config.budget)
        decide = policy.decide
        on_discomfort = policy.on_discomfort
        on_comfortable = policy.on_comfortable
        threshold_for = user.threshold_for
        # The user notices sustained contention only after their mean
        # reaction delay; a discomforted epoch harvests just that window.
        reaction_s = min(float(profile.reaction_delay_mean), epoch_s)
        cooldown = 0
        for _ in range(config.epochs):
            if cooldown > 0:
                cooldown -= 1
                continue
            task_index = next_task()
            task = STUDY_TASKS[task_index]
            epoch_discomforted = False
            for resource, key in task_cells[task_index]:
                admitted, ceiling = decide(task, resource)
                cell = aggregates.get(key)
                if cell is None:
                    cell = aggregates[key] = [0] * len(_AGG_FIELDS)
                cell[0] += 1  # decisions
                if not admitted:
                    cell[2] += 1  # denials
                    continue
                cell[1] += 1  # admitted
                cell[5] += round(ceiling * 1000.0)  # ceiling_milli_sum
                threshold = threshold_for(task, resource, "constant")
                if ceiling >= threshold:
                    cell[3] += 1  # discomforts
                    cell[4] += round(ceiling * reaction_s * 1000.0)
                    on_discomfort(task, resource, ceiling)
                    epoch_discomforted = True
                else:
                    cell[4] += round(ceiling * epoch_s * 1000.0)
                    on_comfortable(task, resource, epoch_s)
            if epoch_discomforted:
                cooldown = config.cooldown_epochs
    return aggregates


def _merge_aggregates(
    batches: Sequence[Mapping[str, Sequence[int]]],
) -> dict[str, list[int]]:
    """Sum per-cell integer aggregates; associative, so order-free."""
    merged: dict[str, list[int]] = {}
    for batch in batches:
        for key, counts in batch.items():
            if len(counts) != len(_AGG_FIELDS):
                raise SchedulerError(
                    f"malformed aggregate for cell {key!r}: {counts!r}"
                )
            into = merged.setdefault(key, [0] * len(_AGG_FIELDS))
            for i, value in enumerate(counts):
                into[i] += int(value)
    return merged


def _scoreboard(
    config: FleetConfig,
    merged: Mapping[str, Sequence[int]],
    elapsed_s: float,
) -> Scoreboard:
    cells = []
    for key in sorted(merged):
        task, _, resource = key.partition(",")
        counts = merged[key]
        cells.append(
            CellStats(
                task=task,
                resource=resource,
                **dict(zip(_AGG_FIELDS, (int(v) for v in counts))),
            )
        )
    return Scoreboard(config=config, cells=tuple(cells), elapsed_s=elapsed_s)


def _simulate_shard(config: FleetConfig, shard: Shard, attempt: int) -> dict:
    """Supervised worker body: one shard's client aggregates.

    A pure function of ``(config, shard)``, so every attempt returns the
    same aggregates and a retry is always safe.
    """
    return simulate_clients(config, shard.start, shard.stop)


def _record_scoreboard(telemetry: Telemetry, board: Scoreboard) -> None:
    """Scheduler metric families + decision events (caller checked
    ``enabled``)."""
    metrics = telemetry.metrics
    harvested = metrics.counter(
        "uucs_sched_harvested_resource_seconds_total",
        "Resource-seconds (level x seconds) harvested by the scheduler.",
        unit="seconds",
        labelnames=("task", "resource"),
    )
    denials = metrics.counter(
        "uucs_sched_admission_denials_total",
        "Borrow requests denied by scheduler admission control.",
        labelnames=("task", "resource"),
    )
    ceiling = metrics.gauge(
        "uucs_sched_ceiling",
        "Mean granted borrowing ceiling per scheduler cell.",
        unit="level",
        labelnames=("task", "resource"),
    )
    for cell in board.cells:
        labels = {"task": cell.task, "resource": cell.resource}
        if cell.harvested_ms:
            harvested.inc(cell.harvested_ms / 1000.0, **labels)
        if cell.denials:
            denials.inc(cell.denials, **labels)
        ceiling.set(round(cell.mean_ceiling, 4), **labels)
        telemetry.emit(
            "scheduler.decision",
            policy=board.config.policy,
            task=cell.task,
            resource=cell.resource,
            decisions=cell.decisions,
            admitted=cell.admitted,
            denials=cell.denials,
            discomforts=cell.discomforts,
            harvested_s=round(cell.harvested_ms / 1000.0, 3),
            mean_ceiling=round(cell.mean_ceiling, 4),
        )


def run_fleet(
    config: FleetConfig | None = None,
    shards: int = 1,
    max_workers: int | None = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> Scoreboard:
    """Run one fleet simulation; byte-identical for any ``shards``.

    ``shards=1`` runs in-process.  Larger counts fan client ranges out
    to at most ``max_workers`` (>= 1) worker processes under the study's
    shard supervisor (:func:`repro.study.supervisor.supervised_map`) with its
    default policy: a shard whose worker dies or raises is relaunched
    after a seeded backoff, and one that fails all
    ``SupervisorPolicy.max_attempts`` attempts raises
    :class:`SchedulerError` — a partial scoreboard is never returned.
    A ``KeyboardInterrupt`` kills every live worker before it
    propagates.  ``on_progress(done, total)`` is called after each shard
    completes (once, with ``(1, 1)``, when ``shards=1``).

    When telemetry is enabled the scoreboard lands in the
    ``uucs_sched_*`` metric families and one ``scheduler.decision``
    event per cell; disabled telemetry records nothing and never
    affects the simulation itself.
    """
    if config is None:
        config = FleetConfig()
    if shards < 1:
        raise SchedulerError(f"shards must be >= 1, got {shards}")
    if max_workers is not None and max_workers < 1:
        raise SchedulerError(f"max_workers must be >= 1, got {max_workers}")
    telemetry = get_telemetry()
    started = time.perf_counter()
    with telemetry.span(
        "scheduler.fleet",
        policy=config.policy,
        clients=config.clients,
        epochs=config.epochs,
        seed=config.seed,
        shards=shards,
    ) as span:
        if shards == 1:
            batches = [simulate_clients(config, 0, config.clients)]
            if on_progress is not None:
                on_progress(1, 1)
        else:
            plan = shard_ranges(config.clients, shards)
            done: dict[int, dict[str, list[int]]] = {}

            def collect(shard: Shard, aggregates: dict, elapsed_s: float):
                done[shard.index] = aggregates
                if on_progress is not None:
                    on_progress(len(done), len(plan))

            def give_up(shard: Shard, attempts: int, reason: str,
                        detail: str, backoff_s: float | None):
                if backoff_s is None:
                    raise SchedulerError(
                        f"fleet shard {shard.index} failed after "
                        f"{attempts} attempts: {detail}"
                    )

            supervised_map(
                functools.partial(_simulate_shard, config), plan,
                _SUPERVISOR, collect, give_up, seed=config.seed,
                max_workers=max_workers,
            )
            batches = list(done.values())
        board = _scoreboard(
            config,
            _merge_aggregates(batches),
            elapsed_s=time.perf_counter() - started,
        )
        span.annotate(
            decisions=board.decisions,
            discomforts=board.discomforts,
            harvested_ms=board.harvested_ms,
        )
        if telemetry.enabled:
            _record_scoreboard(telemetry, board)
    return board
