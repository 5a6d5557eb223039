"""Testcase execution sessions (paper §2.3).

"When a testcase is executed, the appropriate exercisers are started, passed
their exercise functions, synchronized, and then let run.  A high priority
GUI thread watches for clicks or hot-key strokes.  If this occurs, the
exercisers are immediately stopped ... The testcase run is over when user
expresses discomfort feedback or the exercise functions are exhausted."

This module implements that run loop against *abstract* interactivity and
feedback interfaces so the same loop drives:

* the simulated study (machine model + synthetic user, in
  :mod:`repro.machine` / :mod:`repro.users`), and
* live operation (real exercisers + a programmatic/interactive feedback
  channel, in :mod:`repro.exercisers`).

Core deliberately knows nothing about either concrete side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun
from repro.core.testcase import Testcase
from repro.errors import ValidationError
from repro.telemetry import Telemetry, get_telemetry

__all__ = [
    "DISCOMFORT_LEVEL_BUCKETS",
    "FeedbackSource",
    "InteractivityModel",
    "LoadMonitor",
    "InteractivitySample",
    "SESSION_DURATION_BUCKETS",
    "SessionResult",
    "record_discomfort_levels",
    "record_session_metrics",
    "record_user_session",
    "run_simulated_session",
]

#: Histogram buckets for per-testcase session durations (simulated
#: seconds; study testcases are two minutes long).
SESSION_DURATION_BUCKETS: tuple[float, ...] = (
    5.0, 15.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0, 300.0, 600.0,
)

#: Histogram buckets for contention levels at the moment of discomfort.
#: Study exercise functions sweep levels in [0, ~3]; the cumulative
#: counts over these bounds are the per-(task, resource) discomfort CDF
#: that fleet tooling (``/fleet``, ``uucs dashboard``) turns into
#: comfort-headroom estimates, so they are deliberately finer near the
#: low levels where c_0.05 lives.
DISCOMFORT_LEVEL_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0,
)


def record_session_metrics(
    telemetry: Telemetry, run: TestcaseRun, engine: str, elapsed_s: float
) -> None:
    """Record the standard per-run metrics and event for one session.

    Shared by the loop engine here and the analytic engine
    (:mod:`repro.study.engine`) so both report identically: an outcome
    counter, a simulated-duration histogram, a wall-time histogram, and
    a ``session.run`` event.  Caller guarantees ``telemetry.enabled``.
    """
    metrics = telemetry.metrics
    metrics.counter(
        "uucs_session_runs_total",
        "Testcase sessions executed, by engine and outcome.",
        labelnames=("engine", "outcome"),
    ).inc(engine=engine, outcome=run.outcome.value)
    metrics.histogram(
        "uucs_session_duration_seconds",
        "Per-testcase session duration in simulated time.",
        unit="seconds",
        labelnames=("engine",),
        buckets=SESSION_DURATION_BUCKETS,
    ).observe(run.end_offset, engine=engine)
    metrics.histogram(
        "uucs_session_wall_seconds",
        "Wall-time spent computing one session, by engine.",
        unit="seconds",
        labelnames=("engine",),
    ).observe(elapsed_s, engine=engine)
    record_discomfort_levels(telemetry, run)
    telemetry.emit(
        "session.run",
        engine=engine,
        testcase=run.testcase_id,
        outcome=run.outcome.value,
        end_offset=run.end_offset,
        duration_s=elapsed_s,
    )


def record_user_session(
    telemetry: Telemetry, user_id: str, runs: Sequence[TestcaseRun]
) -> None:
    """Count one participant's completed session and emit its
    ``study.user_session`` event.

    Shared by the per-user study driver and the batch engine.  Caller
    guarantees ``telemetry.enabled``.
    """
    telemetry.metrics.counter(
        "uucs_study_sessions_total", "Participant sessions completed."
    ).inc()
    telemetry.emit(
        "study.user_session",
        user=user_id,
        runs=len(runs),
        discomforts=sum(1 for r in runs if r.discomforted),
    )


def record_discomfort_levels(telemetry: Telemetry, run: TestcaseRun) -> None:
    """Record ``run``'s discomfort observations into the discomfort CDF.

    One observation per contended resource at the moment the user pressed
    the hot-key, bucketed by contention level into the per-(task,
    resource) ``uucs_discomfort_level`` histogram — the CDF fleet tooling
    (``/fleet``, ``uucs dashboard``) turns into comfort-headroom
    estimates.  No-op for runs without feedback.  Called by
    :func:`record_session_metrics` for the study engines and directly by
    :class:`~repro.client.UUCSClient` for its own (pushed) registry.
    Caller guarantees ``telemetry.enabled``.
    """
    if run.feedback is None:
        return
    level_histogram = telemetry.metrics.histogram(
        "uucs_discomfort_level",
        "Contention level at the moment of user discomfort, "
        "by task and resource.",
        unit="level",
        labelnames=("task", "resource"),
        buckets=DISCOMFORT_LEVEL_BUCKETS,
    )
    task = run.context.task or "unknown"
    for resource, level in run.feedback.levels.items():
        level_histogram.observe(float(level), task=task, resource=resource.value)


@dataclass(frozen=True)
class InteractivitySample:
    """Foreground interactivity at one instant.

    ``slowdown``
        Multiplicative latency inflation of the foreground task
        (1.0 = unimpeded; 2.0 = interactions take twice as long).
    ``jitter``
        Irregularity of interaction latency, in [0, 1]; demanding
        applications such as Quake are sensitive to this even on an
        otherwise quiescent machine.
    """

    slowdown: float = 1.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0 - 1e-9:
            raise ValidationError(f"slowdown must be >= 1, got {self.slowdown}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(f"jitter must be in [0,1], got {self.jitter}")


@runtime_checkable
class InteractivityModel(Protocol):
    """Maps applied contention to foreground interactivity."""

    def interactivity(
        self, levels: Mapping[Resource, float]
    ) -> InteractivitySample:
        """Interactivity while ``levels`` of contention are applied."""
        ...


@runtime_checkable
class LoadMonitor(Protocol):
    """Optional per-step load sampling (paper §2.3's system monitor).

    The session loop announces the applied contention, then asks for a
    sample; implementations return any mapping of metric name to value
    (e.g. ``cpu``/``memory``/``disk`` utilizations).
    """

    def set_levels(self, levels: Mapping[Resource, float]) -> None: ...

    def sample(self) -> object: ...


@runtime_checkable
class FeedbackSource(Protocol):
    """A source of user discomfort feedback for one run."""

    def begin_run(self, testcase: Testcase, context: RunContext) -> None:
        """Reset per-run state before the run starts."""
        ...

    def poll(
        self,
        t: float,
        levels: Mapping[Resource, float],
        interactivity: InteractivitySample,
    ) -> DiscomfortEvent | None:
        """Feedback arriving during sample interval starting at ``t``.

        Returning an event terminates the run immediately.
        """
        ...


class _UnimpededModel:
    """Interactivity model that never degrades (used when none is given)."""

    def interactivity(
        self, levels: Mapping[Resource, float]
    ) -> InteractivitySample:
        return InteractivitySample()


@dataclass(frozen=True)
class SessionResult:
    """A finished run plus the interactivity trace that produced it."""

    run: TestcaseRun
    slowdown_trace: np.ndarray
    jitter_trace: np.ndarray


def run_simulated_session(
    testcase: Testcase,
    feedback: FeedbackSource,
    context: RunContext,
    interactivity: InteractivityModel | None = None,
    run_id: str | None = None,
    monitor: LoadMonitor | None = None,
) -> SessionResult:
    """Execute ``testcase`` against ``feedback`` in simulated time.

    Steps through the testcase at its sample rate.  At each step the
    contention levels are applied (conceptually: the exercisers play one
    sample), the interactivity model reports foreground slowdown/jitter,
    and the feedback source is polled.  A feedback event stops the run at
    that offset — "resource borrowing stops immediately" — and the recorded
    contention is whatever the exercisers were applying at that moment.
    """
    telemetry = get_telemetry()
    started = time.perf_counter() if telemetry.enabled else 0.0
    model = interactivity if interactivity is not None else _UnimpededModel()
    feedback.begin_run(testcase, context)

    dt = 1.0 / testcase.sample_rate
    n_steps = int(round(testcase.duration * testcase.sample_rate))
    slowdowns = np.ones(n_steps)
    jitters = np.zeros(n_steps)

    shapes = {r: fn.shape for r, fn in testcase.functions.items()}
    event: DiscomfortEvent | None = None
    end_offset = testcase.duration
    steps_done = n_steps
    load_cpu: list[float] = []
    load_memory: list[float] = []
    load_disk: list[float] = []

    for i in range(n_steps):
        t = i * dt
        levels = testcase.levels_at(t)
        sample = model.interactivity(levels)
        slowdowns[i] = sample.slowdown
        jitters[i] = sample.jitter
        if monitor is not None:
            monitor.set_levels(levels)
            load = monitor.sample()
            load_cpu.append(float(getattr(load, "cpu_utilization", 0.0)))
            load_memory.append(float(getattr(load, "memory_used", 0.0)))
            load_disk.append(float(getattr(load, "disk_utilization", 0.0)))
        maybe = feedback.poll(t, levels, sample)
        if maybe is not None:
            # Clamp the event into this sample interval: the GUI thread can
            # only observe feedback while the sample is being played.
            offset = min(max(maybe.offset, t), min(t + dt, testcase.duration))
            event = DiscomfortEvent(
                offset=offset,
                levels=testcase.levels_at(min(offset, testcase.duration)),
                source=maybe.source,
            )
            end_offset = offset
            steps_done = i + 1
            break

    outcome = RunOutcome.DISCOMFORT if event is not None else RunOutcome.EXHAUSTED
    levels_at_end = testcase.levels_at(min(end_offset, testcase.duration))
    run = TestcaseRun(
        run_id=run_id if run_id is not None else TestcaseRun.new_run_id(),
        testcase_id=testcase.testcase_id,
        context=context,
        outcome=outcome,
        end_offset=end_offset,
        testcase_duration=testcase.duration,
        shapes=shapes,
        levels_at_end=levels_at_end,
        # .tolist() / float coercions keep numpy scalars out of the record:
        # identical JSON and equality semantics, ~20x cheaper to pickle
        # (records cross a process boundary in the sharded study engine).
        last_values={
            r: tuple(np.asarray(v).tolist())
            for r, v in testcase.last_values(end_offset).items()
        },
        feedback=event,
        load_trace={
            "slowdown": tuple(slowdowns[:steps_done].tolist()),
            "jitter": tuple(jitters[:steps_done].tolist()),
            **(
                {
                    "load_cpu": tuple(load_cpu),
                    "load_memory": tuple(load_memory),
                    "load_disk": tuple(load_disk),
                }
                if monitor is not None
                else {}
            ),
            **{
                f"contention_{r.value}": tuple(
                    np.asarray(
                        fn.values[: min(steps_done, len(fn.values))]
                    ).tolist()
                )
                for r, fn in testcase.functions.items()
            },
        },
        load_trace_rate=testcase.sample_rate,
    )
    if telemetry.enabled:
        record_session_metrics(
            telemetry, run, "loop", time.perf_counter() - started
        )
    return SessionResult(
        run=run,
        slowdown_trace=slowdowns[:steps_done],
        jitter_trace=jitters[:steps_done],
    )
