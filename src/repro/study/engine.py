"""The analytic (vectorized) study engine.

The generic session loop (:func:`repro.core.session.run_simulated_session`)
polls an arbitrary feedback source at every sample — the right interface,
but ~500 Python-level iterations per two-minute testcase.  The controlled
study only ever pairs deterministic testcase shapes with the threshold
user model, whose entire randomness is drawn in ``begin_run``; after that
the feedback decision is a pure function of the level series.  This engine
computes that decision in closed form with numpy:

* crossing runs (threshold held for one reaction delay, reset on dips) via
  a vectorized last-false scan;
* noise events at their scheduled step;
* slowdown/jitter and monitor-load traces via the machine's batch methods,
  once per cell (:class:`CellTraces`), each run keeping a prefix view.

The contract is **bit-for-bit equivalence** with the loop engine on the
same armed user state — enforced by property tests
(``tests/test_engine_equivalence.py``).  Everything outside the fast path
(mechanistic users, live exercisers, custom feedback sources) keeps using
the loop.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun, TraceTable, TraceView
from repro.core.session import (
    SessionResult,
    record_session_metrics,
    run_simulated_session,
)
from repro.core.testcase import Testcase
from repro.telemetry import get_telemetry
from repro.machine.machine import TaskInteractivityModel
from repro.monitor.base import SimulatedMonitor
from repro.users.behavior import SimulatedUser

__all__ = [
    "CellTraces",
    "SESSION_ENGINES",
    "get_session_engine",
    "run_analytic_session",
]


def _level_array(testcase: Testcase, resource: Resource, n_steps: int) -> np.ndarray:
    """Levels at each step, replicating ``Testcase.levels_at`` exactly:
    beyond a function's duration the level is 0, and the sample exactly at
    the duration maps to the final value."""
    fn = testcase.functions[resource]
    values = fn.values
    out = np.zeros(n_steps)
    m = len(values)
    upto = min(m, n_steps)
    out[:upto] = values[:upto]
    if m < n_steps:
        # t == duration (step index m) still reads the final sample.
        out[m] = values[-1]
    return out


class CellTraces:
    """One simulated cell's level series and full-length traces.

    Every run of a (machine, task, testcase) cell plays the same
    deterministic level series, so its slowdown, jitter, load and
    contention traces are prefixes of the cell's full-length ones.  They
    are computed here once per cell, with the machine's batch methods,
    and every run's ``load_trace`` is a :class:`TraceView` of
    :attr:`table` cut where the run stopped.  The study fixtures hold one
    per cell (:meth:`repro.study.controlled.StudyFixtures.cell_traces`);
    both fast engines read them.
    """

    __slots__ = ("n_steps", "levels", "slowdown", "jitter", "table")

    def __init__(
        self,
        testcase: Testcase,
        interactivity: TaskInteractivityModel | None = None,
        monitor: SimulatedMonitor | None = None,
    ):
        n_steps = int(round(testcase.duration * testcase.sample_rate))
        levels = {
            resource: _level_array(testcase, resource, n_steps)
            for resource in testcase.functions
        }
        if interactivity is not None:
            slowdown, jitter = interactivity.interactivity_batch(levels, n_steps)
        else:
            slowdown, jitter = np.ones(n_steps), np.zeros(n_steps)
        columns = {"slowdown": slowdown, "jitter": jitter}
        if monitor is not None:
            cpu, mem, disk = monitor._machine.sample_load_batch(
                monitor._task, levels, n_steps
            )
            columns.update(load_cpu=cpu, load_memory=mem, load_disk=disk)
        for resource, fn in testcase.functions.items():
            columns[f"contention_{resource.value}"] = fn.values
        self.n_steps = n_steps
        self.levels = levels
        self.slowdown = np.asarray(slowdown)
        self.jitter = np.asarray(jitter)
        # Every run of the cell shares these arrays.
        for array in (self.slowdown, self.jitter, *levels.values()):
            array.flags.writeable = False
        # .tolist() yields plain floats (np.float64 scalars serialize to
        # the same JSON but pickle an order of magnitude slower).
        self.table = TraceTable(
            columns, [np.asarray(v).tolist() for v in columns.values()]
        )


def _threshold_fire_step(
    levels: np.ndarray, threshold: float, delay: float, dt: float
) -> int | None:
    """First step at which the poll loop would fire for this resource.

    Mirrors the loop: crossing time is the first step at/above the
    threshold since the last dip below it; fire when ``t - crossed >=
    delay`` (computed, like the loop, from the products ``i * dt``).
    """
    above = levels >= threshold
    if not above.any():
        return None
    idx = np.arange(len(levels))
    last_false = np.maximum.accumulate(np.where(above, -1, idx))
    crossed = (last_false + 1).astype(float) * dt
    t = idx.astype(float) * dt
    fire = above & (t - crossed >= delay)
    hits = np.nonzero(fire)[0]
    return int(hits[0]) if hits.size else None


def run_analytic_session(
    testcase: Testcase,
    user: SimulatedUser,
    context: RunContext,
    interactivity: TaskInteractivityModel | None = None,
    run_id: str | None = None,
    monitor: SimulatedMonitor | None = None,
    traces: CellTraces | None = None,
) -> SessionResult:
    """Closed-form equivalent of ``run_simulated_session`` for the fast
    path: a :class:`SimulatedUser` and (optionally) a
    :class:`TaskInteractivityModel` / :class:`SimulatedMonitor`.

    ``traces`` are the cell's shared full-length traces, as the
    controlled study passes them; without them the run computes its own
    from ``interactivity`` and ``monitor``.
    """
    telemetry = get_telemetry()
    started = time.perf_counter() if telemetry.enabled else 0.0
    user.begin_run(testcase, context)

    if traces is None:
        traces = CellTraces(testcase, interactivity, monitor)
    dt = 1.0 / testcase.sample_rate
    n_steps = traces.n_steps
    level_arrays = traces.levels

    # --- the feedback decision, in closed form -------------------------
    candidates: list[tuple[int, str, float]] = []  # (step, source, offset)
    noise_time = user.noise_time
    if noise_time is not None:
        i_noise = int(math.ceil(noise_time / dt - 1e-12))
        # The loop fires at the first polled step with t >= noise_time;
        # fix up both float-rounding directions.
        while i_noise * dt < noise_time:
            i_noise += 1
        while i_noise > 0 and (i_noise - 1) * dt >= noise_time:
            i_noise -= 1
        if i_noise < n_steps:
            candidates.append((i_noise, "noise", i_noise * dt))
    for resource, threshold in user.armed_thresholds.items():
        if math.isinf(threshold):
            continue
        step = _threshold_fire_step(
            level_arrays.get(resource, np.zeros(n_steps)),
            threshold,
            user.reaction_delay,
            dt,
        )
        if step is not None:
            candidates.append((step, "simulated", step * dt))

    event: DiscomfortEvent | None = None
    if candidates:
        # Noise is polled before thresholds at each step, so on ties it
        # wins; sorting by (step, source) gives "noise" < "simulated".
        step, source, offset = min(candidates, key=lambda c: (c[0], c[1]))
        offset = min(offset, testcase.duration)
        event = DiscomfortEvent(
            offset=offset,
            levels=testcase.levels_at(offset),
            source=source,
        )
        end_offset = offset
        steps_done = step + 1
    else:
        end_offset = testcase.duration
        steps_done = n_steps

    outcome = RunOutcome.DISCOMFORT if event is not None else RunOutcome.EXHAUSTED
    run = TestcaseRun(
        run_id=run_id if run_id is not None else TestcaseRun.new_run_id(),
        testcase_id=testcase.testcase_id,
        context=context,
        outcome=outcome,
        end_offset=end_offset,
        testcase_duration=testcase.duration,
        shapes={r: fn.shape for r, fn in testcase.functions.items()},
        levels_at_end=testcase.levels_at(min(end_offset, testcase.duration)),
        last_values={
            r: tuple(np.asarray(v).tolist())
            for r, v in testcase.last_values(end_offset).items()
        },
        feedback=event,
        load_trace=TraceView(traces.table, steps_done),
        load_trace_rate=testcase.sample_rate,
    )
    if telemetry.enabled:
        record_session_metrics(
            telemetry, run, "analytic", time.perf_counter() - started
        )
    return SessionResult(
        run=run,
        slowdown_trace=traces.slowdown[:steps_done],
        jitter_trace=traces.jitter[:steps_done],
    )


#: Per-session engines by config name.  Both callables share a
#: signature and produce identical run records on the same armed user
#: state; study drivers (sequential and sharded) resolve the engine here
#: so the choice stays a pure config value that survives a process
#: boundary.  The cell-batched "batch" engine has no per-session
#: callable: it replaces the whole user loop
#: (:func:`repro.study.batch.run_batch_user_range`), and
#: :data:`repro.study.controlled.ENGINES` names all three.
SESSION_ENGINES = {
    "analytic": run_analytic_session,
    "loop": run_simulated_session,
}


def get_session_engine(name: str):
    """The session-engine callable registered under ``name``."""
    try:
        return SESSION_ENGINES[name]
    except KeyError:
        raise KeyError(f"unknown session engine {name!r}") from None
