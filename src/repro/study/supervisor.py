"""Shard supervision: the policy, and the one loop that applies it.

Long runs split across worker processes — a sharded study
(:func:`repro.study.sharded.run_sharded_study`) or a sharded fleet
simulation (:func:`repro.scheduler.fleet.run_fleet`) — fail the way
volunteer hosts do: workers die, hang, or hand back garbage.
:func:`supervised_map` runs every shard in its own process and absorbs
those failures; :class:`SupervisorPolicy` decides how hard it fights for
each shard before giving it up:

* **retry** — a failed shard attempt is relaunched after a
  capped-exponential, seeded-jitter backoff.  The delay math is
  delegated to :class:`repro.faults.retry.RetryPolicy` — the exact
  policy shape already proven on the sync path — with the jitter RNG
  derived per shard from the caller's seed, so a chaotic run replays
  its whole retry schedule byte-for-byte under the same seed.
* **watchdog** — an optional per-attempt wall-clock deadline.  A worker
  that blows it is SIGKILLed and the attempt counts as a failure; this
  is the only way a *hung* worker (NFS wedge, swap death) ever returns
  its shard to the pool.
* **give up** — when a shard exhausts ``max_attempts`` the caller
  decides what that means.  The study quarantines the shard (the
  default: every healthy shard's results survive) or, with
  ``quarantine=False``, raises :class:`~repro.errors.StudyError`; the
  fleet always raises :class:`~repro.errors.SchedulerError`, because a
  partial scoreboard would break its byte-reproducibility.

Supervision is session-engine-independent: a relaunched study shard
re-enters :func:`repro.study.controlled.run_user_range`, which dispatches
to the configured engine (``analytic``, ``loop``, or the cell-batched
``batch``), and every engine produces byte-identical records for the
same user range — so retries, checkpointed byte spans, and resume
verification behave identically whichever engine the config names
(``tests/test_study_resume.py`` pins this for ``batch``).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro.errors import StudyError, ValidationError
from repro.faults.retry import RetryPolicy
from repro.util.heap import gc_paused
from repro.util.rng import derive_rng

__all__ = ["SupervisorPolicy", "supervised_map"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to fight for each shard before giving it up."""

    #: Total attempts per shard (first launch included).
    max_attempts: int = 3
    #: First retry backoff, seconds; grows by ``multiplier`` per failure
    #: up to ``max_delay``.
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each backoff randomized away by the per-shard seeded
    #: RNG (0 = fixed schedule, 1 = full jitter).
    jitter: float = 0.5
    #: Per-attempt wall-clock deadline, seconds; ``None`` disables the
    #: watchdog (a hung worker then blocks the run forever — only safe
    #: when no hang fault is possible, e.g. unit tests).
    watchdog_s: float | None = None
    #: Exhausted study shards are quarantined (the study completes
    #: partially) when True; with False the study raises
    #: :class:`StudyError` instead.  The fleet ignores it.
    quarantine: bool = True

    def __post_init__(self) -> None:
        try:
            # Reuse RetryPolicy's validation + backoff math rather than
            # re-deriving it; deadline/budget are per-shard concerns the
            # supervisor tracks itself, so any valid stand-ins do.
            retry = RetryPolicy(
                max_attempts=self.max_attempts,
                base_delay=self.base_delay,
                max_delay=self.max_delay,
                multiplier=self.multiplier,
                jitter=self.jitter,
            )
        except ValidationError as exc:
            raise StudyError(f"invalid supervisor policy: {exc}") from exc
        object.__setattr__(self, "_retry", retry)
        # An infinite deadline overflows the wait timeout, and a NaN one
        # never passes, so every wait returns at once: refuse both.
        if self.watchdog_s is not None and not 0 < self.watchdog_s < math.inf:
            raise StudyError(
                "watchdog_s must be a finite positive number or None, "
                f"got {self.watchdog_s}"
            )

    def backoff(self, failures: int, rng) -> float:
        """Seconds to wait before relaunching after the ``failures``-th
        failure (1-based); jitter draws come from ``rng``."""
        return self._retry.backoff(failures, rng)  # type: ignore[attr-defined]


def _resolve_context(mp_context: str | None) -> multiprocessing.context.BaseContext:
    """Pick a start method: explicit request, else fork where available.

    Fork avoids re-importing the interpreter per worker (a shard's
    compute can be fractions of a second, so spawn startup would
    dominate); every caller's ``work`` is nevertheless spawn-safe, which
    the test suite exercises with an explicit ``mp_context="spawn"``.
    """
    if mp_context is not None:
        return multiprocessing.get_context(mp_context)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(conn, work, shard, attempt: int) -> None:
    """Child entry: run one attempt and reply over ``conn``.

    Replies ``("ok", work(shard, attempt))``, or ``("error", message)``
    if anything is raised — ``KeyboardInterrupt`` included, so a Ctrl-C
    to the process group ends the worker quietly.  A worker that dies
    without replying surfaces to the supervisor as EOF on the pipe.
    """
    try:
        conn.send(("ok", work(shard, attempt)))
    except BaseException as exc:  # noqa: BLE001 — the parent must hear of it
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass(eq=False)
class _Task:
    """Supervisor bookkeeping for one shard's attempts."""

    shard: Any
    #: Per-shard backoff-jitter stream: one shard's retries never
    #: perturb another's schedule.
    rng: Any
    attempts: int = 0
    process: Any = None
    conn: Any = None
    started: float = 0.0
    deadline: float | None = None


def supervised_map(
    work: Callable[[Any, int], Any],
    shards: Sequence,
    policy: SupervisorPolicy,
    on_result: Callable[[Any, Any, float], None],
    on_failure: Callable[[Any, int, str, str, float | None], None],
    *,
    seed: int,
    accept: Callable[[Any, Any], bool] | None = None,
    max_workers: int | None = None,
    mp_context: str | None = None,
) -> None:
    """Run ``work(shard, attempt)`` for every shard in supervised processes.

    Each attempt is one ``Process`` named ``uucs-shard-<index>``,
    replying over its own pipe; at most ``max_workers`` run at once
    (default: one per shard).  ``shards`` are objects with an ``index``;
    ``work`` and the shards must pickle under ``mp_context``'s start
    method (default: fork where available).  ``attempt`` is 1-based.

    A reply passing ``accept(shard, payload)`` (default: every reply)
    goes to ``on_result(shard, payload, elapsed_s)``.  An attempt fails
    when its worker dies (reason ``"killed"``), raises (``"error"``),
    sends a payload ``accept`` rejects (``"corrupt"``) or outlives
    ``policy.watchdog_s`` (``"watchdog"``); the supervisor then calls
    ``on_failure(shard, attempts, reason, detail, backoff_s)`` and
    relaunches after ``backoff_s`` seconds, drawn from
    ``derive_rng(seed, "shard-supervisor", shard.index)``.  Once
    ``policy.max_attempts`` are spent ``backoff_s`` is None and the
    shard is dropped — unless ``on_failure`` raises to end the run.

    Callbacks run in this process.  On every exit, an exception from a
    callback or a ``KeyboardInterrupt`` included, live workers are
    killed and reaped, so an aborted run leaks no processes.
    """
    ctx = _resolve_context(mp_context)
    workers = max(1, min(len(shards), max_workers or len(shards)))
    pending = deque(
        _Task(shard, derive_rng(seed, "shard-supervisor", shard.index))
        for shard in shards
    )
    retry_due: list[tuple[float, _Task]] = []
    running: dict = {}

    def launch(task: _Task) -> None:
        task.attempts += 1
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        task.process = ctx.Process(
            target=_worker_main,
            args=(send_conn, work, task.shard, task.attempts),
            daemon=True,
            name=f"uucs-shard-{task.shard.index}",
        )
        task.process.start()
        # Drop the parent's copy of the send end, or a dead worker
        # would never surface as EOF on the receive end.
        send_conn.close()
        task.conn = recv_conn
        task.started = time.perf_counter()
        if policy.watchdog_s is not None:
            task.deadline = task.started + policy.watchdog_s
        running[recv_conn] = task

    def reap(task: _Task, kill: bool = False) -> int | None:
        """Tear one attempt down; return the worker's exit code."""
        del running[task.conn]
        task.conn.close()
        if kill:
            task.process.kill()
        task.process.join(timeout=5.0)
        if task.process.is_alive():
            task.process.kill()
            task.process.join(timeout=5.0)
        return task.process.exitcode

    def failed(task: _Task, reason: str, detail: str) -> None:
        if task.attempts >= policy.max_attempts:
            on_failure(task.shard, task.attempts, reason, detail, None)
            return
        delay = policy.backoff(task.attempts, task.rng)
        on_failure(task.shard, task.attempts, reason, detail, delay)
        retry_due.append((time.perf_counter() + delay, task))

    try:
        while pending or retry_due or running:
            now = time.perf_counter()
            pending.extend(task for due, task in retry_due if due <= now)
            retry_due[:] = [item for item in retry_due if item[0] > now]
            while pending and len(running) < workers:
                launch(pending.popleft())
            wakeups = [due for due, _ in retry_due] + [
                task.deadline
                for task in running.values()
                if task.deadline is not None
            ]
            timeout = max(0.0, min(wakeups) - now) if wakeups else None
            if not running:
                time.sleep(timeout)  # only backed-off retries remain
                continue
            for conn in wait(list(running), timeout=timeout):
                task = running[conn]
                try:
                    # Unpickling a shard's records makes many objects
                    # and no garbage.
                    with gc_paused():
                        kind, payload = conn.recv()
                except (EOFError, OSError):
                    exitcode = reap(task)
                    failed(
                        task,
                        "killed",
                        f"worker died without replying (exitcode {exitcode})",
                    )
                    continue
                reap(task)
                if kind != "ok":
                    failed(task, "error", payload)
                elif accept is not None and not accept(task.shard, payload):
                    failed(task, "corrupt", "worker returned a damaged batch")
                else:
                    on_result(
                        task.shard, payload, time.perf_counter() - task.started
                    )
            now = time.perf_counter()
            for task in [
                task
                for task in running.values()
                if task.deadline is not None and now >= task.deadline
            ]:
                reap(task, kill=True)
                failed(
                    task,
                    "watchdog",
                    f"watchdog expired after {policy.watchdog_s}s",
                )
    finally:
        for task in list(running.values()):
            reap(task, kill=True)
