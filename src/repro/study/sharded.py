"""Sharded multiprocess controlled-study engine.

Replaying many independent (user, task, testcase) sessions is
embarrassingly parallel — the synthetic population draws every user's
randomness from ``derive_rng(config.seed, "user-session"/"user-behavior",
user_index)``, so no state crosses a user boundary.  This module
partitions the user index range of a :class:`ControlledStudyConfig`
across N worker processes and merges the per-shard run-record batches
back in deterministic user-index order, in the spirit of Condor-style
partitioned replay of user traces.

The contract is **byte-identical output**: for every shard count the
merged records serialize exactly as the single-process engine's would —
same runs, same order, same JSON bytes.  Workers rebuild fixtures from
the (picklable) config instead of receiving them over the wire, which
keeps :func:`_run_shard` spawn-safe: it is a module-level function whose
arguments survive pickling under any multiprocessing start method.
``tests/shardcheck.py`` enforces the contract at 1/2/4/8 shards.

Shards run under :func:`~repro.study.supervisor.supervised_map`, the
shard supervisor ``uucs harvest`` shares, rather than a bare process
pool: a worker that dies, hangs past its watchdog deadline, or returns
a damaged batch costs only that shard an attempt.  This module adds the
study's own policy on top: a shard that keeps failing is quarantined so
every healthy shard's results still complete the study, and with a
:class:`~repro.study.checkpoint.StudyCheckpoint` attached, committed
shards also survive *driver* death — ``resume=True`` salvages their
bytes from the store and recomputes only the remainder, byte-identical
to an uninterrupted run.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from pathlib import Path
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.run import TestcaseRun
from repro.errors import StudyError
from repro.faults.shardchaos import CORRUPT_MARKER, ShardFaultPlan
from repro.study.checkpoint import StudyCheckpoint
from repro.study.controlled import (
    ControlledStudyConfig,
    StudyResult,
    run_controlled_study,
    run_user_range,
    study_fixtures,
)
from repro.study.supervisor import SupervisorPolicy, supervised_map
from repro.telemetry import (
    Telemetry,
    TraceContext,
    get_telemetry,
    process_guid,
    use_telemetry,
)

__all__ = [
    "Shard",
    "StudyProgress",
    "merge_shard_batches",
    "resolve_shards",
    "run_sharded_study",
    "shard_ranges",
]

#: Histogram buckets for per-shard wall-clock (seconds of real time; a
#: canonical 33-user shard at 4 shards computes in well under a second,
#: but loop-engine or large-population shards run far longer).
SHARD_SECONDS_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


@dataclass(frozen=True)
class StudyProgress:
    """A snapshot of sharded-study progress after one shard completed.

    Handed to ``run_sharded_study``'s ``on_progress`` callback and
    mirrored into the ``uucs_study_*`` gauges the fleet dashboard
    renders, so a long study is watchable as it runs.  ``eta_s`` is the
    classic remaining-work estimate — remaining users divided by the
    observed users/second — and ``None`` until a rate exists.
    """

    shards_total: int
    shards_done: int
    users: int
    users_done: int
    runs: int
    elapsed_s: float

    @property
    def progress_ratio(self) -> float:
        return self.users_done / self.users if self.users else 1.0

    @property
    def runs_per_s(self) -> float | None:
        if self.elapsed_s <= 0 or self.runs == 0:
            return None
        return self.runs / self.elapsed_s

    @property
    def eta_s(self) -> float | None:
        if self.elapsed_s <= 0 or self.users_done == 0:
            return None
        users_per_s = self.users_done / self.elapsed_s
        return (self.users - self.users_done) / users_per_s


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the user index range."""

    index: int
    start: int
    stop: int

    @property
    def n_users(self) -> int:
        return self.stop - self.start


def shard_ranges(n_users: int, n_shards: int) -> tuple[Shard, ...]:
    """Partition ``range(n_users)`` into at most ``n_shards`` balanced,
    contiguous, disjoint shards covering every index exactly once.

    The first ``n_users % n_shards`` shards get one extra user; shards
    that would be empty (``n_shards > n_users``) are dropped.
    """
    if n_users < 1:
        raise StudyError(f"n_users must be >= 1, got {n_users}")
    if n_shards < 1:
        raise StudyError(f"shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_users)
    base, extra = divmod(n_users, n_shards)
    shards: list[Shard] = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        shards.append(Shard(index=index, start=start, stop=stop))
        start = stop
    return tuple(shards)


def resolve_shards(spec: int | str, n_users: int) -> int:
    """Resolve a ``--shards`` request (a count or ``"auto"``) to an int.

    ``"auto"`` sizes the pool from :func:`os.cpu_count`, clamped to the
    user count — more shards than users would only be dropped by
    :func:`shard_ranges`, and more than the host's cores only adds pool
    overhead.  Numeric strings parse as counts; anything else raises
    :class:`~repro.errors.StudyError`.
    """
    if n_users < 1:
        raise StudyError(f"n_users must be >= 1, got {n_users}")
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "auto":
            return max(1, min(os.cpu_count() or 1, n_users))
        try:
            spec = int(text)
        except ValueError:
            raise StudyError(
                f"shards must be a positive integer or 'auto', got {spec!r}"
            ) from None
    if spec < 1:
        raise StudyError(f"shards must be >= 1, got {spec}")
    return spec


def _run_shard(
    config: ControlledStudyConfig,
    start: int,
    stop: int,
    trace: tuple[str, dict | None, int] | None = None,
) -> list[TestcaseRun]:
    """Worker entry point: users ``[start, stop)`` of ``config``.

    Module-level (hence picklable) and dependent only on its arguments,
    so it behaves identically under fork and spawn start methods.
    Shard-level wall-clock metrics are recorded by the parent, which
    observes the only clock that matters (wall time including IPC).

    ``trace`` is the shard-IPC leg of distributed tracing: a picklable
    ``(event_log_path, parent_trace_context, shard_index)`` triple.
    When given, the worker installs its own telemetry hub writing to
    ``event_log_path`` and wraps the shard in a ``study.shard_worker``
    root span whose parent is the study driver's ``study.sharded`` span
    in another process.  The tracer guid is salted with the shard index
    so a pooled worker process serving several shards still yields
    distinct per-shard id namespaces.  When ``trace`` is None the
    worker inherits whatever hub fork gave it (silent under spawn).
    """
    if trace is None:
        return run_user_range(config, start, stop, study_fixtures(config))
    path, parent_wire, shard_index = trace
    hub = Telemetry.to_path(path, tracer_guid=f"{process_guid()}.s{shard_index}")
    with use_telemetry(hub) as telemetry:
        with telemetry.tracer.span(
            "study.shard_worker",
            parent_context=TraceContext.from_wire(parent_wire),
            shard=shard_index,
            users_start=start,
            users_stop=stop,
            engine=config.engine,
        ) as span:
            runs = run_user_range(config, start, stop, study_fixtures(config))
            span.annotate(runs=len(runs))
        return runs


def merge_shard_batches(
    batches: Iterable[tuple[Shard, Sequence[TestcaseRun]]],
) -> list[TestcaseRun]:
    """Merge per-shard run batches into single-process record order.

    Order-invariant in its input: batches are sorted by shard start
    before concatenation, so completion order (or any shuffling in
    between) cannot leak into the merged sequence.  Raises
    :class:`StudyError` if the shards overlap or leave a gap — a merge
    that silently dropped or duplicated a user range would corrupt the
    result store downstream.
    """
    ordered = sorted(batches, key=lambda item: item[0].start)
    if not ordered:
        raise StudyError("no shard batches to merge")
    runs: list[TestcaseRun] = []
    previous: Shard | None = None
    for shard, batch in ordered:
        if previous is not None and shard.start != previous.stop:
            raise StudyError(
                f"shard {shard.index} starts at user {shard.start}, "
                f"expected {previous.stop}: merge would be discontiguous"
            )
        runs.extend(batch)
        previous = shard
    return runs


def _supervised_shard(
    config: ControlledStudyConfig,
    worker_telemetry: str | Path | None,
    parent_wire: dict | None,
    chaos: ShardFaultPlan,
    shard: Shard,
    attempt: int,
) -> list:
    """One supervised attempt at ``shard``, run in a worker process.

    Module-level, so a :func:`functools.partial` of it pickles under any
    start method.  ``chaos`` rolls this attempt's injected failures
    (none for an inactive plan) and the worker acts them out: hang
    (sleep before computing), kill (SIGKILL self after
    ``kill_after_runs`` run records), or corrupt (replace the batch tail
    with a marker the supervisor's ``accept`` check must reject).
    """
    faults = chaos.worker_faults(shard.index, attempt)
    if faults.hang_s is not None:
        time.sleep(faults.hang_s)
    if faults.kill_after_runs is not None:
        fixtures = study_fixtures(config)
        done = 0
        for index in range(shard.start, shard.stop):
            done += len(run_user_range(config, index, index + 1, fixtures))
            if done >= faults.kill_after_runs:
                break
        os.kill(os.getpid(), signal.SIGKILL)
    trace = None
    if worker_telemetry is not None:
        trace = (
            f"{worker_telemetry}.shard{shard.index}.jsonl",
            parent_wire,
            shard.index,
        )
    runs = _run_shard(config, shard.start, shard.stop, trace)
    return list(runs[:-1]) + [CORRUPT_MARKER] if faults.corrupt else runs


def run_sharded_study(
    config: ControlledStudyConfig | None = None,
    shards: int = 1,
    max_workers: int | None = None,
    mp_context: str | None = None,
    worker_telemetry: str | Path | None = None,
    on_progress=None,
    supervisor: SupervisorPolicy | None = None,
    checkpoint: StudyCheckpoint | None = None,
    resume: bool = False,
    chaos: ShardFaultPlan | None = None,
) -> StudyResult:
    """Execute the controlled study across ``shards`` supervised workers.

    Byte-identical to :func:`run_controlled_study` for any shard count:
    per-user RNG streams are derived from ``(config.seed, user_index)``
    alone, and the merge restores user-index order.  ``shards=1`` (with
    no supervision features requested) runs in-process with no workers.
    ``max_workers`` caps concurrent worker processes (default: one per
    shard); ``mp_context`` forces a start method
    (``"fork"``/``"spawn"``/``"forkserver"``).

    Each shard runs in its own supervised ``Process``: a worker that
    dies, exceeds ``supervisor.watchdog_s``, or returns a damaged batch
    is relaunched after a seeded capped-exponential backoff, up to
    ``supervisor.max_attempts`` tries; a shard that exhausts its budget
    is **quarantined** (the study completes with every healthy shard and
    lists the casualties in ``StudyResult.quarantined``) unless
    ``supervisor.quarantine`` is False, in which case the study raises
    :class:`StudyError`.  On any exit — including ``KeyboardInterrupt``
    — remaining workers are terminated and reaped, so an aborted study
    leaks no processes.

    ``checkpoint`` (a :class:`StudyCheckpoint`) makes progress durable:
    completed shards are committed to the checkpoint's result store *in
    shard order* as they finish, each with a manifest record pinning its
    byte span and digest.  ``resume=True`` salvages every verified shard
    from a previous interrupted run and recomputes only the rest; the
    final store bytes are identical to an uninterrupted run's.

    ``chaos`` (a :class:`~repro.faults.shardchaos.ShardFaultPlan`)
    injects the reproducible failure matrix — worker kill after N runs,
    hang, corrupt batch, driver SIGINT between completions — used by the
    fault-injection suite and CI.

    ``worker_telemetry`` enables distributed tracing across the shard
    IPC boundary: each worker writes its own JSON-lines event log to
    ``<worker_telemetry>.shard<i>.jsonl`` and roots its spans in a
    ``study.shard_worker`` span parented (across the process boundary)
    to this call's ``study.sharded`` span.  ``uucs trace`` over the
    driver log plus the shard logs then reconstructs the full study
    tree.  Works under any start method — the context travels in the
    (picklable) task arguments, not in inherited state.

    ``on_progress`` (optional) is called with a :class:`StudyProgress`
    after every shard completion — the hook ``uucs study
    --push-gateway`` uses to push the driver's registry (progress
    gauges included) to a fleet dashboard mid-study.  Progress is
    shard-granular; the ``shards=1`` short-circuit never calls it.
    When telemetry is enabled the same snapshots are mirrored into
    ``uucs_study_progress_ratio`` / ``uucs_study_users`` /
    ``uucs_study_users_done`` / ``uucs_study_runs_per_second`` /
    ``uucs_study_eta_seconds`` and per-shard
    ``uucs_study_shard_progress_ratio`` gauges, and the supervisor adds
    ``uucs_study_shard_retries_total``, ``uucs_study_shards_quarantined``
    and (with a checkpoint) ``uucs_study_shards_checkpointed``; with it
    disabled and no callback, no metrics exist and no events are
    emitted.
    """
    if config is None:
        config = ControlledStudyConfig()
    if shards < 1:
        raise StudyError(f"shards must be >= 1, got {shards}")
    if resume and checkpoint is None:
        raise StudyError("resume=True requires a checkpoint")
    chaos = chaos if chaos is not None else ShardFaultPlan()
    supervised = (
        supervisor is not None
        or checkpoint is not None
        or resume
        or chaos.active
    )
    if shards == 1 and not supervised:
        return run_controlled_study(config)

    plan = shard_ranges(config.n_users, shards)
    policy = supervisor if supervisor is not None else SupervisorPolicy()
    telemetry = get_telemetry()
    with telemetry.span(
        "study.sharded",
        users=config.n_users,
        seed=config.seed,
        engine=config.engine,
        shards=len(plan),
    ) as span:
        parent_wire = None
        if telemetry.enabled and span.context is not None:
            parent_wire = span.context.to_wire()

        results: dict[int, Sequence[TestcaseRun]] = {}
        if checkpoint is not None:
            if resume:
                state = checkpoint.resume(config, plan)
                results.update(state.salvaged)
                if telemetry.enabled:
                    telemetry.emit(
                        "study.resume",
                        shards_salvaged=len(state.salvaged),
                        runs_salvaged=state.runs_salvaged,
                        truncated_to=state.truncated_to,
                    )
            else:
                checkpoint.begin(config, plan)
        #: Checkpoint frontier: first shard index not yet committed to
        #: the store.  Salvage always yields a contiguous prefix, so
        #: this starts right after it.
        next_write = len(results)

        fixtures = study_fixtures(config)
        profiles = fixtures.profiles
        quarantined: set[int] = set()
        to_run = [shard for shard in plan if shard.index not in results]
        track_progress = telemetry.enabled or on_progress is not None
        study_started = time.perf_counter() if track_progress else 0.0
        shards_done = len(results)
        users_done = sum(plan[i].n_users for i in results)
        runs_done = sum(len(batch) for batch in results.values())
        completions = 0

        if telemetry.enabled:
            # Publish the 0% baseline so a dashboard attached before the
            # first shard lands still sees the study (and every shard
            # row), not a blank panel.  Salvaged shards show as done.
            for shard in plan:
                _shard_progress_gauge(telemetry).set(
                    1.0 if shard.index in results else 0.0,
                    shard=str(shard.index),
                )
            _record_progress_metrics(
                telemetry,
                StudyProgress(
                    shards_total=len(plan),
                    shards_done=shards_done,
                    users=config.n_users,
                    users_done=users_done,
                    runs=runs_done,
                    elapsed_s=0.0,
                ),
            )
            _quarantine_gauge(telemetry).set(0)
            if checkpoint is not None:
                _checkpoint_gauge(telemetry).set(next_write)

        def _accept(shard: Shard, batch) -> bool:
            """Structural integrity of a worker reply: all records real,
            covering exactly the shard's users in index order."""
            if not isinstance(batch, list) or not batch:
                return False
            seen: list[str] = []
            for item in batch:
                if not isinstance(item, TestcaseRun):
                    return False
                user = item.context.user_id
                if not seen or seen[-1] != user:
                    seen.append(user)
            return seen == [p.user_id for p in profiles[shard.start : shard.stop]]

        def _failed(
            shard: Shard, attempts: int, reason: str, detail: str,
            backoff_s: float | None,
        ) -> None:
            if backoff_s is None:
                if not policy.quarantine:
                    raise StudyError(
                        f"shard {shard.index} failed after {attempts} "
                        f"attempts ({reason}): {detail}"
                    )
                quarantined.add(shard.index)
                if checkpoint is not None:
                    checkpoint.quarantine(shard, attempts, detail)
                if telemetry.enabled:
                    _quarantine_gauge(telemetry).set(len(quarantined))
                    telemetry.emit(
                        "study.shard_quarantined",
                        shard=shard.index,
                        attempts=attempts,
                        reason=reason,
                        error=detail,
                    )
            elif telemetry.enabled:
                _retry_counter(telemetry).inc(
                    shard=str(shard.index), reason=reason
                )
                telemetry.emit(
                    "study.shard_retry",
                    shard=shard.index,
                    attempt=attempts,
                    reason=reason,
                    error=detail,
                    backoff_s=backoff_s,
                )

        def _completed(shard: Shard, batch: list, elapsed_s: float) -> None:
            nonlocal next_write, shards_done, users_done, runs_done, completions
            results[shard.index] = batch
            shards_done += 1
            users_done += shard.n_users
            runs_done += len(batch)
            if checkpoint is not None:
                # Frontier-ordered commits: shard k's bytes go to the
                # store only once every shard below k is committed, so
                # the store is always a byte-exact prefix of the
                # uninterrupted run.  A quarantined shard stalls the
                # frontier permanently (its index never enters
                # ``results``); later shards stay in memory only.
                while next_write < len(plan) and next_write in results:
                    checkpoint.write_shard(
                        plan[next_write], results[next_write]
                    )
                    next_write += 1
                if telemetry.enabled:
                    _checkpoint_gauge(telemetry).set(next_write)
            if telemetry.enabled:
                _record_shard_metrics(telemetry, shard, len(batch), elapsed_s)
            if track_progress:
                progress = StudyProgress(
                    shards_total=len(plan),
                    shards_done=shards_done,
                    users=config.n_users,
                    users_done=users_done,
                    runs=runs_done,
                    elapsed_s=time.perf_counter() - study_started,
                )
                if telemetry.enabled:
                    _shard_progress_gauge(telemetry).set(
                        1.0, shard=str(shard.index)
                    )
                    _record_progress_metrics(telemetry, progress)
                if on_progress is not None:
                    on_progress(progress)
            completions += 1
            if chaos.driver_sigint(completions):
                raise KeyboardInterrupt(
                    f"injected driver SIGINT after shard completion "
                    f"{completions}"
                )

        work = functools.partial(
            _supervised_shard, config, worker_telemetry, parent_wire, chaos
        )
        supervised_map(
            work, to_run, policy, _completed, _failed, seed=config.seed,
            accept=_accept, max_workers=max_workers, mp_context=mp_context,
        )

        quarantined_shards = tuple(sorted(quarantined))
        if quarantined_shards:
            runs = [
                run
                for shard in plan
                if shard.index in results
                for run in results[shard.index]
            ]
        else:
            runs = merge_shard_batches(
                [(shard, results[shard.index]) for shard in plan]
            )
        if checkpoint is not None:
            checkpoint.complete(len(runs), quarantined_shards)
        span.annotate(runs=len(runs), quarantined=len(quarantined_shards))
        if telemetry.enabled:
            telemetry.emit(
                "study.complete",
                users=len(profiles),
                runs=len(runs),
                shards=len(plan),
                discomforts=sum(1 for r in runs if r.discomforted),
                quarantined=len(quarantined_shards),
            )
        return StudyResult(
            tuple(runs), profiles, config, quarantined=quarantined_shards
        )


def _shard_progress_gauge(telemetry):
    return telemetry.metrics.gauge(
        "uucs_study_shard_progress_ratio",
        "Per-shard completion (0 submitted, 1 done); shard-granular.",
        unit="ratio",
        labelnames=("shard",),
    )


def _retry_counter(telemetry):
    return telemetry.metrics.counter(
        "uucs_study_shard_retries_total",
        "Shard attempts relaunched by the supervisor after a failure.",
        labelnames=("shard", "reason"),
    )


def _quarantine_gauge(telemetry):
    return telemetry.metrics.gauge(
        "uucs_study_shards_quarantined",
        "Shards abandoned after exhausting their supervisor retry budget.",
    )


def _checkpoint_gauge(telemetry):
    return telemetry.metrics.gauge(
        "uucs_study_shards_checkpointed",
        "Shards durably committed to the result store (checkpoint frontier).",
    )


def _record_progress_metrics(telemetry, progress: StudyProgress) -> None:
    """Overall-study progress gauges (caller checked ``enabled``).

    These are what ``/fleet`` and the web dashboard's study panel read
    (directly from a co-located exporter, or federated from a pushed
    driver snapshot via ``uucs study --push-gateway``).
    """
    metrics = telemetry.metrics
    metrics.gauge(
        "uucs_study_users", "Participant sessions planned for this study."
    ).set(progress.users)
    metrics.gauge(
        "uucs_study_users_done", "Participant sessions completed so far."
    ).set(progress.users_done)
    metrics.gauge(
        "uucs_study_progress_ratio",
        "Fraction of the study's users completed (0..1).",
        unit="ratio",
    ).set(progress.progress_ratio)
    rate = progress.runs_per_s
    if rate is not None:
        metrics.gauge(
            "uucs_study_runs_per_second",
            "Observed study throughput in run records per wall second.",
            unit="runs/s",
        ).set(rate)
    eta = progress.eta_s
    if eta is not None:
        metrics.gauge(
            "uucs_study_eta_seconds",
            "Estimated wall seconds until study completion, from the "
            "observed users/second.",
            unit="seconds",
        ).set(eta)


def _record_shard_metrics(
    telemetry, shard: Shard, n_runs: int, elapsed_s: float
) -> None:
    """Parent-side per-shard instrumentation (caller checked ``enabled``)."""
    metrics = telemetry.metrics
    metrics.histogram(
        "uucs_study_shard_seconds",
        "Wall-clock per study shard, submit to completion.",
        unit="seconds",
        labelnames=("shard",),
        buckets=SHARD_SECONDS_BUCKETS,
    ).observe(elapsed_s, shard=str(shard.index))
    metrics.counter(
        "uucs_study_shard_runs_total",
        "Run records produced by shard workers.",
        labelnames=("shard",),
    ).inc(n_runs, shard=str(shard.index))
    telemetry.emit(
        "study.shard",
        shard=shard.index,
        users=shard.n_users,
        runs=n_runs,
        duration_s=elapsed_s,
    )
