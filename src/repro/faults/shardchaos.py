"""Seeded shard-level chaos for the sharded study supervisor.

The transport chaos layers (:mod:`repro.faults.injection`,
:mod:`repro.faults.proxy`) fault the *network* seam; this module faults
the *process* seam the study supervisor guards: worker processes that
die mid-shard, hang forever, or hand back damaged batches, and a driver
that gets Ctrl-C'd between shard completions.  Those are the failure
modes that define volunteer/harvesting fleets (hosts churn, jobs are
preempted), and the supervisor's retry/watchdog/checkpoint machinery
exists to absorb exactly them.

The plan shares its spec grammar and range check with the transport's
:class:`~repro.faults.injection.FaultPlan` (both subclass
:class:`~repro.faults.injection.ChaosPlan`), and its determinism follows
the same idiom: every trigger is decided by dice drawn from
``derive_rng(seed, "shard-chaos", shard, attempt)`` (worker side) or
``derive_rng(seed, "driver-sigint", completions)`` (driver side), in a
fixed roll order, so a given seed always produces the same failure
schedule — which is what lets the resume tests assert byte-identical
output instead of statistical survival.

Fault kinds and what they model:

=================  =====================================================
``kill``           the worker process dies (SIGKILL) after
                   ``kill_after_runs`` run records — host powered off,
                   OOM-killed, preempted
``hang``           the worker stalls ``hang_s`` seconds before
                   computing — NFS wedge, swap death, livelock; only a
                   watchdog gets the shard back
``corrupt``        the worker's result batch is damaged in flight —
                   pickling/IPC corruption the supervisor must detect
                   and retry
``sigint``         the *driver* receives a KeyboardInterrupt right
                   after a shard completes — the operator's Ctrl-C the
                   checkpoint manifest makes resumable
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.faults.injection import ChaosPlan
from repro.util.rng import config_seed, derive_rng

__all__ = ["ShardAttemptFaults", "ShardFaultPlan"]

#: Marker injected into a corrupted batch in place of real run records;
#: the supervisor's batch validation rejects it and schedules a retry.
CORRUPT_MARKER = "__uucs_corrupt_batch__"


@dataclass(frozen=True)
class ShardAttemptFaults:
    """The concrete faults one worker attempt must act out.

    Produced by :meth:`ShardFaultPlan.worker_faults` from the seeded
    dice; picklable, so it travels to the worker in its spawn-safe
    argument tuple like everything else the shard needs.
    """

    kill_after_runs: int | None = None
    hang_s: float | None = None
    corrupt: bool = False

    @property
    def any(self) -> bool:
        return (
            self.kill_after_runs is not None
            or self.hang_s is not None
            or self.corrupt
        )


@dataclass(frozen=True)
class ShardFaultPlan(ChaosPlan):
    """Per-attempt shard fault probabilities (all default to 0).

    ``ShardFaultPlan.parse(spec, seed=N)`` sets the schedule's seed.
    """

    PROBABILITIES = ("kill", "hang", "corrupt", "sigint")
    AMOUNTS = ("kill_after_runs", "hang_s")
    ALIASES = {"kill-after-runs": "kill_after_runs"}

    #: P(worker is SIGKILLed mid-shard) per attempt.
    kill: float = 0.0
    #: Run records the worker completes before the kill fires.
    kill_after_runs: int = 4
    #: P(worker hangs before computing) per attempt.
    hang: float = 0.0
    #: Seconds a hung worker stalls (make it >> the watchdog).
    hang_s: float = 3600.0
    #: P(the worker's result batch arrives damaged) per attempt.
    corrupt: float = 0.0
    #: P(the driver is interrupted after a shard completes).
    sigint: float = 0.0
    #: Seed for the fault schedule (``UUCS_CHAOS_SEED`` in CI); a
    #: non-negative integer, stored as an ``int``.
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "seed", config_seed(self.seed, ValidationError)
        )

    def worker_faults(self, shard: int, attempt: int) -> ShardAttemptFaults:
        """Roll the worker-side dice for ``(shard, attempt)``.

        Fixed roll order — kill, hang, corrupt — from a stream derived
        per (shard, attempt), so retrying one shard never shifts another
        shard's schedule, and attempt 2 can succeed where attempt 1 was
        killed (the property every retry test leans on).  ``attempt`` is
        1-based.
        """
        rng = derive_rng(self.seed, "shard-chaos", shard, attempt)
        kill = float(rng.random()) < self.kill
        hang = float(rng.random()) < self.hang
        corrupt = float(rng.random()) < self.corrupt
        return ShardAttemptFaults(
            kill_after_runs=self.kill_after_runs if kill else None,
            hang_s=self.hang_s if hang else None,
            corrupt=corrupt,
        )

    def driver_sigint(self, completions: int) -> bool:
        """Roll the driver-side interrupt die after the ``completions``-th
        shard completion (1-based)."""
        if self.sigint <= 0.0:
            return False
        rng = derive_rng(self.seed, "driver-sigint", completions)
        return float(rng.random()) < self.sigint
