"""Tests for the shard supervisor: retry, watchdog, quarantine, chaos.

Every scenario here is deterministic: the chaos seeds were chosen so the
seeded dice produce a known fault schedule (e.g. "shard 0 is killed on
attempt 1 and clean on attempt 2"), and each test asserts that schedule
before relying on it.  The contract under test is the ISSUE's: whatever
the supervisor has to do to finish a study — retries, watchdog kills,
respawns — the surviving output must be byte-identical to a run where
nothing went wrong.
"""

import gc
import math
import multiprocessing
import os
import signal
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.errors import StudyError, ValidationError
from repro.faults import ShardAttemptFaults, ShardFaultPlan
from repro.study import (
    ControlledStudyConfig,
    SupervisorPolicy,
    run_controlled_study,
    run_sharded_study,
    shard_ranges,
)
from repro.study.supervisor import supervised_map
from shardcheck import serialized_records

#: Small config shared by the end-to-end supervisor runs.
SMALL = ControlledStudyConfig(n_users=2, seed=5, tasks=("word",))

#: Fast backoff so retry tests don't sit in sleep().
FAST = dict(base_delay=0.01, max_delay=0.05)


class TestShardAttemptFaults:
    def test_default_is_clean(self):
        assert not ShardAttemptFaults().any

    def test_any_fault_flags(self):
        assert ShardAttemptFaults(kill_after_runs=3).any
        assert ShardAttemptFaults(hang_s=1.0).any
        assert ShardAttemptFaults(corrupt=True).any


class TestShardFaultPlan:
    def test_default_plan_inactive(self):
        plan = ShardFaultPlan()
        assert not plan.active
        assert not plan.worker_faults(0, 1).any
        assert not plan.driver_sigint(1)

    def test_parse_single_and_compound(self):
        plan = ShardFaultPlan.parse("kill=0.5,kill_after_runs=2", seed=9)
        assert plan.kill == 0.5
        assert plan.kill_after_runs == 2
        assert plan.seed == 9
        assert plan.active

    def test_parse_hyphen_alias_and_hang(self):
        plan = ShardFaultPlan.parse("kill=1.0,kill-after-runs=7,hang_s=0.5")
        assert plan.kill_after_runs == 7
        assert plan.hang_s == 0.5

    def test_parse_all_fans_out(self):
        plan = ShardFaultPlan.parse("all=0.25")
        assert (plan.kill, plan.hang, plan.corrupt, plan.sigint) == (
            0.25, 0.25, 0.25, 0.25,
        )

    @pytest.mark.parametrize("spec", [
        "kill",                 # missing =VALUE
        "explode=0.5",          # unknown knob
        "kill=maybe",           # not a number
        "kill=1.5",             # probability out of range
        "kill_after_runs=-1",   # negative run count
        "hang_s=-2",            # negative stall
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValidationError):
            ShardFaultPlan.parse(spec)

    def test_worker_faults_deterministic_per_shard_attempt(self):
        plan = ShardFaultPlan(kill=0.5, hang=0.5, corrupt=0.5, seed=11)
        assert plan.worker_faults(0, 1) == plan.worker_faults(0, 1)
        assert plan.worker_faults(1, 2) == plan.worker_faults(1, 2)

    def test_retrying_one_shard_never_shifts_another(self):
        # Shard 1's schedule is a function of (seed, shard, attempt)
        # only — however many times shard 0 is retried, shard 1 attempt
        # 1 rolls the same dice.
        plan = ShardFaultPlan(kill=0.5, hang=0.5, corrupt=0.5, seed=3)
        before = [plan.worker_faults(1, a) for a in (1, 2, 3)]
        for _ in range(5):
            plan.worker_faults(0, 1)  # "retry" shard 0
        assert [plan.worker_faults(1, a) for a in (1, 2, 3)] == before

    def test_driver_sigint_deterministic(self):
        plan = ShardFaultPlan(sigint=0.5, seed=4)
        rolls = [plan.driver_sigint(n) for n in range(1, 20)]
        assert rolls == [plan.driver_sigint(n) for n in range(1, 20)]
        assert any(rolls) and not all(rolls)  # a real coin, seeded

    def test_certain_sigint_always_fires(self):
        plan = ShardFaultPlan(sigint=1.0)
        assert all(plan.driver_sigint(n) for n in range(1, 10))

    def test_probability_validation_on_construction(self):
        with pytest.raises(ValidationError):
            ShardFaultPlan(kill=-0.1)
        with pytest.raises(ValidationError):
            ShardFaultPlan(sigint=2.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # A negative seed would kill every worker attempt in derive_rng.
        with pytest.raises(ValidationError, match="non-negative integer"):
            ShardFaultPlan(kill=0.5, seed=seed)
        with pytest.raises(ValidationError, match="non-negative integer"):
            ShardFaultPlan.parse("kill=0.5", seed=seed)

    def test_numpy_integer_seed_stored_as_int(self):
        plan = ShardFaultPlan(kill=0.5, seed=np.int64(3))
        assert type(plan.seed) is int
        assert plan.worker_faults(0, 1) == ShardFaultPlan(
            kill=0.5, seed=3
        ).worker_faults(0, 1)


class TestSupervisorPolicy:
    def test_defaults_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_attempts == 3
        assert policy.quarantine is True
        assert policy.watchdog_s is None

    @pytest.mark.parametrize("watchdog_s", [0.0, -1.0])
    def test_watchdog_must_be_positive(self, watchdog_s):
        with pytest.raises(StudyError):
            SupervisorPolicy(watchdog_s=watchdog_s)

    @pytest.mark.parametrize("watchdog_s", [math.inf, math.nan])
    def test_watchdog_must_be_finite(self, watchdog_s):
        # inf overflows the wait timeout; a NaN deadline never passes.
        with pytest.raises(StudyError, match="finite positive"):
            SupervisorPolicy(watchdog_s=watchdog_s)

    def test_invalid_retry_shape_wrapped_as_study_error(self):
        with pytest.raises(StudyError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(StudyError):
            SupervisorPolicy(base_delay=-1.0)

    def test_backoff_grows_and_caps_without_jitter(self):
        policy = SupervisorPolicy(
            base_delay=0.1, max_delay=0.4, multiplier=2.0, jitter=0.0
        )
        rng = None  # jitter=0 must not touch the RNG
        delays = [policy.backoff(f, rng) for f in (1, 2, 3, 4, 5)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert all(d <= 0.4 + 1e-9 for d in delays)
        assert delays[-1] == pytest.approx(0.4)


class TestSupervisedStudy:
    """End-to-end supervised runs under seeded chaos.

    Each chaos seed below was picked so that (for 2 shards) at least one
    shard faults on attempt 1 and every shard is clean by attempt 2 —
    asserted up front so a dice-stream change fails loudly here instead
    of turning the test into a no-op.
    """

    def _baseline(self):
        return serialized_records(run_controlled_study(SMALL))

    def test_killed_worker_is_retried_to_byte_identical_output(self):
        plan = ShardFaultPlan(kill=0.6, kill_after_runs=2, seed=7)
        assert any(plan.worker_faults(s, 1).any for s in range(2))
        assert not any(plan.worker_faults(s, 2).any for s in range(2))
        result = run_sharded_study(
            SMALL, shards=2, chaos=plan,
            supervisor=SupervisorPolicy(
                max_attempts=4, quarantine=False, **FAST
            ),
        )
        assert serialized_records(result) == self._baseline()
        assert result.quarantined == ()

    def test_hung_worker_reclaimed_by_watchdog(self):
        plan = ShardFaultPlan(hang=0.5, hang_s=3600.0, seed=1)
        assert any(plan.worker_faults(s, 1).any for s in range(2))
        assert not any(plan.worker_faults(s, 2).any for s in range(2))
        result = run_sharded_study(
            SMALL, shards=2, chaos=plan,
            supervisor=SupervisorPolicy(
                max_attempts=4, quarantine=False, watchdog_s=1.0, **FAST
            ),
        )
        assert serialized_records(result) == self._baseline()

    def test_corrupt_batch_detected_and_retried(self):
        plan = ShardFaultPlan(corrupt=0.6, seed=1)
        assert any(plan.worker_faults(s, 1).any for s in range(2))
        assert not any(plan.worker_faults(s, 2).any for s in range(2))
        result = run_sharded_study(
            SMALL, shards=2, chaos=plan,
            supervisor=SupervisorPolicy(
                max_attempts=4, quarantine=False, **FAST
            ),
        )
        assert serialized_records(result) == self._baseline()

    def test_exhausted_shards_quarantined_into_partial_result(self):
        # corrupt=1.0 damages every attempt of every shard: with
        # quarantine on, the study completes *partially* and names the
        # shards it gave up on.
        result = run_sharded_study(
            SMALL, shards=2, chaos=ShardFaultPlan(corrupt=1.0),
            supervisor=SupervisorPolicy(max_attempts=2, **FAST),
        )
        assert result.quarantined == (0, 1)
        assert result.runs == ()
        assert len(result.profiles) == SMALL.n_users

    def test_quarantine_false_raises_instead(self):
        with pytest.raises(StudyError):
            run_sharded_study(
                SMALL, shards=2, chaos=ShardFaultPlan(corrupt=1.0),
                supervisor=SupervisorPolicy(
                    max_attempts=2, quarantine=False, **FAST
                ),
            )

    def test_persistent_hang_quarantined_via_watchdog(self):
        result = run_sharded_study(
            SMALL, shards=2,
            chaos=ShardFaultPlan(hang=1.0, hang_s=3600.0),
            supervisor=SupervisorPolicy(
                max_attempts=2, watchdog_s=0.3, **FAST
            ),
        )
        assert result.quarantined == (0, 1)
        assert result.runs == ()

    def test_driver_interrupt_terminates_workers(self):
        # Satellite: KeyboardInterrupt mid-study must not leak worker
        # processes.  sigint=1.0 interrupts right after the first shard
        # completes, while the other worker is typically still running.
        with pytest.raises(KeyboardInterrupt):
            run_sharded_study(
                SMALL, shards=2, chaos=ShardFaultPlan(sigint=1.0),
                supervisor=SupervisorPolicy(**FAST),
            )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("uucs-shard")
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"worker processes leaked: {leaked}"

    def test_resume_requires_checkpoint(self):
        with pytest.raises(StudyError):
            run_sharded_study(SMALL, shards=2, resume=True)

    def test_plain_unsupervised_path_untouched_by_default(self):
        # No supervisor/chaos/checkpoint: shards=1 must still take the
        # in-process path and produce the canonical records.
        result = run_sharded_study(SMALL, shards=1)
        assert serialized_records(result) == self._baseline()
        assert result.quarantined == ()


# Module-level workers for the supervised_map tests below; each gets
# ``(shard, attempt)`` with a 1-based attempt.
def _attempt(shard, attempt):
    return attempt


def _killed_first(shard, attempt):
    if attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return shard.index


def _raises_first(shard, attempt):
    if attempt == 1:
        raise RuntimeError("flaky worker")
    return shard.index


def _hangs_first(shard, attempt):
    if attempt == 1:
        time.sleep(3600)
    return shard.index


def _always_raises(shard, attempt):
    raise RuntimeError("broken worker")


def _slow_after_first(shard, attempt):
    if shard.index > 0:
        time.sleep(60)
    return shard.index


def _nested(shard, attempt):
    return [[shard.index] for _ in range(1000)]


class TestSupervisedMap:
    """The supervision loop on its own, with trivial workers."""

    def _map(self, work, accept=None, n_shards=2, **policy):
        results, failures = {}, []
        supervised_map(
            work,
            shard_ranges(n_shards, n_shards),
            SupervisorPolicy(**{**FAST, **policy}),
            lambda shard, payload, elapsed_s: results.update(
                {shard.index: payload}
            ),
            lambda shard, attempts, reason, detail, backoff_s: failures.append(
                (shard.index, attempts, reason, detail, backoff_s)
            ),
            seed=3,
            accept=accept,
        )
        return results, failures

    def test_killed_attempt_is_retried(self):
        results, failures = self._map(_killed_first)
        assert results == {0: 0, 1: 1}
        assert sorted((f[0], f[1], f[2]) for f in failures) == [
            (0, 1, "killed"), (1, 1, "killed"),
        ]
        assert all("died without replying" in f[3] for f in failures)
        assert all(f[4] is not None and f[4] >= 0 for f in failures)

    def test_error_reply_is_retried(self):
        results, failures = self._map(_raises_first)
        assert results == {0: 0, 1: 1}
        assert {(f[0], f[2]) for f in failures} == {(0, "error"), (1, "error")}
        assert all(f[3] == "RuntimeError: flaky worker" for f in failures)

    def test_rejected_payload_is_retried_as_corrupt(self):
        results, failures = self._map(
            _attempt, accept=lambda shard, payload: payload > 1
        )
        assert results == {0: 2, 1: 2}
        assert {(f[0], f[1], f[2]) for f in failures} == {
            (0, 1, "corrupt"), (1, 1, "corrupt"),
        }

    def test_hang_reclaimed_by_watchdog(self):
        started = time.monotonic()
        results, failures = self._map(_hangs_first, watchdog_s=0.5)
        assert results == {0: 0, 1: 1}
        assert {f[2] for f in failures} == {"watchdog"}
        assert time.monotonic() - started < 30

    def test_no_backoff_once_attempts_run_out(self):
        results, failures = self._map(_always_raises, max_attempts=2)
        assert results == {}
        for index in (0, 1):
            mine = [f for f in failures if f[0] == index]
            assert [f[1] for f in mine] == [1, 2]
            assert mine[0][4] is not None
            assert mine[1][4] is None

    def test_backoff_schedule_is_seeded(self):
        first = sorted(self._map(_raises_first)[1])
        assert sorted(self._map(_raises_first)[1]) == first

    def test_on_result_exception_leaves_no_live_worker(self):
        def boom(shard, payload, elapsed_s):
            raise RuntimeError("callback failed")

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="callback failed"):
            supervised_map(
                _slow_after_first,
                shard_ranges(3, 3),
                SupervisorPolicy(**FAST),
                boom,
                lambda *args: None,
                seed=0,
            )
        assert time.monotonic() - started < 30
        leaked = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("uucs-shard")
        ]
        assert not leaked, f"worker processes leaked: {leaked}"


class TestSupervisedMapGC:
    """A reply is unpickled with the cyclic GC paused and lands in the
    oldest generation; the GC is as the caller left it on every exit."""

    def _map(self, work, on_result=lambda shard, payload, elapsed_s: None):
        supervised_map(
            work,
            shard_ranges(2, 2),
            SupervisorPolicy(**FAST),
            on_result,
            lambda *args: None,
            seed=0,
        )

    def _leaked(self):
        return [
            p for p in multiprocessing.active_children()
            if p.name.startswith("uucs-shard")
        ]

    def test_reply_received_with_gc_paused(self, monkeypatch):
        recv = Connection.recv
        paused = []

        def watching(conn):
            paused.append(not gc.isenabled())
            return recv(conn)

        monkeypatch.setattr(Connection, "recv", watching)
        seen = {}

        def on_result(shard, payload, elapsed_s):
            oldest = {id(o) for o in gc.get_objects(generation=2)}
            seen[shard.index] = (
                gc.isenabled(), id(payload) in oldest, id(payload[0]) in oldest
            )

        assert gc.isenabled()
        self._map(_nested, on_result)
        assert paused == [True, True]
        assert seen == {0: (True, True, True), 1: (True, True, True)}
        assert gc.isenabled()

    def test_interrupted_receive_restores_gc(self, monkeypatch):
        def interrupted(conn):
            raise KeyboardInterrupt

        monkeypatch.setattr(Connection, "recv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self._map(_attempt)
        assert gc.isenabled()
        assert not self._leaked()

    def test_raising_callback_leaves_gc_on(self):
        def boom(shard, payload, elapsed_s):
            raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            self._map(_attempt, boom)
        assert gc.isenabled()
        assert not self._leaked()

    def test_callers_gc_state_kept(self):
        gc.disable()
        try:
            self._map(_attempt)
            assert not gc.isenabled()
        finally:
            gc.enable()
        gc.freeze()
        try:
            assert gc.get_freeze_count() > 0
            self._map(_attempt)
            # Objects the caller froze stay frozen (an unfreeze empties
            # the permanent generation).
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
