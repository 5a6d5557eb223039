"""Tests for study checkpoint/resume: manifest lifecycle, salvage, and
the golden resume soak.

The contract (ISSUE: fault-tolerant sharded studies): a study
interrupted at any point and resumed must produce output byte-identical
to a run where nothing happened — including the canonical seed-2004
study, whose golden SHA-256 pin the soak test at the bottom re-checks
after killing workers and the driver under two fixed chaos seeds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import StudyError
from repro.faults import ShardFaultPlan
from repro.stores import ResultStore
from repro.study import (
    ControlledStudyConfig,
    StudyCheckpoint,
    SupervisorPolicy,
    run_controlled_study,
    run_sharded_study,
    shard_ranges,
)
from shardcheck import (
    assert_resume_equivalence,
    serialized_records,
    study_digest,
)

SMALL = ControlledStudyConfig(n_users=2, seed=5, tasks=("word",))

GOLDEN = Path(__file__).parent / "golden" / "controlled_study_seed2004.sha256"


def fast_policy(**overrides):
    kwargs = dict(
        max_attempts=6, base_delay=0.01, max_delay=0.05, quarantine=False
    )
    kwargs.update(overrides)
    return SupervisorPolicy(**kwargs)


def manifest_records(checkpoint):
    return [
        json.loads(line)
        for line in checkpoint.path.read_text().splitlines()
        if line.strip()
    ]


def run_checkpointed(store, config=SMALL, shards=2, **kwargs):
    kwargs.setdefault("supervisor", fast_policy())
    return run_sharded_study(
        config, shards=shards, checkpoint=StudyCheckpoint(store), **kwargs
    )


class TestManifestLifecycle:
    def test_completed_run_writes_verifiable_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_checkpointed(store)
        baseline = b"".join(serialized_records(run_controlled_study(SMALL)))
        assert store.path.read_bytes() == baseline

        checkpoint = StudyCheckpoint(store)
        records = manifest_records(checkpoint)
        assert [r["kind"] for r in records] == [
            "header", "shard", "shard", "complete",
        ]
        header = records[0]
        assert header["seed"] == SMALL.seed
        assert header["n_users"] == SMALL.n_users
        assert header["base_offset"] == 0
        offset = 0
        stored = store.path.read_bytes()
        for shard_record in records[1:3]:
            assert shard_record["status"] == "done"
            assert shard_record["offset_start"] == offset
            span = stored[
                shard_record["offset_start"]:shard_record["offset_end"]
            ]
            assert hashlib.sha256(span).hexdigest() == shard_record["sha256"]
            offset = shard_record["offset_end"]
        assert offset == len(baseline)
        assert records[-1]["runs"] == len(result.runs)
        assert records[-1]["quarantined"] == []
        assert not checkpoint.unfinished()

    def test_fresh_start_refuses_unfinished_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(store, chaos=ShardFaultPlan(sigint=1.0))
        assert StudyCheckpoint(store).unfinished()
        with pytest.raises(StudyError, match="resume"):
            run_checkpointed(store)

    def test_completed_manifest_superseded_by_next_study(self, tmp_path):
        store = ResultStore(tmp_path)
        run_checkpointed(store)
        first_size = store.size()
        run_checkpointed(store)  # append-only store: a second full study
        assert store.size() == 2 * first_size
        records = manifest_records(StudyCheckpoint(store))
        # Only the new study's records survive, anchored past the old bytes.
        assert [r["kind"] for r in records] == [
            "header", "shard", "shard", "complete",
        ]
        assert records[0]["base_offset"] == first_size

    def test_resume_rejects_mismatched_config(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(store, chaos=ShardFaultPlan(sigint=1.0))
        other = ControlledStudyConfig(n_users=2, seed=6, tasks=("word",))
        with pytest.raises(StudyError, match="seed"):
            run_checkpointed(store, config=other, resume=True)

    def test_resume_without_manifest_errors(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StudyError, match="manifest"):
            run_checkpointed(store, resume=True)

    def test_resume_rejects_unknown_manifest_version(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(store, chaos=ShardFaultPlan(sigint=1.0))
        checkpoint = StudyCheckpoint(store)
        records = manifest_records(checkpoint)
        records[0]["version"] = 99
        checkpoint.path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        with pytest.raises(StudyError, match="version"):
            run_checkpointed(store, resume=True)

    def test_corrupt_committed_manifest_line_is_fatal(self, tmp_path):
        # A torn *tail* is forgiven; garbage on an fsynced interior line
        # is not — it means the manifest was hand-edited or damaged.
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(store, chaos=ShardFaultPlan(sigint=1.0))
        checkpoint = StudyCheckpoint(store)
        lines = checkpoint.path.read_text().splitlines(keepends=True)
        checkpoint.path.write_text(
            lines[0] + "not json\n" + "".join(lines[1:]), encoding="utf-8"
        )
        with pytest.raises(StudyError, match="corrupt"):
            run_checkpointed(store, resume=True)


class TestResumeSalvage:
    def test_interrupt_resume_byte_identical(self):
        assert_resume_equivalence(SMALL, shards=2)

    def test_interrupt_resume_under_kill_chaos(self):
        plan = ShardFaultPlan(
            kill=0.5, kill_after_runs=2, sigint=1.0, seed=3
        )
        assert_resume_equivalence(SMALL, shards=2, chaos=plan)

    def test_interrupt_resume_under_chaos_with_batch_engine(self):
        """Checkpoint byte-spans and resume byte-identity are
        engine-independent: the cell-batched engine rides the same
        run_user_range contract, so a chaos-interrupted batch study
        resumes to the exact bytes of an uninterrupted scalar run."""
        batch_small = ControlledStudyConfig(
            n_users=SMALL.n_users, seed=SMALL.seed, tasks=SMALL.tasks,
            engine="batch",
        )
        plan = ShardFaultPlan(
            kill=0.5, kill_after_runs=2, sigint=1.0, seed=3
        )
        digest = assert_resume_equivalence(
            batch_small, shards=2, chaos=plan
        )
        # Same bytes the *analytic* engine produces for this config:
        # the resume contract holds across engines, not merely within.
        assert digest == study_digest(
            run_controlled_study(
                ControlledStudyConfig(
                    n_users=SMALL.n_users, seed=SMALL.seed,
                    tasks=SMALL.tasks, engine="analytic",
                )
            )
        )

    def test_torn_manifest_tail_tolerated(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(store, chaos=ShardFaultPlan(sigint=1.0))
        checkpoint = StudyCheckpoint(store)
        with checkpoint.path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind":"shard","status":"do')  # crashed mid-append
        resumed = run_checkpointed(store, resume=True)
        baseline = run_controlled_study(SMALL)
        assert serialized_records(resumed) == serialized_records(baseline)
        assert store.path.read_bytes() == b"".join(
            serialized_records(baseline)
        )

    def test_corrupted_store_span_recomputed(self, tmp_path):
        # Complete a checkpointed study, then damage shard 1's bytes and
        # strip the completion record: resume must distrust the
        # manifest, salvage only the shard that still verifies, and
        # recompute the rest back to byte-identity.
        store = ResultStore(tmp_path)
        run_checkpointed(store)
        checkpoint = StudyCheckpoint(store)
        records = manifest_records(checkpoint)
        shard1 = records[2]
        blob = bytearray(store.path.read_bytes())
        flip = shard1["offset_start"]
        blob[flip] = blob[flip] ^ 0x01
        store.path.write_bytes(bytes(blob))
        checkpoint.path.write_text(
            "".join(
                json.dumps(r, separators=(",", ":"), sort_keys=True) + "\n"
                for r in records[:-1]  # drop "complete": study looks crashed
            ),
            encoding="utf-8",
        )
        resumed = run_checkpointed(store, resume=True)
        baseline = run_controlled_study(SMALL)
        assert serialized_records(resumed) == serialized_records(baseline)
        assert store.path.read_bytes() == b"".join(
            serialized_records(baseline)
        )
        stamped = manifest_records(StudyCheckpoint(store))
        resume_record = next(r for r in stamped if r["kind"] == "resume")
        assert resume_record["salvaged_shards"] == 1  # shard 1 was distrusted

    def test_resume_of_complete_study_is_lossless(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_checkpointed(store)
        blob = store.path.read_bytes()
        resumed = run_checkpointed(store, resume=True)
        assert serialized_records(resumed) == serialized_records(first)
        assert store.path.read_bytes() == blob
        resume_record = next(
            r
            for r in manifest_records(StudyCheckpoint(store))
            if r["kind"] == "resume"
        )
        assert resume_record["salvaged_shards"] == 2
        assert resume_record["salvaged_runs"] == len(first.runs)


    def _rewrite_manifest(self, checkpoint, records):
        checkpoint.path.write_text(
            "".join(
                json.dumps(r, separators=(",", ":"), sort_keys=True) + "\n"
                for r in records
            ),
            encoding="utf-8",
        )

    def test_span_that_verifies_but_does_not_parse_is_fatal(self, tmp_path):
        # Shard 1's first record is damaged and the manifest digest
        # re-pinned to the damaged bytes: the digest vouches for a span
        # that is not run records, which resume must not paper over.
        store = ResultStore(tmp_path)
        run_checkpointed(store)
        checkpoint = StudyCheckpoint(store)
        records = manifest_records(checkpoint)
        shard1 = records[2]
        blob = bytearray(store.path.read_bytes())
        blob[shard1["offset_start"]] = ord("x")
        store.path.write_bytes(bytes(blob))
        span = bytes(blob[shard1["offset_start"]:shard1["offset_end"]])
        shard1["sha256"] = hashlib.sha256(span).hexdigest()
        self._rewrite_manifest(checkpoint, records)
        with pytest.raises(StudyError, match="verified by digest but failed"):
            run_checkpointed(store, resume=True)

    def test_run_count_mismatch_is_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        run_checkpointed(store)
        checkpoint = StudyCheckpoint(store)
        records = manifest_records(checkpoint)
        records[1]["runs"] += 1
        self._rewrite_manifest(checkpoint, records)
        with pytest.raises(StudyError, match="manifest says"):
            run_checkpointed(store, resume=True)

    def test_completed_study_stays_complete_through_resume(self, tmp_path):
        # A resume with nothing to rerun keeps the manifest complete at
        # every instant, so a crash before the driver stamps ``complete``
        # again cannot let the next resume cut what a later study
        # appended.
        store = ResultStore(tmp_path)
        run_checkpointed(store)
        store.extend(
            run_controlled_study(
                ControlledStudyConfig(n_users=1, seed=6, tasks=("word",))
            ).runs
        )
        appended = store.path.read_bytes()
        checkpoint = StudyCheckpoint(store)
        state = checkpoint.resume(SMALL, shard_ranges(SMALL.n_users, 2))
        assert len(state.salvaged) == 2
        assert not checkpoint.unfinished()  # the driver dies here
        run_checkpointed(store, resume=True)
        assert store.path.read_bytes() == appended

    def test_resume_after_quarantine_never_cuts_later_appends(
        self, tmp_path
    ):
        # Shard 1 is quarantined and the study completes; another study
        # then appends.  Rerunning shard 1 would cut those runs, so
        # resume refuses, naming the bytes, and leaves the store alone.
        store = ResultStore(tmp_path)
        partial = run_checkpointed(
            store,
            chaos=ShardFaultPlan(corrupt=0.5, seed=3),
            supervisor=fast_policy(max_attempts=1, quarantine=True),
        )
        assert partial.quarantined == (1,)
        study_end = store.size()
        store.extend(
            run_controlled_study(
                ControlledStudyConfig(n_users=1, seed=6, tasks=("word",))
            ).runs
        )
        appended = store.path.read_bytes()
        with pytest.raises(
            StudyError, match=f" {len(appended) - study_end} bytes "
        ):
            run_checkpointed(store, resume=True)
        assert store.path.read_bytes() == appended
        # Once those bytes are gone, the quarantined shard reruns.
        store.truncate(study_end)
        run_checkpointed(store, resume=True)
        assert store.path.read_bytes() == b"".join(
            serialized_records(run_controlled_study(SMALL))
        )


class TestGoldenResumeSoak:
    """Satellite: kill workers AND the driver mid-study under two fixed
    chaos seeds (the CI ``UUCS_CHAOS_SEED`` matrix), resume, and prove
    the canonical golden pin still matches."""

    @pytest.mark.parametrize("chaos_seed", [42, 20040601])
    def test_resume_under_kill_chaos_matches_golden_pin(
        self, tmp_path, chaos_seed
    ):
        pin = GOLDEN.read_text().split()[0]
        config = ControlledStudyConfig(seed=2004)
        plan = ShardFaultPlan(
            kill=0.5, kill_after_runs=3, sigint=1.0, seed=chaos_seed
        )
        policy = fast_policy(max_attempts=8)
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_sharded_study(
                config, shards=4, supervisor=policy,
                checkpoint=StudyCheckpoint(store), chaos=plan,
            )
        resumed = run_sharded_study(
            config, shards=4, supervisor=policy,
            checkpoint=StudyCheckpoint(store), resume=True,
        )
        assert study_digest(resumed) == pin
        assert hashlib.sha256(store.path.read_bytes()).hexdigest() == pin
