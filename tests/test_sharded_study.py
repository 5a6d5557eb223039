"""Tests for the sharded multiprocess study engine.

The contract (ROADMAP: "the bit-identical engine-equivalence tests
define the contract"): any shard count yields byte-identical serialized
run records to the single-process path.  Partitioning, merge, process
pools (fork and spawn), telemetry, and the ResultStore wiring are all
exercised; hypothesis drives random small configs through 1-vs-k shard
equivalence and merge order-invariance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StudyError
from repro.stores import ResultStore
from repro.study import (
    ControlledStudyConfig,
    merge_shard_batches,
    resolve_shards,
    run_controlled_study,
    run_sharded_study,
    run_user_range,
    shard_ranges,
    study_fixtures,
)
from repro.study.sharded import _run_shard
from shardcheck import assert_shard_equivalence, serialized_records, study_digest


class TestShardRanges:
    def test_balanced_contiguous_cover(self):
        shards = shard_ranges(33, 4)
        assert [s.n_users for s in shards] == [9, 8, 8, 8]
        assert shards[0].start == 0
        assert shards[-1].stop == 33
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start

    def test_more_shards_than_users_drops_empties(self):
        shards = shard_ranges(3, 8)
        assert len(shards) == 3
        assert all(s.n_users == 1 for s in shards)

    def test_single_shard(self):
        (only,) = shard_ranges(7, 1)
        assert (only.start, only.stop) == (0, 7)

    def test_invalid_rejected(self):
        with pytest.raises(StudyError):
            shard_ranges(0, 2)
        with pytest.raises(StudyError):
            shard_ranges(5, 0)

    @given(
        n_users=st.integers(min_value=1, max_value=200),
        n_shards=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_partition_invariants(self, n_users, n_shards):
        shards = shard_ranges(n_users, n_shards)
        covered = [i for s in shards for i in range(s.start, s.stop)]
        assert covered == list(range(n_users))
        sizes = [s.n_users for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert [s.index for s in shards] == list(range(len(shards)))


class TestResolveShards:
    def test_auto_sizes_pool_from_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert resolve_shards("auto", 33) == 4

    def test_auto_clamps_to_user_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert resolve_shards("auto", 33) == 33
        assert resolve_shards("AUTO", 1) == 1  # case-insensitive

    def test_auto_survives_unknown_cpu_count(self, monkeypatch):
        # os.cpu_count() may return None on exotic platforms.
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_shards("auto", 33) == 1

    def test_numeric_specs_pass_through(self):
        assert resolve_shards(3, 33) == 3
        assert resolve_shards("8", 33) == 8
        # A count above the user total is legal; shard_ranges drops empties.
        assert resolve_shards(100, 33) == 100

    def test_invalid_specs_rejected(self):
        for bad in ("zero", "", "2.5", 0, -1, "0"):
            with pytest.raises(StudyError):
                resolve_shards(bad, 33)
        with pytest.raises(StudyError):
            resolve_shards("auto", 0)


class TestUserRange:
    def test_range_concatenation_equals_full_run(self):
        config = ControlledStudyConfig(n_users=4, seed=11, tasks=("word",))
        full = run_user_range(config, 0, 4)
        pieces = run_user_range(config, 0, 1) + run_user_range(config, 1, 4)
        assert pieces == full

    def test_out_of_range_rejected(self):
        config = ControlledStudyConfig(n_users=2, seed=1)
        with pytest.raises(StudyError):
            run_user_range(config, 0, 3)
        with pytest.raises(StudyError):
            run_user_range(config, -1, 2)
        with pytest.raises(StudyError):
            run_user_range(config, 2, 1)


class TestShardedEquivalence:
    def test_pool_equivalence_small_config(self):
        config = ControlledStudyConfig(n_users=5, seed=77, tasks=("word", "quake"))
        assert_shard_equivalence(config, shard_counts=(2, 4))

    def test_spawn_context_equivalence(self):
        # The spawn-safety half of the contract: workers rebuilt from
        # pickled arguments in a fresh interpreter still draw the exact
        # bytes the sequential engine would.
        config = ControlledStudyConfig(n_users=2, seed=5, tasks=("word",))
        assert_shard_equivalence(config, shard_counts=(2,), mp_context="spawn")

    def test_shards_beyond_users(self):
        config = ControlledStudyConfig(n_users=2, seed=3, tasks=("word",))
        a = run_controlled_study(config)
        b = run_sharded_study(config, shards=16)
        assert serialized_records(a) == serialized_records(b)

    def test_max_workers_cap(self):
        config = ControlledStudyConfig(n_users=4, seed=13, tasks=("word",))
        a = run_controlled_study(config)
        b = run_sharded_study(config, shards=4, max_workers=2)
        assert serialized_records(a) == serialized_records(b)

    def test_profiles_and_config_preserved(self):
        config = ControlledStudyConfig(n_users=3, seed=21, tasks=("word",))
        a = run_controlled_study(config)
        b = run_sharded_study(config, shards=3)
        assert a.profiles == b.profiles
        assert b.config == config

    def test_invalid_shards_rejected(self):
        with pytest.raises(StudyError):
            run_sharded_study(ControlledStudyConfig(n_users=2), shards=0)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_users=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    engine=st.sampled_from(["analytic", "loop"]),
    k=st.integers(min_value=2, max_value=4),
    tasks=st.sampled_from([("word",), ("ie", "quake"), ("powerpoint",)]),
)
def test_property_one_vs_k_shards_identical_store(
    tmp_path_factory, n_users, seed, engine, k, tasks
):
    """Random small configs: the ResultStore written from a k-shard run
    holds byte-identical contents to the 1-shard store."""
    config = ControlledStudyConfig(
        n_users=n_users, seed=seed, engine=engine, tasks=tasks
    )
    single = run_controlled_study(config)
    # In-process shard execution (the same function pool workers run)
    # keeps hypothesis fast while still covering partition + merge.
    shards = shard_ranges(config.n_users, k)
    batches = [(s, _run_shard(config, s.start, s.stop)) for s in shards]
    merged = merge_shard_batches(batches)

    root = tmp_path_factory.mktemp("shardstore")
    store_a = ResultStore(root / "single")
    store_a.extend(single.runs)
    store_b = ResultStore(root / "sharded")
    store_b.extend_batches([batch for _, batch in sorted(
        batches, key=lambda item: item[0].start)])
    assert store_a.path.read_bytes() == store_b.path.read_bytes()
    assert [r.to_json() for r in merged] == [r.to_json() for r in single.runs]


@settings(max_examples=10, deadline=None)
@given(
    n_users=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=5),
    shuffle_seed=st.integers(min_value=0, max_value=999),
)
def test_property_merge_is_order_invariant(n_users, seed, k, shuffle_seed):
    """Shard completion order must not leak into the merged sequence."""
    config = ControlledStudyConfig(n_users=n_users, seed=seed, tasks=("word",))
    shards = shard_ranges(config.n_users, k)
    fixtures = study_fixtures(config)
    batches = [
        (s, run_user_range(config, s.start, s.stop, fixtures)) for s in shards
    ]
    reference = merge_shard_batches(batches)
    shuffled = list(batches)
    np.random.default_rng(shuffle_seed).shuffle(shuffled)
    assert merge_shard_batches(shuffled) == reference


class TestMergeValidation:
    def test_gap_rejected(self):
        config = ControlledStudyConfig(n_users=4, seed=2, tasks=("word",))
        shards = shard_ranges(4, 4)
        batches = [
            (s, run_user_range(config, s.start, s.stop))
            for s in shards
            if s.index != 1
        ]
        with pytest.raises(StudyError, match="discontiguous"):
            merge_shard_batches(batches)

    def test_empty_rejected(self):
        with pytest.raises(StudyError):
            merge_shard_batches([])


class TestShardedTelemetry:
    def test_shard_metrics_recorded(self):
        from repro.telemetry import Telemetry, use_telemetry

        config = ControlledStudyConfig(n_users=3, seed=8, tasks=("word",))
        with use_telemetry(Telemetry.in_memory()) as telemetry:
            run_sharded_study(config, shards=3)
            metrics = telemetry.metrics
            histogram = metrics.get("uucs_study_shard_seconds")
            # One observation per completed shard.
            assert sum(histogram.count(shard=str(i)) for i in range(3)) == 3
            runs_total = metrics.get("uucs_study_shard_runs_total")
            assert sum(
                runs_total.value(shard=str(i)) for i in range(3)
            ) == 3 * 8
            names = [e.name for e in telemetry.events.sink.events]
            assert "study.shard" in names
            assert "study.complete" in names

    def test_disabled_telemetry_stays_silent(self):
        # The default hub is disabled; neither the sequential nor the
        # sharded driver may touch events, metrics, or the span clock.
        from repro.telemetry import EventLog, MemorySink, Telemetry, set_telemetry

        calls = {"clock": 0}

        def loud_clock():
            calls["clock"] += 1
            return 0.0

        silent = Telemetry(
            events=EventLog(MemorySink()),
            enabled=False,
            span_clock=loud_clock,
        )
        config = ControlledStudyConfig(n_users=2, seed=4, tasks=("word",))
        previous = set_telemetry(silent)
        try:
            run_controlled_study(config)
            run_sharded_study(config, shards=2)
        finally:
            set_telemetry(previous)
        assert calls["clock"] == 0, "span clock consulted while disabled"
        assert len(silent.metrics) == 0, "metrics created while disabled"
        assert list(silent.events.sink) == [], "events emitted while disabled"

    def test_no_timer_reads_in_hot_loop_when_disabled(self, monkeypatch):
        # Per-session wall-time belongs to telemetry; with the hub
        # disabled the engines must not read the clock at all (a
        # time.time()/perf_counter() delta per run is pure overhead).
        import time as time_mod

        real = time_mod.perf_counter
        calls = {"n": 0}

        def counting_perf_counter():
            calls["n"] += 1
            return real()

        monkeypatch.setattr(time_mod, "perf_counter", counting_perf_counter)
        config = ControlledStudyConfig(n_users=2, seed=6, tasks=("word",))
        for engine in ("analytic", "loop"):
            run_controlled_study(
                ControlledStudyConfig(
                    n_users=config.n_users,
                    seed=config.seed,
                    tasks=config.tasks,
                    engine=engine,
                )
            )
        assert calls["n"] == 0, (
            f"{calls['n']} timer reads in the hot loop with telemetry disabled"
        )


class TestStudyProgress:
    def test_callback_sequence_and_eta(self):
        from repro.study import StudyProgress

        config = ControlledStudyConfig(n_users=4, seed=3, tasks=("word",))
        seen: list[StudyProgress] = []
        run_sharded_study(config, shards=4, on_progress=seen.append)
        assert len(seen) == 4  # one per completed shard
        assert [p.shards_done for p in seen] == [1, 2, 3, 4]
        assert all(p.shards_total == 4 and p.users == 4 for p in seen)
        ratios = [p.progress_ratio for p in seen]
        assert ratios == sorted(ratios) and ratios[-1] == 1.0
        final = seen[-1]
        assert final.users_done == 4
        assert final.runs == 4 * 8
        assert final.elapsed_s > 0
        assert final.eta_s == pytest.approx(0.0)
        # Mid-study ETA extrapolates from observed throughput.
        assert seen[0].eta_s is not None and seen[0].eta_s >= 0

    def test_callback_without_telemetry_emits_no_metrics(self):
        from repro.telemetry import get_telemetry

        config = ControlledStudyConfig(n_users=2, seed=4, tasks=("word",))
        seen = []
        run_sharded_study(config, shards=2, on_progress=seen.append)
        assert len(seen) == 2
        assert len(get_telemetry().metrics) == 0  # default hub untouched

    def test_progress_gauges_recorded(self):
        from repro.telemetry import Telemetry, use_telemetry

        config = ControlledStudyConfig(n_users=3, seed=8, tasks=("word",))
        with use_telemetry(Telemetry.in_memory()) as telemetry:
            run_sharded_study(config, shards=3)
            metrics = telemetry.metrics
            assert metrics.get("uucs_study_progress_ratio").value() == 1.0
            assert metrics.get("uucs_study_users").value() == 3
            assert metrics.get("uucs_study_users_done").value() == 3
            shard_gauge = metrics.get("uucs_study_shard_progress_ratio")
            assert all(
                shard_gauge.value(shard=str(i)) == 1.0 for i in range(3)
            )
            assert metrics.get("uucs_study_runs_per_second").value() > 0

    def test_single_shard_skips_progress(self):
        seen = []
        config = ControlledStudyConfig(n_users=2, seed=5, tasks=("word",))
        run_sharded_study(config, shards=1, on_progress=seen.append)
        assert seen == []  # the 1-shard fast path is the sequential driver

    def test_progress_dataclass_derivations(self):
        from repro.study import StudyProgress

        half = StudyProgress(
            shards_total=4, shards_done=2, users=8, users_done=4,
            runs=32, elapsed_s=2.0,
        )
        assert half.progress_ratio == 0.5
        assert half.runs_per_s == pytest.approx(16.0)
        assert half.eta_s == pytest.approx(2.0)  # same pace for the rest
        empty = StudyProgress(
            shards_total=2, shards_done=0, users=0, users_done=0,
            runs=0, elapsed_s=0.0,
        )
        assert empty.progress_ratio == 1.0
        assert empty.runs_per_s is None and empty.eta_s is None
