"""Fleet simulation: byte-reproducibility, aggregation, shard failures,
CLI, telemetry."""

import hashlib
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SchedulerError
from repro.scheduler import FleetConfig, Scoreboard, run_fleet, simulate_clients
from repro.scheduler import fleet
from repro.scheduler.fleet import _merge_aggregates, _scoreboard
from repro.telemetry import Telemetry, use_telemetry

CONFIG = FleetConfig(policy="cdf", clients=24, epochs=8, seed=11, budget=0.1)


def run_cli(*args):
    return main(list(args))


class TestFleetConfig:
    def test_seed_is_a_non_negative_int(self):
        with pytest.raises(SchedulerError, match="non-negative integer"):
            FleetConfig(seed=-1)
        config = FleetConfig(seed=np.int64(11))
        assert type(config.seed) is int
        assert json.loads(json.dumps(config.to_dict()))["seed"] == 11

    @pytest.mark.parametrize("epoch_seconds", [
        float("inf"), float("nan"), 1e308, 0.0, -1.0,
    ])
    def test_epoch_seconds_positive_with_a_finite_harvest(
        self, epoch_seconds
    ):
        # 1e308 s at the largest cap overflows the harvested milliseconds.
        with pytest.raises(SchedulerError, match="epoch_seconds"):
            FleetConfig(epoch_seconds=epoch_seconds)

    def test_huge_finite_epoch_still_harvests(self):
        epoch_seconds = 1e300
        board = run_fleet(FleetConfig(
            policy="static", clients=2, epochs=2, epoch_seconds=epoch_seconds,
        ))
        assert board.harvested_ms > 0


class TestSimulateClients:
    def test_bad_range_rejected(self):
        with pytest.raises(SchedulerError, match="bad client range"):
            simulate_clients(CONFIG, 5, 3)
        with pytest.raises(SchedulerError, match="bad client range"):
            simulate_clients(CONFIG, 0, CONFIG.clients + 1)

    @pytest.mark.parametrize("start, stop, derived", [
        (5, 5, []), (5, 6, [5]), (5, 24, [5]),
    ])
    def test_derives_each_stream_once_per_range(
        self, monkeypatch, start, stop, derived
    ):
        """The range's first client's streams are derived; later clients
        re-seat those Generators, and an empty range derives nothing."""
        calls = []
        derive = fleet.derive_rng

        def counting(seed, label, index):
            calls.append((label, index))
            return derive(seed, label, index)

        monkeypatch.setattr(fleet, "derive_rng", counting)
        simulate_clients(CONFIG, start, stop)
        assert calls == [
            (label, index)
            for index in derived
            for label in ("fleet-profile", "fleet-behavior", "fleet-tasks")
        ]

    def test_split_equals_whole(self):
        """Client aggregates are shard-layout independent by construction."""
        whole = simulate_clients(CONFIG, 0, CONFIG.clients)
        split = _merge_aggregates(
            [
                simulate_clients(CONFIG, 0, 7),
                simulate_clients(CONFIG, 7, 16),
                simulate_clients(CONFIG, 16, CONFIG.clients),
            ]
        )
        assert whole == split

    def test_counts_are_consistent(self):
        board = _scoreboard(
            CONFIG, simulate_clients(CONFIG, 0, CONFIG.clients), 0.0
        )
        assert board.decisions > 0
        for cell in board.cells:
            assert cell.decisions == cell.admitted + cell.denials
            assert cell.discomforts <= cell.admitted
            assert cell.harvested_ms >= 0


class TestGoldenScoreboards:
    """Scoreboard bytes pinned by sha256, so a change to the simulation
    loop or a policy's state that moves any decision shows here, not
    only in the benchmark's report comparison."""

    @pytest.mark.parametrize("policy, digest", [
        ("cdf",
         "107de5a34fc7def5c6bf1b8fb293232e43d210e4e0854bd730c29fc790c3a5f3"),
        ("aimd",
         "7609ae5db17812b6dfcd88eb43d1c77073f380fe4a4b745b729b2a673b64bc61"),
        ("static",
         "6e04efdcf13928194b0490e4ec60e5df3095036f6c1f7d48cba0341f0e0f5189"),
    ])
    def test_scoreboard_sha256(self, policy, digest):
        config = FleetConfig(
            policy=policy, clients=200, epochs=32, budget=0.1, seed=2004
        )
        text = run_fleet(config).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_mid_fleet_aggregates_sha256(self):
        """A client range that starts mid-fleet, run for 100 epochs with
        a longer cooldown than the default."""
        config = FleetConfig(
            policy="cdf", clients=200, epochs=100, budget=0.1, seed=2004,
            cooldown_epochs=3,
        )
        aggregates = simulate_clients(config, 137, 163)
        text = json.dumps(aggregates, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4df56beb2fc9ea8fdc97a1f1e6366af484f14a456a396114f2e9a3917cc5602c"
        )


class TestRunFleet:
    @pytest.mark.parametrize("policy", ["static", "aimd", "cdf"])
    def test_same_seed_same_json(self, policy):
        config = FleetConfig(policy=policy, clients=16, epochs=6, seed=3)
        assert run_fleet(config).to_json() == run_fleet(config).to_json()

    def test_sharded_byte_identical(self):
        baseline = run_fleet(CONFIG, shards=1).to_json()
        assert run_fleet(CONFIG, shards=3).to_json() == baseline
        assert run_fleet(CONFIG, shards=5, max_workers=2).to_json() == baseline

    def test_different_seed_differs(self):
        other = FleetConfig(
            policy="cdf", clients=24, epochs=8, seed=12, budget=0.1
        )
        assert run_fleet(CONFIG).to_json() != run_fleet(other).to_json()

    def test_elapsed_excluded_from_json(self):
        board = run_fleet(FleetConfig(policy="static", clients=4, epochs=2))
        assert board.elapsed_s > 0
        assert "elapsed" not in board.to_json()

    def test_bad_shards_rejected(self):
        with pytest.raises(SchedulerError, match="shards"):
            run_fleet(CONFIG, shards=0)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_workers_below_one_rejected(self, shards):
        for workers in (0, -1):
            with pytest.raises(SchedulerError, match="max_workers"):
                run_fleet(CONFIG, shards=shards, max_workers=workers)

    def test_scoreboard_json_round_trips(self):
        board = run_fleet(CONFIG)
        data = json.loads(board.to_json())
        assert data["config"] == CONFIG.to_dict()
        assert data["totals"]["decisions"] == board.decisions
        assert data["totals"]["harvested_ms"] == board.harvested_ms
        assert len(data["cells"]) == len(board.cells)


class TestShardFailures:
    """Sharded runs under the shard supervisor.  Forked workers inherit
    a monkeypatched ``fleet.simulate_clients``, which is how these tests
    make a worker die or stall."""

    def _patch(self, monkeypatch, body):
        real = fleet.simulate_clients

        def patched(config, start, stop):
            body(start)
            return real(config, start, stop)

        monkeypatch.setattr(fleet, "simulate_clients", patched)

    def test_killed_shard_is_retried_to_identical_json(
        self, tmp_path, monkeypatch
    ):
        baseline = run_fleet(CONFIG).to_json()
        marker = tmp_path / "killed-once"

        def die_once(start):
            # The middle of three shards dies on its first attempt only.
            if start == 8 and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)

        self._patch(monkeypatch, die_once)
        assert run_fleet(CONFIG, shards=3).to_json() == baseline
        assert marker.exists()

    def test_shard_that_always_dies_raises(self, monkeypatch, capsys):
        def always_die(start):
            if start > 0:
                os.kill(os.getpid(), signal.SIGKILL)

        self._patch(monkeypatch, always_die)
        with pytest.raises(SchedulerError, match="after 3 attempts"):
            run_fleet(CONFIG, shards=3)
        assert run_cli(
            "harvest", "--clients", "24", "--epochs", "2", "--shards", "3",
        ) == 12
        assert "after 3 attempts" in capsys.readouterr().err

    def test_interrupt_kills_live_workers_at_once(self, monkeypatch):
        def stall_later_shards(start):
            if start > 0:
                time.sleep(60)

        def interrupt(done, total):
            raise KeyboardInterrupt

        self._patch(monkeypatch, stall_later_shards)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_fleet(CONFIG, shards=2, on_progress=interrupt)
        assert time.monotonic() - started < 3.0
        leaked = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("uucs-shard")
        ]
        assert not leaked, f"worker processes leaked: {leaked}"


class TestTelemetry:
    def test_disabled_telemetry_records_nothing(self):
        hub = Telemetry.disabled()
        with use_telemetry(hub):
            run_fleet(FleetConfig(policy="static", clients=4, epochs=2))
        assert hub.metrics.snapshot() == {}

    def test_enabled_telemetry_records_scoreboard(self):
        hub = Telemetry.in_memory()
        with use_telemetry(hub):
            board = run_fleet(CONFIG)
        snapshot = hub.metrics.snapshot()
        assert "uucs_sched_harvested_resource_seconds_total" in snapshot
        assert "uucs_sched_admission_denials_total" in snapshot
        assert "uucs_sched_ceiling" in snapshot
        harvested = sum(
            snapshot["uucs_sched_harvested_resource_seconds_total"][
                "value"
            ].values()
        )
        assert harvested == pytest.approx(board.harvested_ms / 1000.0, abs=0.01)
        recorded = hub.events.sink.events
        decisions = [e for e in recorded if e.name == "scheduler.decision"]
        assert len(decisions) == len(board.cells)
        assert any(
            e.name == "span" and e.fields.get("span") == "scheduler.fleet"
            for e in recorded
        )

    def test_telemetry_never_changes_the_scoreboard(self):
        silent = run_fleet(CONFIG).to_json()
        with use_telemetry(Telemetry()):
            loud = run_fleet(CONFIG).to_json()
        assert loud == silent


class TestHarvestCLI:
    def test_smoke_writes_scoreboard(self, tmp_path, capsys):
        out = tmp_path / "board.json"
        assert run_cli(
            "harvest", "--policy", "cdf", "--clients", "12", "--epochs", "4",
            "--budget", "0.1", "--seed", "7", "--out", str(out),
        ) == 0
        printed = capsys.readouterr().out
        assert "harvest[cdf]" in printed
        assert "resource-hours" in printed
        data = json.loads(out.read_text())
        assert data["config"]["policy"] == "cdf"
        assert data["config"]["seed"] == 7

    def test_shard_counts_byte_identical(self, tmp_path, capsys):
        boards = []
        for shards in ("1", "3"):
            out = tmp_path / f"board-{shards}.json"
            assert run_cli(
                "harvest", "--policy", "cdf", "--clients", "18",
                "--epochs", "4", "--seed", "5", "--shards", shards,
                "--out", str(out),
            ) == 0
            boards.append(out.read_bytes())
        capsys.readouterr()
        assert boards[0] == boards[1]

    def test_bad_budget_exits_scheduler_code(self, capsys):
        assert run_cli(
            "harvest", "--clients", "2", "--epochs", "1", "--budget", "7",
        ) == 12
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["0", "abc"])
    def test_bad_shards_exits_scheduler_code(self, shards, capsys):
        assert run_cli(
            "harvest", "--clients", "2", "--epochs", "1", "--shards", shards,
        ) == 12
        assert "shards" in capsys.readouterr().err

    def test_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.scheduler.run_fleet", interrupted)
        try:
            code = run_cli("harvest", "--clients", "2", "--epochs", "1")
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped uucs harvest")
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_telemetry_log_written(self, tmp_path, capsys):
        log = tmp_path / "telemetry.jsonl"
        assert run_cli(
            "harvest", "--policy", "static", "--clients", "4",
            "--epochs", "2", "--telemetry", str(log),
        ) == 0
        capsys.readouterr()
        from repro.telemetry import read_events

        names = {event.name for event in read_events(log)}
        assert "scheduler.decision" in names
