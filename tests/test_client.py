"""Tests for the UUCS client (stores, registration, hot sync, modes)."""

import json
import math

import pytest

from repro.apps import get_task
from repro.client import ClientConfig, PoissonArrivals, UUCSClient
from repro.core.resources import Resource
from repro.core.run import TraceView
from repro.errors import ProtocolError, StoreError, ValidationError
from repro.machine import SimulatedMachine
from repro.server import InProcessTransport, UUCSServer
from repro.server.protocol import encode_message
from repro.study import ControlledStudyConfig, run_controlled_study
from repro.study.testcases import task_testcases
from repro.telemetry import Telemetry
from repro.users import make_user, sample_population


class _Recording:
    """Passes requests through, keeping each one sent."""

    def __init__(self, inner):
        self._inner = inner
        self.sent = []

    def request(self, message):
        self.sent.append(message)
        return self._inner.request(message)


@pytest.fixture()
def server(tmp_path):
    server = UUCSServer(tmp_path / "server", seed=1, sync_batch=4)
    server.add_testcases(task_testcases("ie"))
    return server


@pytest.fixture()
def client(tmp_path, server):
    return UUCSClient(
        ClientConfig(root=tmp_path / "client", user_id="u1",
                     mean_execution_interval=200.0, sync_want=4),
        InProcessTransport(server),
        seed=5,
    )


@pytest.fixture()
def feedback():
    return make_user(sample_population(1, seed=3)[0], seed=9)


class TestPoissonArrivals:
    def test_mean_interval(self):
        arrivals = PoissonArrivals(10.0, seed=1)
        delays = [arrivals.next_delay() for _ in range(3000)]
        assert sum(delays) / len(delays) == pytest.approx(10.0, rel=0.1)

    def test_arrivals_until_sorted_within_horizon(self):
        arrivals = PoissonArrivals(5.0, seed=2)
        times = arrivals.arrivals_until(100.0)
        assert times == sorted(times)
        assert all(0 < t < 100.0 for t in times)

    def test_choose_uniform(self):
        arrivals = PoissonArrivals(1.0, seed=3)
        picks = {arrivals.choose(["a", "b", "c"]) for _ in range(100)}
        assert picks == {"a", "b", "c"}

    def test_validation(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(0.0)
        arrivals = PoissonArrivals(1.0)
        with pytest.raises(ValidationError):
            arrivals.choose([])
        with pytest.raises(ValidationError):
            arrivals.arrivals_until(-1.0)


class TestRegistration:
    def test_register_persists_identity(self, tmp_path, server):
        config = ClientConfig(root=tmp_path / "c", user_id="u")
        first = UUCSClient(config, InProcessTransport(server))
        client_id = first.register({"os": "xp"})
        # A new client instance on the same directory keeps the GUID.
        second = UUCSClient(config, InProcessTransport(server))
        assert second.client_id == client_id
        assert second.registered

    def test_register_idempotent(self, client):
        a = client.register({})
        b = client.register({})
        assert a == b

    def test_offline_client_cannot_register(self, tmp_path):
        offline = UUCSClient(ClientConfig(root=tmp_path / "c", user_id="u"))
        with pytest.raises(ProtocolError):
            offline.register({})

    def test_privacy_snapshot_withheld(self, tmp_path, server):
        config = ClientConfig(root=tmp_path / "c", user_id="u",
                              share_snapshot=False)
        client = UUCSClient(config, InProcessTransport(server))
        client_id = client.register({"secret": "data"})
        record = server.registry.lookup(client_id)
        assert "secret" not in record.snapshot


class TestHotSync:
    def test_downloads_grow(self, client):
        client.register({})
        first, _ = client.hot_sync()
        second, _ = client.hot_sync()
        assert first == 4 and second == 4
        assert len(client.testcases) == 8

    def test_sync_before_register_rejected(self, client):
        with pytest.raises(ProtocolError):
            client.hot_sync()

    def test_results_uploaded_and_drained(self, client, feedback):
        client.register({})
        client.hot_sync()
        client.hot_sync()
        machine = SimulatedMachine()
        model = machine.interactivity_model(get_task("ie"))
        client.run_script(["ie-cpu-ramp"], feedback, model, task="ie")
        assert len(client.results) == 1
        _, uploaded = client.hot_sync()
        assert uploaded == 1
        assert len(client.results) == 0

    @pytest.mark.parametrize("traced", [False, True])
    def test_request_bytes_match_json_dumps(
        self, tmp_path, server, feedback, traced
    ):
        """The spliced store lines give the bytes of encoding the parsed
        records, and the server stores exactly the client's lines."""
        study = run_controlled_study(
            ControlledStudyConfig(n_users=1, seed=7, engine="batch")
        ).runs
        shared = next(
            r for r in study if isinstance(r.load_trace, TraceView) and r.exhausted
        )
        discomfort = next(r for r in study if r.feedback is not None)
        recording = _Recording(InProcessTransport(server))
        client = UUCSClient(
            ClientConfig(root=tmp_path / "client", user_id="u1"),
            recording,
            seed=5,
            telemetry=Telemetry.in_memory() if traced else Telemetry.disabled(),
        )
        client.register({})
        client.hot_sync()
        (own,) = client.run_script(["ie-blank-1"], feedback, task="ie")
        assert not isinstance(own.load_trace, TraceView) and own.load_trace
        client.results.extend([shared, discomfort])
        queued = client.results.path.read_bytes()
        records = [run.to_dict() for run in client.results]
        client.hot_sync()
        message = recording.sent[-1]
        assert ("trace" in message.payload) == traced
        want = json.dumps(
            {"type": "sync", **message.payload, "results": records},
            sort_keys=True,
        )
        assert encode_message(message) == (want + "\n").encode()
        assert server.results.path.read_bytes() == queued

    def test_privacy_load_traces_withheld(self, tmp_path, server, feedback):
        config = ClientConfig(root=tmp_path / "c", user_id="u",
                              share_load_traces=False)
        recording = _Recording(InProcessTransport(server))
        client = UUCSClient(config, recording, seed=1)
        client.register({})
        client.hot_sync()
        client.run_script(["ie-blank-1"], feedback, task="ie")
        records = [run.to_dict() for run in client.results]
        assert records and all(record["load_trace"] for record in records)
        for record in records:
            record["load_trace"] = {}
        client.hot_sync()
        uploaded = list(server.results)[-1]
        assert uploaded.load_trace == {}
        message = recording.sent[-1]
        want = json.dumps(
            {"type": "sync", **message.payload, "results": records},
            sort_keys=True,
        )
        assert encode_message(message) == (want + "\n").encode()


class TestExecution:
    def test_script_mode_order(self, client, feedback):
        client.register({})
        client.hot_sync()
        client.hot_sync()
        script = ["ie-blank-1", "ie-blank-2"]
        runs = client.run_script(script, feedback, task="ie")
        assert [r.testcase_id for r in runs] == script

    def test_script_missing_testcase(self, client, feedback):
        client.register({})
        with pytest.raises(StoreError):
            client.run_script(["nope"], feedback)

    def test_random_mode_respects_duration(self, client, feedback):
        client.register({})
        client.hot_sync()
        client.hot_sync()
        start = client.clock
        runs = client.run_random(3000.0, feedback, task="ie")
        assert client.clock - start == pytest.approx(3000.0, abs=1e-6)
        for run in runs:
            assert run.context.task == "ie"
            assert run.context.client_id == client.client_id

    def test_random_mode_draws_are_pinned(self, client, feedback):
        """Run ids, testcases and end offsets of a seeded run, recorded
        before the loop drew through PoissonArrivals: any change to the
        arrival stream shows up here."""
        client.register({})
        client.hot_sync()
        client.hot_sync()
        runs = client.run_random(3000.0, feedback, task="ie")
        assert [(r.run_id, r.testcase_id, r.end_offset) for r in runs] == [
            ("2535d5cec0ad06783f60ec83760457a1", "ie-blank-1", 120.0),
            ("8f02264785762462c423399232b39168", "ie-cpu-ramp", 69.5),
            ("a5627b0c90b818268101caff5536e430", "ie-blank-1", 120.0),
            ("bdb5404808b9586fbf8a6343304464f9", "ie-disk-step", 41.5),
            ("78861fd80e7fa01dd0a174645397c6a0", "ie-memory-ramp", 70.0),
            ("348bb5a93fc4900f8a8987f50f8c3b8e", "ie-cpu-step", 43.0),
            ("bdd130e147d9d82f7c5b70102d58b85f", "ie-cpu-ramp", 65.0),
            ("be4b4f57ff8b313a8509618b87183ce5", "ie-disk-step", 120.0),
            ("5c8bbd04b85d34c7f36d1eb5cdc25ec5", "ie-cpu-ramp", 82.5),
            ("0fadcc557469c96f94eb69eebb600834", "ie-blank-1", 120.0),
            ("c02064cee95b3927060103514ace681e", "ie-cpu-ramp", 120.0),
        ]

    def test_random_mode_needs_testcases(self, client, feedback):
        client.register({})
        with pytest.raises(StoreError):
            client.run_random(100.0, feedback)

    def test_clock_advances_with_runs(self, client, feedback):
        client.register({})
        client.hot_sync()
        client.hot_sync()
        before = client.clock
        client.run_script(["ie-blank-1"], feedback, task="ie")
        assert client.clock > before

    def test_clock_cannot_rewind(self, client):
        with pytest.raises(ValidationError):
            client.advance_clock(-1.0)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            ClientConfig(root=tmp_path, sync_want=0)
        with pytest.raises(ValidationError):
            ClientConfig(root=tmp_path, mean_execution_interval=0.0)
