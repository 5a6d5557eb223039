"""Tests for idempotent hot sync: sync_seq bookkeeping, server-side
run-id dedupe, protocol version negotiation, and restart persistence."""

import json
import math

import pytest

from repro.client import ClientConfig, UUCSClient
from repro.core.exercise import constant
from repro.core.feedback import RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun
from repro.core.testcase import Testcase
from repro.errors import TransportError
from repro.server import (
    PROTOCOL_VERSION,
    ClientRegistry,
    InProcessTransport,
    Message,
    UUCSServer,
    decode_message,
)
from repro.stores import ResultStore
from repro.telemetry import Telemetry
from repro.users import make_user, sample_population


def tc(tcid):
    return Testcase.single(tcid, constant(Resource.CPU, 1.0, 10.0))


def run_record(run_id):
    return TestcaseRun(
        run_id=run_id,
        testcase_id="a",
        context=RunContext(user_id="u"),
        outcome=RunOutcome.EXHAUSTED,
        end_offset=10.0,
        testcase_duration=10.0,
        shapes={Resource.CPU: "constant"},
    )


def sync_payload(client_id, run_ids, sync_seq=None):
    payload = {
        "client_id": client_id,
        "have": [],
        "results": [run_record(rid).to_dict() for rid in run_ids],
        "want": 0,
    }
    if sync_seq is not None:
        payload["protocol"] = PROTOCOL_VERSION
        payload["sync_seq"] = sync_seq
    return Message("sync", payload)


@pytest.fixture()
def server(tmp_path):
    server = UUCSServer(tmp_path / "server", seed=1)
    server.add_testcases([tc("a"), tc("b")])
    return server


def register(server):
    return server.handle(
        Message("register", {"snapshot": {}})
    ).payload["client_id"]


class TestResultStoreDedupe:
    def test_extend_dedupes_by_run_id(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.extend([run_record("r1"), run_record("r2")], dedupe=True) == 2
        assert store.extend([run_record("r1"), run_record("r3")], dedupe=True) == 1
        assert sorted(store.run_ids()) == ["r1", "r2", "r3"]
        assert len(store) == 3  # nothing written twice

    def test_contains_uses_index(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("r1"))
        assert "r1" in store
        assert "ghost" not in store

    def test_index_survives_reopen(self, tmp_path):
        ResultStore(tmp_path).append(run_record("r1"))
        reopened = ResultStore(tmp_path)
        assert reopened.extend([run_record("r1")], dedupe=True) == 0

    def test_drain_resets_index(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("r1"))
        store.drain()
        assert "r1" not in store
        # Post-drain the same run_id is accepted again (client-side store
        # semantics; the server never drains).
        assert store.extend([run_record("r1")], dedupe=True) == 1

    def test_extend_without_dedupe_appends_blindly(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.extend([run_record("r1"), run_record("r1")]) == 2
        assert len(store) == 2


class TestServerIdempotentSync:
    def test_ack_echoes_sync_seq(self, server):
        client_id = register(server)
        response = server.handle(sync_payload(client_id, ["r1"], sync_seq=1))
        assert response.type == "sync_ok"
        assert response.payload["sync_seq"] == 1
        assert response.payload["accepted"] == 1
        assert response.payload["duplicates"] == 0
        assert response.payload["protocol"] == PROTOCOL_VERSION

    def test_replayed_batch_accepts_zero(self, server):
        client_id = register(server)
        server.handle(sync_payload(client_id, ["r1", "r2"], sync_seq=1))
        # The ack was lost; the client resends the identical batch.
        replay = server.handle(sync_payload(client_id, ["r1", "r2"], sync_seq=1))
        assert replay.type == "sync_ok"
        assert replay.payload["accepted"] == 0
        assert replay.payload["duplicates"] == 2
        assert replay.payload["sync_seq"] == 1  # still acked
        assert sorted(server.results.run_ids()) == ["r1", "r2"]

    def test_stale_seq_with_new_runs_still_accepted(self, server):
        """Dedupe is per run-id, not per batch: a replayed seq carrying
        runs recorded after the lost ack must not drop them."""
        client_id = register(server)
        server.handle(sync_payload(client_id, ["r1"], sync_seq=1))
        response = server.handle(
            sync_payload(client_id, ["r1", "r2-new"], sync_seq=1)
        )
        assert response.payload["accepted"] == 1
        assert response.payload["duplicates"] == 1
        assert sorted(server.results.run_ids()) == ["r1", "r2-new"]

    def test_v1_client_without_sync_seq_still_works(self, server):
        client_id = register(server)
        response = server.handle(sync_payload(client_id, ["r1"]))
        assert response.type == "sync_ok"
        assert response.payload["accepted"] == 1
        assert "sync_seq" not in response.payload
        # Even v1 clients are protected by run-id dedupe on blind resend.
        replay = server.handle(sync_payload(client_id, ["r1"]))
        assert replay.payload["accepted"] == 0
        assert len(server.results) == 1

    @pytest.mark.parametrize("bad", [0, -3, True, "7", 1.5])
    def test_rejects_bad_sync_seq(self, server, bad):
        client_id = register(server)
        message = sync_payload(client_id, [], sync_seq=None)
        message.payload["sync_seq"] = bad
        response = server.handle(message)
        assert response.type == "error"
        assert "sync_seq" in response.payload["reason"]

    def test_duplicate_metrics_and_event(self, tmp_path):
        telemetry = Telemetry.in_memory()
        server = UUCSServer(tmp_path / "srv", seed=1, telemetry=telemetry)
        server.add_testcases([tc("a")])
        client_id = register(server)
        server.handle(sync_payload(client_id, ["r1"], sync_seq=1))
        server.handle(sync_payload(client_id, ["r1"], sync_seq=1))
        counter = telemetry.metrics.counter("uucs_server_duplicate_results_total")
        assert counter.value() == 1
        replays = telemetry.metrics.counter("uucs_server_replayed_syncs_total")
        assert replays.value() == 1
        names = [e.name for e in telemetry.events.sink.events]
        assert "server.sync_replay" in names


class TestStoredLines:
    """A sync stores each uploaded record as its canonical line."""

    def test_canonical_and_other_uploads(self, server):
        client_id = register(server)
        ramp = tuple(i / 7 for i in range(40))
        canonical = TestcaseRun(
            run_id="c1",
            testcase_id="a",
            context=RunContext(user_id="u", task="word", started_at=3.25),
            outcome=RunOutcome.EXHAUSTED,
            end_offset=10.0,
            testcase_duration=10.0,
            shapes={Resource.CPU: "step"},
            levels_at_end={Resource.CPU: 1.5},
            last_values={Resource.CPU: (1.5,) * 5},
            load_trace={
                "contention_cpu": (0.0,) * 20 + (1.5,) * 20,
                "jitter": (0.0,) * 10 + (-0.0,) * 10 + (math.inf,) * 20,
                "slowdown": ramp,
            },
        ).to_json()
        # Ints in a trace, numbers repr would print otherwise, a run of
        # -0.0 after 0.0, NaN, keys out of order and extra spaces.
        other = (
            '{ "testcase_id" : "a",  "run_id":"n1", "outcome": "exhausted",'
            ' "end_offset": 10, "testcase_duration": 10.0,'
            ' "context": {"user_id": "u", "started_at": 1E-5},'
            ' "shapes": {"cpu": "step"}, "levels_at_end": {"cpu": 1.50},'
            ' "last_values": {"cpu": [1, 1.50, 1.5]}, "feedback": null,'
            ' "load_trace": {"slowdown": [1, 1, 1, 1.50, 1.5, 1.5, 1E-5,'
            ' 1e-5, 1e-5],  "jitter": [0.0, 0.0, 0.0, -0.0, -0.0, -0.0,'
            ' NaN, NaN, NaN], "a": [2, 2, 2.0, 2.0]}, "load_trace_rate": 1 }'
        )
        stored = []
        for seq, text in enumerate((canonical, other), 1):
            request = decode_message(
                '{"type": "sync", "client_id": "%s", "have": [], "want": 0,'
                ' "protocol": %d, "sync_seq": %d, "results": [%s]}'
                % (client_id, PROTOCOL_VERSION, seq, text)
            )
            (record,) = request.payload["results"]
            stored.append(json.dumps(
                TestcaseRun.from_dict(record).to_dict(), sort_keys=True
            ))
            assert server.handle(request).payload["accepted"] == 1
        assert stored[0] == canonical and stored[1] != other
        assert server.results.path.read_bytes() == "".join(
            line + "\n" for line in stored
        ).encode()


class TestAckPersistence:
    def test_registry_acks_survive_restart(self, tmp_path):
        first = ClientRegistry(tmp_path)
        guid = first.register({}).client_id
        first.record_sync_ack(guid, 3, 5)
        second = ClientRegistry(tmp_path)
        assert second.last_acked(guid) == (3, 5)
        assert second.last_acked("stranger") == (0, 0)

    def test_non_monotonic_acks_ignored(self, tmp_path):
        registry = ClientRegistry(tmp_path)
        guid = registry.register({}).client_id
        registry.record_sync_ack(guid, 4, 2)
        registry.record_sync_ack(guid, 3, 9)  # late/replayed: ignored
        assert registry.last_acked(guid) == (4, 2)

    def test_torn_ack_line_skipped(self, tmp_path):
        registry = ClientRegistry(tmp_path)
        guid = registry.register({}).client_id
        registry.record_sync_ack(guid, 1, 1)
        with (tmp_path / "sync_acks.jsonl").open("a") as fh:
            fh.write('{"client_id": "' + guid + '", "sync')  # crashed writer
        reloaded = ClientRegistry(tmp_path)
        assert reloaded.last_acked(guid) == (1, 1)

    def test_ack_after_torn_line_survives_restart(self, tmp_path):
        # The next append cuts the torn line instead of joining it.
        registry = ClientRegistry(tmp_path)
        guid = registry.register({}).client_id
        registry.record_sync_ack(guid, 1, 8)
        with (tmp_path / "sync_acks.jsonl").open("a") as fh:
            fh.write('{"client_id": "' + guid + '", "sync')  # crashed writer
        reloaded = ClientRegistry(tmp_path)
        assert reloaded.last_acked(guid) == (1, 8)
        other = reloaded.register({"os": "me"}).client_id
        reloaded.record_sync_ack(guid, 3, 8)
        restarted = ClientRegistry(tmp_path)
        assert restarted.last_acked(guid) == (3, 8)
        assert restarted.client_ids() == sorted([guid, other])

    def test_server_restart_remembers_acks(self, tmp_path):
        root = tmp_path / "server"
        server = UUCSServer(root, seed=1)
        server.add_testcases([tc("a")])
        client_id = register(server)
        server.handle(sync_payload(client_id, ["r1"], sync_seq=1))
        # The whole server process restarts from disk.
        reborn = UUCSServer(root, seed=2)
        reborn.add_testcases([tc("a")])
        replay = reborn.handle(sync_payload(client_id, ["r1"], sync_seq=1))
        assert replay.payload["accepted"] == 0
        assert sorted(reborn.results.run_ids()) == ["r1"]


class _V1DowngradingTransport:
    """Wraps InProcessTransport, stripping v2 fields both ways — what
    talking to a pre-sync_seq server looks like."""

    def __init__(self, server):
        self._inner = InProcessTransport(server)

    def request(self, message):
        payload = {
            k: v for k, v in message.payload.items()
            if k not in ("sync_seq", "protocol")
        }
        response = self._inner.request(Message(message.type, payload))
        payload = {
            k: v for k, v in response.payload.items()
            if k not in ("sync_seq", "protocol", "duplicates")
        }
        return Message(response.type, payload)


class TestClientSyncState:
    def _ready_client(self, tmp_path, server, transport=None):
        client = UUCSClient(
            ClientConfig(root=tmp_path / "client", user_id="u"),
            transport or InProcessTransport(server),
            seed=1,
        )
        client.register({})
        client.hot_sync()
        return client

    def _record_run(self, client):
        feedback = make_user(sample_population(1, seed=2)[0], seed=3)
        return client.run_script([client.testcases.ids()[0]], feedback)[0]

    def test_acked_seq_advances_and_persists(self, tmp_path, server):
        client = self._ready_client(tmp_path, server)
        assert client.acked_seq == 1  # the initial (empty) sync
        assert client.server_protocol == PROTOCOL_VERSION
        self._record_run(client)
        client.hot_sync()
        assert client.acked_seq == 2
        # A restarted client process resumes the sequence from disk.
        reborn = UUCSClient(
            ClientConfig(root=tmp_path / "client", user_id="u"),
            InProcessTransport(server),
            seed=4,
        )
        assert reborn.acked_seq == 2
        assert reborn.registered

    def test_unacked_sync_keeps_seq_and_results(self, tmp_path, server):
        client = self._ready_client(tmp_path, server)
        run = self._record_run(client)
        seq_before = client.acked_seq

        class Mute:
            def request(self, message):
                raise TransportError("cable cut")

        client._transport = Mute()
        outcome = client.try_sync()
        assert not outcome.ok and outcome.pending == 1
        assert client.acked_seq == seq_before
        # Back online: the same seq is finally acked, exactly once stored.
        client._transport = InProcessTransport(server)
        _, uploaded = client.hot_sync()
        assert uploaded == 1
        assert client.acked_seq == seq_before + 1
        assert run.run_id in server.results

    def test_v1_server_full_acceptance_acks(self, tmp_path, server):
        client = self._ready_client(
            tmp_path, server, transport=_V1DowngradingTransport(server)
        )
        assert client.server_protocol == 0  # nothing ever announced
        self._record_run(client)
        _, uploaded = client.hot_sync()
        assert uploaded == 1
        assert len(client.results) == 0
        assert len(server.results) == 1

    def test_v1_server_short_acceptance_keeps_queue(self, tmp_path, server):
        """Without a seq echo, a short count is the only loss signal, so
        the client must keep its queue."""
        client = self._ready_client(tmp_path, server)
        run = self._record_run(client)
        # Seed the server store so the v1 sync "accepts" 0 of 1.
        server.results.append(run)

        client_v1 = UUCSClient(
            ClientConfig(root=client._config.root, user_id="u"),
            _V1DowngradingTransport(server),
            seed=5,
        )
        _, uploaded = client_v1.hot_sync()
        assert uploaded == 0
        assert len(client_v1.results) == 1  # kept, not drained
