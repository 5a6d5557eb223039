"""Tests for registry, sampler, server core, and the TCP transport."""

import pytest

from repro.core.exercise import constant
from repro.core.resources import Resource
from repro.core.testcase import Testcase
from repro.errors import RegistrationError, ValidationError
from repro.net import AsyncioServerTransport, RequestDispatcher
from repro.server import (
    ClientRegistry,
    GrowingSampler,
    InProcessTransport,
    Message,
    UUCSServer,
    decode_message,
    encode_message,
)


def tc(tcid):
    return Testcase.single(tcid, constant(Resource.CPU, 1.0, 10.0))


class TestRegistry:
    def test_register_assigns_unique_guids(self, tmp_path):
        registry = ClientRegistry(tmp_path)
        a = registry.register({"os": "xp"})
        b = registry.register({"os": "xp"})
        assert a.client_id != b.client_id
        assert len(registry) == 2

    def test_lookup(self, tmp_path):
        registry = ClientRegistry(tmp_path)
        record = registry.register({"cpu": "p4"}, now=5.0)
        found = registry.lookup(record.client_id)
        assert found.snapshot == {"cpu": "p4"}
        assert found.registered_at == 5.0

    def test_unknown_client(self, tmp_path):
        registry = ClientRegistry(tmp_path)
        with pytest.raises(RegistrationError):
            registry.lookup("ghost")

    def test_persistence_across_restart(self, tmp_path):
        first = ClientRegistry(tmp_path)
        record = first.register({"os": "xp"})
        second = ClientRegistry(tmp_path)
        assert record.client_id in second
        assert second.lookup(record.client_id).snapshot == {"os": "xp"}

    def test_torn_registration_skipped_then_cut(self, tmp_path):
        first = ClientRegistry(tmp_path)
        a = first.register({"os": "xp"})
        first.record_sync_ack(a.client_id, 1, 8)
        with (tmp_path / "registrations.jsonl").open("a") as fh:
            fh.write('{"client_id": "half-writ')  # crashed writer
        second = ClientRegistry(tmp_path)
        assert second.client_ids() == [a.client_id]
        b = second.register({"os": "me"})
        second.record_sync_ack(b.client_id, 2, 5)
        third = ClientRegistry(tmp_path)
        assert third.client_ids() == sorted([a.client_id, b.client_id])
        assert third.lookup(b.client_id).snapshot == {"os": "me"}
        assert third.last_acked(a.client_id) == (1, 8)
        assert third.last_acked(b.client_id) == (2, 5)

    def test_memory_only_registry(self):
        registry = ClientRegistry()
        record = registry.register({})
        assert record.client_id in registry


class TestGrowingSampler:
    def test_never_resends_held(self):
        sampler = GrowingSampler(seed=1, default_batch=3)
        available = [f"t{i}" for i in range(10)]
        held = ["t0", "t1"]
        sample = sampler.sample(available, held)
        assert len(sample) == 3
        assert not set(sample) & set(held)

    def test_growing_acquisition_converges(self):
        sampler = GrowingSampler(seed=2, default_batch=4)
        available = [f"t{i}" for i in range(10)]
        held: list[str] = []
        for _ in range(5):
            held.extend(sampler.sample(available, held))
        assert sorted(held) == sorted(available)

    def test_want_zero(self):
        sampler = GrowingSampler(seed=3)
        assert sampler.sample(["a", "b"], [], want=0) == []

    def test_want_more_than_fresh(self):
        sampler = GrowingSampler(seed=4)
        assert sorted(sampler.sample(["a", "b"], [], want=10)) == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            GrowingSampler(default_batch=0)
        sampler = GrowingSampler()
        with pytest.raises(ValidationError):
            sampler.sample(["a"], [], want=-1)

    def test_random_not_prefix_biased(self):
        # Over many draws every testcase should get picked sometimes.
        sampler = GrowingSampler(seed=5, default_batch=1)
        available = [f"t{i}" for i in range(8)]
        seen = set()
        for _ in range(200):
            seen.update(sampler.sample(available, []))
        assert seen == set(available)


class TestServerCore:
    def make_server(self, tmp_path):
        server = UUCSServer(tmp_path, seed=1, sync_batch=2)
        server.add_testcases([tc("a"), tc("b"), tc("c")])
        return server

    def register(self, server):
        response = server.handle(Message("register", {"snapshot": {"os": "xp"}}))
        assert response.type == "registered"
        return response.payload["client_id"]

    def test_ping(self, tmp_path):
        assert self.make_server(tmp_path).handle(Message("ping", {})).type == "pong"

    def test_register_and_sync(self, tmp_path):
        server = self.make_server(tmp_path)
        client_id = self.register(server)
        response = server.handle(
            Message("sync", {"client_id": client_id, "have": [],
                             "results": [], "want": 2})
        )
        assert response.type == "sync_ok"
        assert len(response.payload["testcases"]) == 2

    def test_sync_requires_registration(self, tmp_path):
        server = self.make_server(tmp_path)
        response = server.handle(
            Message("sync", {"client_id": "ghost", "have": [], "results": []})
        )
        assert response.is_error

    def test_register_requires_snapshot(self, tmp_path):
        server = self.make_server(tmp_path)
        assert server.handle(Message("register", {})).is_error

    def test_sync_validates_fields(self, tmp_path):
        server = self.make_server(tmp_path)
        client_id = self.register(server)
        bad_have = server.handle(
            Message("sync", {"client_id": client_id, "have": "x", "results": []})
        )
        assert bad_have.is_error
        bad_want = server.handle(
            Message("sync", {"client_id": client_id, "have": [],
                             "results": [], "want": -1})
        )
        assert bad_want.is_error
        bad_results = server.handle(
            Message("sync", {"client_id": client_id, "have": [],
                             "results": ["nope"]})
        )
        assert bad_results.is_error
        # A nested field of the wrong type is a client mistake too, not
        # an exception that would take the connection down.
        mistyped = {"run_id": "r", "testcase_id": "a",
                    "outcome": "exhausted", "end_offset": 1.0,
                    "testcase_duration": 1.0, "shapes": []}
        assert server.handle(
            Message("sync", {"client_id": client_id, "have": [],
                             "results": [mistyped]})
        ).is_error

    def test_responses_never_raise_for_client_mistakes(self, tmp_path):
        server = self.make_server(tmp_path)
        assert server.handle(Message("registered", {})).is_error


class TestTCPTransport:
    def test_full_exchange_over_tcp(self, tmp_path):
        server = UUCSServer(tmp_path, seed=1)
        server.add_testcases([tc("a")])
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                pong = transport.request(Message("ping", {}))
                assert pong.type == "pong"
                reg = transport.request(
                    Message("register", {"snapshot": {}})
                ).expect("registered")
                sync = transport.request(
                    Message("sync", {"client_id": reg.payload["client_id"],
                                     "have": [], "results": [], "want": 5})
                ).expect("sync_ok")
                assert len(sync.payload["testcases"]) == 1

    def test_multiple_clients(self, tmp_path):
        server = UUCSServer(tmp_path, seed=2)
        with AsyncioServerTransport(server) as listener:
            transports = [listener.connect() for _ in range(4)]
            try:
                ids = set()
                for transport in transports:
                    reg = transport.request(
                        Message("register", {"snapshot": {}})
                    ).expect("registered")
                    ids.add(reg.payload["client_id"])
                assert len(ids) == 4
            finally:
                for transport in transports:
                    transport.close()


class TestInProcessTransport:
    def test_routes_through_codec(self, tmp_path):
        server = UUCSServer(tmp_path, seed=1)
        transport = InProcessTransport(server)
        response = transport.request(Message("ping", {}))
        assert response.type == "pong"
        transport.close()


class TestPerClientRollups:
    def make_run(self, run_id, discomforted=True):
        from repro.core.feedback import DiscomfortEvent, RunOutcome
        from repro.core.run import RunContext, TestcaseRun

        outcome = RunOutcome.DISCOMFORT if discomforted else RunOutcome.EXHAUSTED
        return TestcaseRun(
            run_id=run_id,
            testcase_id="a",
            context=RunContext(user_id="u1", task="word", started_at=1.0),
            outcome=outcome,
            end_offset=5.0 if discomforted else 10.0,
            testcase_duration=10.0,
            levels_at_end={Resource.CPU: 1.5},
            feedback=DiscomfortEvent(offset=5.0, levels={Resource.CPU: 1.5})
            if discomforted else None,
        ).to_dict()

    def test_sync_accumulates_per_client(self, tmp_path):
        from repro.telemetry import Telemetry

        server = UUCSServer(tmp_path, seed=1, telemetry=Telemetry())
        server.add_testcases([tc("a")])
        reg = server.handle(Message("register", {"snapshot": {}}))
        client_id = reg.payload["client_id"]
        server.handle(Message("sync", {
            "client_id": client_id, "have": [],
            "results": [self.make_run("r1"), self.make_run("r2", False)],
        })).expect("sync_ok")
        server.handle(Message("sync", {
            "client_id": client_id, "have": ["a"], "results": [],
        })).expect("sync_ok")
        server.record_client_bytes(client_id, read=64, written=256)

        row = server.rollups.get(client_id)
        assert row.syncs == 2
        assert row.results == 2
        assert row.discomforts == 1
        assert row.bytes_read == 64
        assert row.bytes_written == 256
        # The rollup is the one per-client record: no labelled family
        # repeats it.
        assert not [
            metric.name
            for metric in server.telemetry.metrics
            if metric.name.startswith("uucs_server_client_")
        ]

    def test_rollups_idle_when_telemetry_disabled(self, tmp_path):
        server = UUCSServer(tmp_path, seed=1)
        server.add_testcases([tc("a")])
        reg = server.handle(Message("register", {"snapshot": {}}))
        client_id = reg.payload["client_id"]
        server.handle(Message("sync", {
            "client_id": client_id, "have": [], "results": [],
        })).expect("sync_ok")
        server.record_client_bytes(client_id, read=10, written=10)
        assert len(server.rollups) == 0

    def test_unissued_ids_get_no_rollup(self, tmp_path):
        # A request may name any string as its client_id; only GUIDs the
        # registry issued get per-client accounting.
        from repro.telemetry import Telemetry

        server = UUCSServer(tmp_path, seed=1, telemetry=Telemetry())
        dispatcher = RequestDispatcher(server)
        for i in range(1000):
            line = encode_message(
                Message("sync", {"client_id": f"made-up-{i}", "have": []})
            )
            reply = decode_message(dispatcher.dispatch_line(line))
            assert "registered 'client_id'" in reply.payload["reason"]
        assert len(server.registry) == 0
        assert len(server.rollups) == 0

    def test_tcp_transport_attributes_bytes(self, tmp_path):
        from repro.telemetry import Telemetry

        server = UUCSServer(tmp_path, seed=1, telemetry=Telemetry())
        server.add_testcases([tc("a")])
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                reg = transport.request(
                    Message("register", {"snapshot": {}})
                ).expect("registered")
                client_id = reg.payload["client_id"]
                transport.request(
                    Message("sync", {"client_id": client_id,
                                     "have": [], "results": [], "want": 1})
                ).expect("sync_ok")
        row = server.rollups.get(client_id)
        assert row is not None
        assert row.syncs == 1
        assert row.bytes_read > 0
        assert row.bytes_written > 0
