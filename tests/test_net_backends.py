"""Tests for the TCP server in repro.net: it must serve the protocol
through the shared dispatcher, accept any line the codec accepts,
enforce the connection limit with backpressure, and release its port on
every shutdown path — including exception paths."""

import socket
import threading
import time

import pytest

from repro.core.exercise import constant
from repro.core.resources import Resource
from repro.core.testcase import Testcase
from repro.errors import ValidationError
from repro.faults import ChaosTCPProxy, FaultPlan
from repro.net import AsyncioServerTransport
from repro.server import Message, UUCSServer
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.exporter import MetricsExporter


def tc(tcid):
    return Testcase.single(tcid, constant(Resource.CPU, 1.0, 10.0))


def make_server(tmp_path, telemetry=None):
    server = UUCSServer(tmp_path / "server", seed=1, telemetry=telemetry)
    server.add_testcases([tc("a"), tc("b")])
    return server


class TestRegistry:
    def test_bad_connection_limit_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            AsyncioServerTransport(make_server(tmp_path), max_connections=0)


class TestProtocolParity:
    """The dispatcher contract, proven over a real socket."""

    def test_full_exchange(self, tmp_path):
        server = make_server(tmp_path)
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                assert transport.request(Message("ping", {})).type == "pong"
                reg = transport.request(
                    Message("register", {"snapshot": {}})
                ).expect("registered")
                sync = transport.request(
                    Message("sync", {"client_id": reg.payload["client_id"],
                                     "have": [], "results": [], "want": 5})
                ).expect("sync_ok")
                assert len(sync.payload["testcases"]) == 2

    def test_garbage_line_gets_error_reply_and_connection_lives(
        self, tmp_path
    ):
        server = make_server(tmp_path)
        with AsyncioServerTransport(server) as listener:
            host, port = listener.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                lines = sock.makefile("rb")
                sock.sendall(b"this is not json\n")
                import json

                assert json.loads(lines.readline())["type"] == "error"
                sock.sendall(b'{"type": "ping", "payload": {}}\n')
                assert json.loads(lines.readline())["type"] == "pong"

    def test_idempotent_sync_replay_over_wire(self, tmp_path):
        from test_sync_idempotent import sync_payload

        server = make_server(tmp_path)
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                reg = transport.request(
                    Message("register", {"snapshot": {}})
                ).expect("registered")
                client_id = reg.payload["client_id"]
                first = transport.request(
                    sync_payload(client_id, ["r1", "r2"], sync_seq=1)
                ).expect("sync_ok")
                assert first.payload["accepted"] == 2
                # The ack was "lost"; the identical batch is resent.
                replay = transport.request(
                    sync_payload(client_id, ["r1", "r2"], sync_seq=1)
                ).expect("sync_ok")
                assert replay.payload["accepted"] == 0
                assert replay.payload["duplicates"] == 2
                assert replay.payload["sync_seq"] == 1
        assert sorted(server.results.run_ids()) == ["r1", "r2"]

    def test_byte_and_client_rollup_parity(self, tmp_path):
        telemetry = Telemetry()
        server = make_server(tmp_path, telemetry=telemetry)
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
        metrics = telemetry.metrics
        assert metrics.counter("uucs_server_bytes_read_total").value() > 0
        assert metrics.counter("uucs_server_bytes_written_total").value() > 0
        latency = metrics.histogram("uucs_server_request_seconds")
        assert latency.count(type="register") == 1
        assert latency.count(type="sync") == 1

    def test_line_over_16_mib_is_served(self, tmp_path):
        """A client uploads its whole result queue as one line, and a
        33-user study's records come to ~20 MiB: the reader must take
        any line the codec does, not stop at a smaller limit of its own."""
        server = make_server(tmp_path)
        padded = Message("ping", {"pad": "x" * (17 * 1024 * 1024)})
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                assert transport.request(padded).type == "pong"
                assert transport.request(Message("ping", {})).type == "pong"

    def test_line_over_the_codec_cap_drops_the_connection(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import TransportError
        from repro.net import asyncio_server

        monkeypatch.setattr(asyncio_server, "MAX_MESSAGE_BYTES", 1024)
        server = make_server(tmp_path)
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                # Framing is lost: the server hangs up without a reply.
                with pytest.raises(TransportError):
                    transport.request(Message("ping", {"pad": "x" * 4096}))
            with listener.connect() as transport:
                assert transport.request(Message("ping", {})).type == "pong"


class TestConnectionLifecycle:
    def test_open_gauge_tracks_connections(self, tmp_path):
        telemetry = Telemetry.in_memory()
        server = make_server(tmp_path, telemetry=telemetry)
        gauge = telemetry.metrics.gauge("uucs_server_open_connections")
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                transport.request(Message("ping", {}))
                assert gauge.value() == 1
                assert (
                    telemetry.metrics.counter(
                        "uucs_server_connections_total"
                    ).value()
                    == 1
                )
        deadline = time.time() + 5.0
        while gauge.value() > 0 and time.time() < deadline:
            time.sleep(0.01)  # close-side bookkeeping races the test
        assert gauge.value() == 0
        names = [e.name for e in telemetry.events.sink.events]
        assert "server.connection_open" in names
        assert "server.connection_close" in names

    def test_connection_limit_applies_backpressure(self, tmp_path):
        """With 2 slots and 3 clients, the third is queued — not refused —
        and completes once a slot frees."""
        telemetry = Telemetry()
        server = make_server(tmp_path, telemetry=telemetry)
        with AsyncioServerTransport(server, max_connections=2) as listener:
            first = listener.connect()
            second = listener.connect()
            first.request(Message("ping", {}))
            second.request(Message("ping", {}))
            third = listener.connect()
            results = []

            def overflow():
                results.append(third.request(Message("ping", {})).type)

            waiter = threading.Thread(target=overflow, daemon=True)
            waiter.start()
            # Both slots are held: the third connection must actually
            # wait for one, not get served or refused.
            waiter.join(timeout=1.0)
            assert waiter.is_alive(), "limit did not hold the connection"
            first.close()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert results == ["pong"]
            second.close()
            third.close()
        waits = telemetry.metrics.counter(
            "uucs_server_connection_limit_waits_total"
        )
        assert waits.value() >= 1


class TestShutdown:
    def test_close_disconnects_idle_clients_and_releases_port(
        self, tmp_path
    ):
        server = make_server(tmp_path)
        listener = AsyncioServerTransport(server)
        host, port = listener.address
        client = listener.connect()
        client.request(Message("ping", {}))
        listener.close()
        # The idle connection was shut down, not leaked...
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            client.request(Message("ping", {}))
        client.close()
        # ...and the port is immediately rebindable.
        rebound = AsyncioServerTransport(server, host, port)
        try:
            with rebound.connect() as again:
                assert again.request(Message("ping", {})).type == "pong"
        finally:
            rebound.close()

    @pytest.mark.parametrize("kind", ["server", "exporter", "chaos-proxy"])
    def test_close_ends_connections_no_handler_has_taken(self, tmp_path, kind):
        """A connection dialled just before close() may still sit between
        the accept and its handler; close() must end it too, so the peer
        reads EOF at once instead of waiting out its own timeout.  All
        three servers share the listener, so all three are checked."""
        server = make_server(tmp_path)
        upstream = AsyncioServerTransport(server)
        start = {
            "server": lambda: AsyncioServerTransport(server),
            "exporter": lambda: MetricsExporter(MetricsRegistry()),
            "chaos-proxy": lambda: ChaosTCPProxy(
                upstream.address, FaultPlan(), seed=1
            ),
        }[kind]
        try:
            for _ in range(30):
                listener = start()
                with socket.create_connection(listener.address, 5.0) as peer:
                    listener.close()
                    peer.settimeout(1.0)
                    assert peer.recv(1) == b""
        finally:
            upstream.close()

    def test_close_is_idempotent(self, tmp_path):
        listener = AsyncioServerTransport(make_server(tmp_path))
        listener.close()
        listener.close()

    def test_exception_path_shutdown_still_releases_port(
        self, tmp_path, monkeypatch
    ):
        """Regression: a handler-teardown error mid-shutdown must not
        leave the listening socket bound (the next incarnation rebinds
        the same port immediately)."""
        server = make_server(tmp_path)
        listener = AsyncioServerTransport(server)
        host, port = listener.address
        client = listener.connect()
        client.request(Message("ping", {}))

        async def exploding(self):
            raise RuntimeError("teardown exploded")

        monkeypatch.setattr(AsyncioServerTransport, "_drain", exploding)
        with pytest.raises(RuntimeError, match="teardown exploded"):
            listener.close()
        client.close()
        monkeypatch.undo()
        rebound = AsyncioServerTransport(server, host, port)
        try:
            with rebound.connect() as again:
                assert again.request(Message("ping", {})).type == "pong"
        finally:
            rebound.close()
