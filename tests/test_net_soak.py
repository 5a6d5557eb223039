"""Concurrent-client soak tests for the TCP server.

The server must serve N >= 32 simultaneously-syncing clients with
exactly-once result-store contents (including deliberate lost-ack
replays), and hold >= 256 concurrent connections in one process — the
mostly-idle fleet shape the paper's Internet study implies at scale."""

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from test_sync_idempotent import sync_payload, tc

from repro.faults import (
    ChaosTCPProxy,
    FaultPlan,
    RetryingTransport,
    RetryPolicy,
)
from repro.net import AsyncioServerTransport
from repro.server import Message, TCPClientTransport, UUCSServer
from repro.telemetry import Telemetry


def make_server(tmp_path, telemetry=None):
    server = UUCSServer(tmp_path / "server", seed=1, telemetry=telemetry)
    server.add_testcases([tc("a"), tc("b")])
    return server


class TestConcurrentSyncSoak:
    N_CLIENTS = 32
    SYNCS_PER_CLIENT = 3
    RUNS_PER_SYNC = 3

    def _client_session(self, listener, index):
        """One client: register, then sync batches — replaying each one
        as if its ack was lost, so idempotency is exercised *while* 31
        other clients hammer the same store."""
        with listener.connect() as transport:
            reg = transport.request(
                Message("register", {"snapshot": {"worker": index}})
            ).expect("registered")
            client_id = reg.payload["client_id"]
            uploaded = []
            for seq in range(1, self.SYNCS_PER_CLIENT + 1):
                run_ids = [
                    f"c{index:02d}-s{seq}-r{j}"
                    for j in range(self.RUNS_PER_SYNC)
                ]
                first = transport.request(
                    sync_payload(client_id, run_ids, sync_seq=seq)
                ).expect("sync_ok")
                assert first.payload["accepted"] == len(run_ids)
                replay = transport.request(
                    sync_payload(client_id, run_ids, sync_seq=seq)
                ).expect("sync_ok")
                assert replay.payload["accepted"] == 0
                assert replay.payload["duplicates"] == len(run_ids)
                uploaded.extend(run_ids)
            return uploaded

    def test_exactly_once_under_concurrency(self, tmp_path):
        server = make_server(tmp_path)
        expected = []
        with AsyncioServerTransport(server) as listener:
            with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
                futures = [
                    pool.submit(self._client_session, listener, index)
                    for index in range(self.N_CLIENTS)
                ]
                for future in futures:
                    expected.extend(future.result(timeout=60.0))
        stored = sorted(server.results.run_ids())
        assert stored == sorted(expected)  # no loss, despite the replays
        # ...and nothing was written twice behind the index's back.
        assert len(server.results) == len(expected)
        assert len(server.registry) == self.N_CLIENTS


class TestAsyncioScale:
    N_CLIENTS = 256

    def test_sustains_256_concurrent_clients(self, tmp_path):
        """All 256 connections are open at once (the gauge proves it)
        and every client is served correctly through them."""
        telemetry = Telemetry()
        server = make_server(tmp_path, telemetry=telemetry)
        gauge = telemetry.metrics.gauge("uucs_server_open_connections")
        with AsyncioServerTransport(server) as listener:
            transports = []
            try:
                def register(transport):
                    reg = transport.request(
                        Message("register", {"snapshot": {}})
                    ).expect("registered")
                    return reg.payload["client_id"]

                with ThreadPoolExecutor(max_workers=32) as pool:
                    for _ in range(self.N_CLIENTS):
                        transports.append(listener.connect())
                    client_ids = list(pool.map(register, transports))
                # Every connection is established and served — and still open.
                assert gauge.value() == self.N_CLIENTS
                assert len(set(client_ids)) == self.N_CLIENTS

                def sync(pair):
                    transport, client_id = pair
                    run_id = f"scale-{client_id[:8]}"
                    response = transport.request(
                        sync_payload(client_id, [run_id], sync_seq=1)
                    ).expect("sync_ok")
                    assert response.payload["accepted"] == 1
                    return run_id

                with ThreadPoolExecutor(max_workers=32) as pool:
                    run_ids = list(pool.map(sync, zip(transports, client_ids)))
            finally:
                for transport in transports:
                    transport.close()
        assert sorted(server.results.run_ids()) == sorted(run_ids)
        assert (
            telemetry.metrics.counter("uucs_server_connections_total").value()
            == self.N_CLIENTS
        )


class TestAsyncioChaosInterop:
    def test_chaos_proxy_in_front_of_asyncio_backend(self, tmp_path):
        """The `serve --chaos` deployment shape, the asyncio server
        behind the proxy: a retrying client achieves exactly-once sync
        through injected drops, dups, and disconnects."""
        server = make_server(tmp_path)
        listener = AsyncioServerTransport(server)
        proxy = ChaosTCPProxy(
            listener.address,
            FaultPlan(
                drop_request=0.15,
                drop_response=0.15,
                duplicate=0.15,
                disconnect=0.1,
            ),
            seed=2004,
        )
        host, port = proxy.address
        transport = RetryingTransport(
            TCPClientTransport(host, port, timeout=5.0),
            RetryPolicy(max_attempts=12, base_delay=0.001, max_delay=0.01,
                        retry_budget=100_000),
            seed=7,
        )
        try:
            client_id = transport.request(
                Message("register", {"snapshot": {}})
            ).expect("registered").payload["client_id"]
            expected = []
            for seq in range(1, 41):
                run_id = f"chaos-{seq:02d}"
                response = transport.request(
                    sync_payload(client_id, [run_id], sync_seq=seq)
                ).expect("sync_ok")
                assert response.payload["sync_seq"] == seq
                expected.append(run_id)
        finally:
            transport.close()
            proxy.close()
            listener.close()
        assert sorted(server.results.run_ids()) == sorted(expected)
        assert sum(proxy.injected.values()) > 0
        assert transport.retries > 0

    def test_proxy_close_hangs_up_every_relay(self, tmp_path):
        """close() is prompt even with idle clients attached, every
        client reads EOF, and no proxy thread outlives it."""
        listener = AsyncioServerTransport(make_server(tmp_path))
        clients = []
        try:
            before = threading.active_count()
            proxy = ChaosTCPProxy(listener.address, FaultPlan(), seed=1)
            for _ in range(32):
                clients.append(
                    socket.create_connection(proxy.address, timeout=5.0)
                )
            clients[0].sendall(b'{"type": "ping", "payload": {}}\n')
            reply = clients[0].makefile("rb").readline()
            assert json.loads(reply)["type"] == "pong"
            started = time.monotonic()
            proxy.close()
            assert time.monotonic() - started < 1.0
            for sock in clients:
                sock.settimeout(3.0)
                assert sock.recv(1) == b""  # EOF, not a timeout
            assert threading.active_count() <= before
        finally:
            for sock in clients:
                sock.close()
            listener.close()
