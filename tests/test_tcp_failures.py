"""TCP failure paths: malformed lines, cut connections, half-written
responses, server restarts, and the seeded chaos-proxy soak, all against
the asyncio TCP server."""

import contextlib
import errno
import json
import os
import socket
import threading

import pytest

from repro.client import ClientConfig, UUCSClient
from repro.core.exercise import constant
from repro.core.resources import Resource
from repro.core.testcase import Testcase
from repro.errors import TransportError
from repro.faults import (
    ChaosTCPProxy,
    FaultInjectingTransport,
    FaultPlan,
    RetryingTransport,
    RetryPolicy,
)
from repro.net import AsyncioServerTransport
from repro.server import Message, TCPClientTransport, UUCSServer
from repro.telemetry import Telemetry
from repro.users import make_user, sample_population


def tc(tcid):
    return Testcase.single(tcid, constant(Resource.CPU, 1.0, 10.0))


@pytest.fixture()
def served(tmp_path):
    server = UUCSServer(tmp_path / "server", seed=1)
    server.add_testcases([tc("a"), tc("b")])
    with AsyncioServerTransport(server) as transport:
        yield server, transport


class TestMalformedInput:
    def test_garbage_line_gets_error_reply_and_connection_lives(self, served):
        _, transport = served
        host, port = transport.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            lines = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            reply = json.loads(lines.readline())
            assert reply["type"] == "error"
            # Same connection, next line: still being served.
            sock.sendall(b'{"type": "ping", "payload": {}}\n')
            assert json.loads(lines.readline())["type"] == "pong"

    def test_bad_result_record_gets_error_reply(self, served):
        server, transport = served
        client = transport.connect()
        try:
            client_id = client.request(
                Message("register", {"snapshot": {}})
            ).payload["client_id"]
            response = client.request(
                Message(
                    "sync",
                    {
                        "client_id": client_id,
                        "have": [],
                        "results": [{"run_id": "r1"}],  # missing everything
                        "want": 0,
                    },
                )
            )
            assert response.type == "error"
            # The poison record committed nothing and the connection
            # still serves well-formed requests.
            assert len(server.results) == 0
            assert client.request(Message("ping", {})).type == "pong"
        finally:
            client.close()

    def test_unknown_message_type_is_an_error_not_a_hangup(self, served):
        _, transport = served
        host, port = transport.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            lines = sock.makefile("rb")
            sock.sendall(b'{"type": "warp", "payload": {}}\n')
            assert json.loads(lines.readline())["type"] == "error"
            sock.sendall(b'{"type": "ping", "payload": {}}\n')
            assert json.loads(lines.readline())["type"] == "pong"


class TestHandlerFailures:
    @pytest.mark.parametrize("error", [
        OSError(errno.ENOSPC, "No space left on device"),
        AttributeError("'list' object has no attribute 'get'"),
    ], ids=["full-disk", "bug"])
    def test_handler_failure_is_one_error_reply(
        self, tmp_path, served, monkeypatch, error
    ):
        """A handler that raises something other than a library error
        (the store's disk is full, a bug) still gets one error reply
        naming the exception: the client does not resend, keeps its
        queue, and the connection keeps serving."""
        server, listener = served
        inner = listener.connect()
        transport = RetryingTransport(
            inner,
            RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01),
            seed=1,
        )
        client = UUCSClient(
            ClientConfig(root=tmp_path / "client", user_id="u"),
            transport,
            seed=2,
        )
        client.register({})
        client.hot_sync()
        feedback = make_user(sample_population(1, seed=3)[0], seed=4)
        client.run_script(["a"], feedback, task="word")
        appends = []

        def failing_extend(*args, **kwargs):
            appends.append(args)
            raise error

        monkeypatch.setattr(server.results, "extend", failing_extend)
        outcome = client.try_sync()
        assert not outcome.ok
        assert type(error).__name__ in outcome.error
        assert len(appends) == 1  # one request, one reply: no resend
        assert transport.retries == 0
        assert len(client.results) == 1  # still queued for the next sync
        assert inner.request(Message("ping", {})).type == "pong"
        assert inner.reconnects == 0  # the same connection answered


class TestFaultRecord:
    def test_both_injectors_count_into_one_family(self, served):
        """The in-process injector and the chaos proxy record an injected
        fault the same way: ``uucs_faults_injected_total{kind}`` and a
        ``fault.injected`` event (with the message type where the
        injector sees it)."""
        _, listener = served
        telemetry = Telemetry.in_memory()
        with FaultInjectingTransport(
            listener.connect(), FaultPlan(duplicate=1.0), seed=1,
            telemetry=telemetry,
        ) as chaotic:
            assert chaotic.request(Message("ping", {})).type == "pong"
        proxy = ChaosTCPProxy(
            listener.address, FaultPlan(drop_response=1.0), seed=1,
            telemetry=telemetry,
        )
        try:
            with TCPClientTransport(*proxy.address, timeout=5.0) as client:
                with pytest.raises(TransportError):
                    client.request(Message("ping", {}))
        finally:
            proxy.close()
        assert chaotic.injected == {"duplicate": 1}
        assert proxy.injected == {"drop_response": 1}
        family = telemetry.metrics.get("uucs_faults_injected_total")
        assert family.value(kind="duplicate") == 1
        assert family.value(kind="drop_response") == 1
        assert "uucs_chaos_faults_total" not in telemetry.metrics
        events = [
            dict(e.fields) for e in telemetry.events.sink.events
            if e.name == "fault.injected"
        ]
        assert events == [
            {"kind": "duplicate", "type": "ping"},
            {"kind": "drop_response"},
        ]


class TestConnectionFailures:
    def test_connect_refused_is_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        # The listener above is closed: nothing is bound to `port` now.
        # The transport dials on its first request, so that is where
        # the refusal surfaces.
        client = TCPClientTransport("127.0.0.1", port, timeout=0.5)
        with pytest.raises(TransportError, match="cannot connect"):
            client.request(Message("ping", {}))
        client.close()

    def test_mid_request_disconnect_is_transport_error(self, served):
        _, transport = served
        client = transport.connect()
        assert client.request(Message("ping", {})).type == "pong"
        transport.close()  # server goes away under the client's feet
        with pytest.raises(TransportError, match="closed|failure"):
            client.request(Message("ping", {}))
        client.close()

    def test_half_written_response_is_transport_error(self):
        """An ad-hoc server that writes half a line and hangs up."""

        def serve(listener):
            conn, _ = listener.accept()
            conn.makefile("rb").readline()
            conn.sendall(b'{"type": "pong", "pay')  # no newline, then gone
            conn.close()

        listener = socket.create_server(("127.0.0.1", 0))
        threading.Thread(target=serve, args=(listener,), daemon=True).start()
        client = TCPClientTransport(*listener.getsockname()[:2], timeout=5.0)
        with pytest.raises(TransportError, match="truncated|closed"):
            client.request(Message("ping", {}))
        client.close()
        listener.close()


class TestServerRestart:
    @staticmethod
    def _sync_across_restart(tmp_path, dial):
        """The client registers, the server dies and is reborn on the SAME
        port from the same stores; a retrying client over ``dial``'s
        transport then syncs as if nothing happened.  Returns that
        transport."""
        root = tmp_path / "server"
        server = UUCSServer(root, seed=1)
        server.add_testcases([tc("a"), tc("b")])
        first = AsyncioServerTransport(server)
        host, port = first.address

        inner = dial(first)
        transport = RetryingTransport(
            inner,
            RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.05),
            seed=7,
        )
        client = UUCSClient(
            ClientConfig(root=tmp_path / "client", user_id="u"),
            transport,
            seed=2,
        )
        client.register({})
        client.hot_sync()
        feedback = make_user(sample_population(1, seed=3)[0], seed=4)
        run = client.run_script(["a"], feedback, task="word")[0]

        first.close()
        reborn = UUCSServer(root, seed=5)  # registry + results from disk
        reborn.add_testcases([tc("a"), tc("b")])
        second = AsyncioServerTransport(reborn, host, port)
        try:
            _, uploaded = client.hot_sync()
            assert uploaded == 1
            assert run.run_id in reborn.results
            assert transport.retries >= 1
        finally:
            second.close()
            transport.close()
        return inner

    def test_restart_between_register_and_sync(self, tmp_path):
        telemetry = Telemetry.in_memory()
        inner = self._sync_across_restart(
            tmp_path,
            lambda listener: TCPClientTransport(
                *listener.address, timeout=5.0, telemetry=telemetry
            ),
        )
        assert inner.reconnects == 1
        names = [e.name for e in telemetry.events.sink.events]
        assert names.count("client.reconnect") == 1

    def test_listener_connect_survives_restart(self, tmp_path):
        """``listener.connect()`` hands out the same redialing transport,
        so a retry after the restart dials the reborn server instead of
        resending into the dead socket."""
        inner = self._sync_across_restart(
            tmp_path, lambda listener: listener.connect()
        )
        assert inner.reconnects == 1


class TestChaosProxySoak:
    def test_soak_exactly_once_under_chaos(self, tmp_path):
        """≥100 syncs through a seeded chaos proxy (drop, drop-ack,
        duplicate all at 0.2, disconnects at 0.1): the server store must
        end up holding exactly the set of runs the client recorded —
        zero lost, zero duplicated."""
        seed = int(os.environ.get("UUCS_CHAOS_SEED", "42"))
        # CI sets UUCS_TELEMETRY so a failing soak leaves an event log
        # (retries, injected faults, replays) behind as an artifact.
        event_log = os.environ.get("UUCS_TELEMETRY", "")
        with contextlib.ExitStack() as stack:
            if event_log:
                from repro.telemetry import Telemetry, use_telemetry

                stack.enter_context(use_telemetry(Telemetry.to_path(event_log)))
            self._soak(tmp_path, seed)

    def _soak(self, tmp_path, seed):
        server = UUCSServer(tmp_path / "server", seed=1)
        server.add_testcases([tc("a"), tc("b")])
        tcp = AsyncioServerTransport(server)
        proxy = ChaosTCPProxy(
            tcp.address,
            FaultPlan(
                drop_request=0.2,
                drop_response=0.2,
                duplicate=0.2,
                disconnect=0.1,
                corrupt=0.1,
            ),
            seed=seed,
        )
        host, port = proxy.address
        transport = RetryingTransport(
            TCPClientTransport(host, port, timeout=5.0),
            RetryPolicy(
                max_attempts=12,
                base_delay=0.001,
                max_delay=0.01,
                retry_budget=100_000,
            ),
            seed=seed + 1,
        )
        client = UUCSClient(
            ClientConfig(root=tmp_path / "client", user_id="u"),
            transport,
            seed=seed + 2,
        )
        expected = []
        try:
            client.register({})
            client.hot_sync()
            feedback = make_user(
                sample_population(1, seed=seed + 3)[0], seed=seed + 4
            )
            for index in range(100):
                run = client.run_script(
                    ["a" if index % 2 else "b"], feedback, task="word"
                )[0]
                expected.append(run.run_id)
                client.try_sync()  # chaos may fail it; results stay queued
            for _ in range(100):  # reconcile the tail
                if not len(client.results):
                    break
                client.try_sync()
        finally:
            transport.close()
            proxy.close()
            tcp.close()

        assert len(client.results) == 0, "client failed to flush under chaos"
        stored = sorted(r.run_id for r in server.results)
        assert stored == sorted(expected)  # exactly once: no loss, no dupes
        # The knobs were high enough that the run genuinely hurt.
        assert sum(proxy.injected.values()) > 20
        assert transport.retries > 0
