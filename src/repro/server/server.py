"""The UUCS server core and its client-side transports.

:class:`UUCSServer` is transport-independent: it maps one request
:class:`~repro.server.protocol.Message` to one response.  Clients reach
it two ways:

* :class:`InProcessTransport` — direct calls, used by simulations and tests;
* :class:`TCPClientTransport` — newline-delimited JSON over TCP (the
  Internet-facing deployment shape), against the server's TCP listener,
  :class:`~repro.net.AsyncioServerTransport`.
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path
from typing import Iterable

from repro.core.run import TestcaseRun
from repro.core.testcase import Testcase
from repro.errors import (
    ProtocolError,
    RegistrationError,
    ReproError,
    TransportError,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    Message,
    decode_message,
    encode_message,
)
from repro.server.registry import ClientRegistry
from repro.server.sampling import GrowingSampler
from repro.stores import ResultStore, TestcaseStore
from repro.telemetry import ClientRollups, Telemetry, TraceContext, get_telemetry
from repro.util.rng import SeedLike

__all__ = ["InProcessTransport", "TCPClientTransport", "UUCSServer"]


class UUCSServer:
    """Registration, hot-sync, and storage logic."""

    def __init__(
        self,
        root: str | Path,
        seed: SeedLike = None,
        sync_batch: int = 8,
        telemetry: Telemetry | None = None,
    ):
        root = Path(root)
        self.testcases = TestcaseStore(root / "testcases")
        self.results = ResultStore(root / "results")
        self.registry = ClientRegistry(root / "registry")
        self._sampler = GrowingSampler(seed, sync_batch)
        self._lock = threading.Lock()
        self._clock = 0.0
        self._telemetry = telemetry
        #: Per-client fleet rollups (populated only while telemetry is
        #: enabled; rendered by ``uucs clients`` / ``GET /clients``).
        self.rollups = ClientRollups()

    @property
    def telemetry(self) -> Telemetry:
        """The hub this server reports to (instance or process-wide)."""
        return self._telemetry if self._telemetry is not None else get_telemetry()

    # -- administration ------------------------------------------------------

    def add_testcases(self, testcases: Iterable[Testcase]) -> int:
        """Publish testcases ("new testcases can be added at any time")."""
        with self._lock:
            return self.testcases.add_all(list(testcases))

    def advance_clock(self, now: float) -> None:
        """Set the server's notion of time (study/simulation driven)."""
        self._clock = float(now)

    # -- request handling ------------------------------------------------------

    def handle(self, request: Message) -> Message:
        """Serve one request message; never raises for client mistakes.

        When the request payload carries a ``"trace"`` context (see
        :class:`~repro.telemetry.TraceContext`), the handler span joins
        the caller's distributed trace — its parent is the client-side
        span that sent the request — and the response payload echoes
        this server span's context so the client can record where
        server-side time went.  Identical on every transport: the TCP
        server's :class:`~repro.net.RequestDispatcher` and
        :class:`InProcessTransport` both funnel through here.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._dispatch(request)
        remote = TraceContext.from_wire(request.payload.get("trace"))
        started = time.perf_counter()
        with telemetry.tracer.span(
            "server.request", parent_context=remote, type=request.type
        ) as span:
            response = self._dispatch(request)
            span.annotate(response=response.type)
        elapsed = time.perf_counter() - started
        metrics = telemetry.metrics
        metrics.counter(
            "uucs_server_requests_total",
            "Requests served, by request message type.",
            labelnames=("type",),
        ).inc(type=request.type)
        metrics.histogram(
            "uucs_server_request_seconds",
            "Wall-time to serve one request, by request message type.",
            unit="seconds",
            labelnames=("type",),
        ).observe(elapsed, type=request.type)
        if response.type == "error":
            metrics.counter(
                "uucs_server_errors_total",
                "Error responses returned, by request message type.",
                labelnames=("type",),
            ).inc(type=request.type)
        telemetry.emit(
            "server.request",
            type=request.type,
            response=response.type,
            duration_s=elapsed,
        )
        if remote is not None:
            # Echo the server span back so the client can attribute the
            # round-trip's server-side share.  Only for trace-carrying
            # requests: v1 peers never see the extra key.
            response = Message(
                response.type,
                {**dict(response.payload), "trace": span.context.to_wire()},
            )
        return response

    def _dispatch(self, request: Message) -> Message:
        try:
            if request.type == "ping":
                return Message("pong", {})
            if request.type == "register":
                return self._handle_register(request)
            if request.type == "sync":
                return self._handle_sync(request)
            return Message.error(f"cannot serve message type {request.type!r}")
        except ReproError as exc:
            # Any library failure — malformed payloads, store trouble,
            # validation of uploaded records — becomes an error *response*;
            # a client mistake must never take down the server.
            return Message.error(str(exc))

    def _handle_register(self, request: Message) -> Message:
        snapshot = request.payload.get("snapshot")
        if not isinstance(snapshot, dict):
            raise ProtocolError("register requires a 'snapshot' object")
        with self._lock:
            record = self.registry.register(snapshot, now=self._clock)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(
                "uucs_server_registrations_total",
                "Clients registered (GUIDs issued).",
            ).inc()
            telemetry.metrics.gauge(
                "uucs_server_clients",
                "Clients currently known to the registry.",
            ).set(len(self.registry))
            self.rollups.record_register(record.client_id, now=self._clock)
        return Message(
            "registered",
            {"client_id": record.client_id, "protocol": PROTOCOL_VERSION},
        )

    def _handle_sync(self, request: Message) -> Message:
        client_id = request.payload.get("client_id")
        if not isinstance(client_id, str) or client_id not in self.registry:
            raise RegistrationError(
                "sync requires a registered 'client_id' (register first)"
            )
        held = request.payload.get("have", [])
        if not isinstance(held, list):
            raise ProtocolError("'have' must be a list of testcase ids")
        uploads = request.payload.get("results", [])
        if not isinstance(uploads, list):
            raise ProtocolError("'results' must be a list of run records")
        want = request.payload.get("want")
        if want is not None and (not isinstance(want, int) or want < 0):
            raise ProtocolError("'want' must be a non-negative integer")
        sync_seq = request.payload.get("sync_seq")
        if sync_seq is not None and (
            not isinstance(sync_seq, int)
            or isinstance(sync_seq, bool)
            or sync_seq < 1
        ):
            raise ProtocolError("'sync_seq' must be a positive integer")

        runs: list[TestcaseRun] = []
        for record in uploads:
            if not isinstance(record, dict):
                raise ProtocolError("each result must be a JSON object")
            runs.append(TestcaseRun.from_dict(record))
        with self._lock:
            replayed = (
                sync_seq is not None
                and sync_seq <= self.registry.last_acked(client_id)[0]
            )
            # Idempotency is run-id based, not batch based: a retried
            # batch may carry runs recorded *after* the lost ack, so each
            # upload is judged individually against the store's index.
            accepted = self.results.extend(runs, dedupe=True)
            duplicates = len(runs) - accepted
            if sync_seq is not None:
                self.registry.record_sync_ack(client_id, sync_seq, accepted)
            fresh_ids = self._sampler.sample(
                self.testcases.ids(), [str(h) for h in held], want
            )
            shipped = [self.testcases.get(tid).to_text() for tid in fresh_ids]
        telemetry = self.telemetry
        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.counter(
                "uucs_server_syncs_total", "Hot syncs served."
            ).inc()
            metrics.counter(
                "uucs_server_results_accepted_total",
                "Run results accepted from clients during hot sync.",
            ).inc(accepted)
            metrics.counter(
                "uucs_server_testcases_shipped_total",
                "Testcases shipped to clients during hot sync.",
            ).inc(len(shipped))
            metrics.counter(
                "uucs_server_duplicate_results_total",
                "Uploaded run results dropped as already-stored duplicates.",
            ).inc(duplicates)
            if replayed:
                metrics.counter(
                    "uucs_server_replayed_syncs_total",
                    "Hot syncs recognized as replays of an acked sync_seq.",
                ).inc()
            if duplicates or replayed:
                telemetry.emit(
                    "server.sync_replay",
                    client=client_id,
                    sync_seq=sync_seq,
                    duplicates=duplicates,
                    accepted=accepted,
                )
            self.rollups.record_sync(
                client_id,
                results=accepted,
                discomforts=sum(1 for run in runs if run.discomforted),
                now=self._clock,
            )
        payload: dict[str, object] = {
            "testcases": shipped,
            "accepted": accepted,
            "duplicates": duplicates,
            "protocol": PROTOCOL_VERSION,
        }
        if sync_seq is not None:
            # Echoing the seq is the ack: the client drains its queue only
            # once it sees its own sequence number come back.
            payload["sync_seq"] = sync_seq
        return Message("sync_ok", payload)

    def record_client_bytes(self, client_id: str, read: int, written: int) -> None:
        """Attribute wire bytes to a client (transport-level accounting).

        Only GUIDs the registry issued get a rollup: a request may name
        any string as its ``client_id``."""
        if self.telemetry.enabled and client_id in self.registry:
            self.rollups.record_bytes(client_id, read=read, written=written)


class InProcessTransport:
    """Client-side transport that calls a local server directly."""

    def __init__(self, server: UUCSServer):
        self._server = server

    def request(self, message: Message) -> Message:
        # Round-trip through the codec so in-process behaves like the wire.
        encoded = encode_message(message)
        response = self._server.handle(decode_message(encoded))
        return decode_message(encode_message(response))

    def close(self) -> None:
        """Nothing to release; present for transport symmetry."""


class TCPClientTransport:
    """Newline-delimited JSON request/response over a TCP connection.

    All carrier-level failures — connect, send, a dropped or half-written
    response — surface as :class:`~repro.errors.TransportError`, the
    retryable subset of :class:`ProtocolError` that
    :class:`~repro.faults.RetryingTransport` resends on.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._file = self._sock.makefile("rb")

    def request(self, message: Message) -> Message:
        try:
            self._sock.sendall(encode_message(message))
            line = self._file.readline()
        except OSError as exc:
            raise TransportError(f"transport failure: {exc}") from exc
        if not line:
            raise TransportError("server closed the connection")
        if not line.endswith(b"\n"):
            raise TransportError("connection lost mid-response (truncated line)")
        try:
            return decode_message(line)
        except ProtocolError as exc:
            # An undecodable response means the line was damaged in
            # flight; under idempotent sync a blind resend is safe, so
            # classify it as transient.
            raise TransportError(f"undecodable response: {exc}") from exc

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TCPClientTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
