"""Transport-agnostic request dispatch for the UUCS TCP server.

The UUCS wire protocol is newline-delimited JSON: one request line in,
one response line out, any number of exchanges per connection.
:class:`RequestDispatcher` holds that per-line contract — decoding,
dispatch, error replies, and telemetry — apart from the socket code of
:class:`~repro.net.AsyncioServerTransport`, which only moves bytes
between the stream and the dispatcher.

The dispatcher is thread-safe to exactly the degree its
:class:`~repro.server.server.UUCSServer` is; the asyncio server calls
``dispatch_line`` serially from its one event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.server.protocol import Message, decode_message, encode_message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.server.server import UUCSServer

__all__ = ["RequestDispatcher"]


def _open_connections_gauge(telemetry):
    return telemetry.metrics.gauge(
        "uucs_server_open_connections", "TCP connections currently open."
    )


class RequestDispatcher:
    """Per-line protocol core of the TCP server.

    A transport owns exactly one dispatcher and calls three hooks:
    :meth:`connection_opened` / :meth:`connection_closed` around each
    connection's lifetime, and :meth:`dispatch_line` once per request
    line.  The wire-level telemetry — request/byte counters,
    malformed-line counts, per-client rollups, connection-lifecycle
    families — is recorded here.
    """

    def __init__(self, server: "UUCSServer"):
        self.server = server

    # -- connection lifecycle ----------------------------------------------

    def connection_opened(self) -> None:
        """Record an accepted connection (call once per connection)."""
        telemetry = self.server.telemetry
        if not telemetry.enabled:
            return
        metrics = telemetry.metrics
        metrics.counter(
            "uucs_server_connections_total", "TCP connections accepted."
        ).inc()
        _open_connections_gauge(telemetry).inc()
        telemetry.emit("server.connection_open")

    def connection_closed(self) -> None:
        """Record a finished connection (pair with :meth:`connection_opened`)."""
        telemetry = self.server.telemetry
        if not telemetry.enabled:
            return
        _open_connections_gauge(telemetry).dec()
        telemetry.emit("server.connection_close")

    def connection_waited(self) -> None:
        """Record a connection held back by the connection limit."""
        telemetry = self.server.telemetry
        if not telemetry.enabled:
            return
        telemetry.metrics.counter(
            "uucs_server_connection_limit_waits_total",
            "Connections that waited for a slot under the connection limit.",
        ).inc()
        telemetry.emit("server.connection_wait")

    def connection_forced_closed(self, count: int = 1) -> None:
        """Record straggler connections force-closed during shutdown."""
        telemetry = self.server.telemetry
        if not telemetry.enabled or count < 1:
            return
        telemetry.metrics.counter(
            "uucs_server_forced_closes_total",
            "Connections force-closed after the shutdown drain deadline.",
        ).inc(count)

    def shutdown_complete(self, drained: int, forced: int) -> None:
        """Record the outcome of a graceful shutdown."""
        self.connection_forced_closed(forced)
        telemetry = self.server.telemetry
        if telemetry.enabled:
            telemetry.emit("server.shutdown", drained=drained, forced=forced)

    # -- request dispatch --------------------------------------------------

    def dispatch_line(self, line: bytes) -> bytes | None:
        """Serve one raw request line; returns the encoded response line.

        Blank lines yield ``None`` (nothing to write).  A line that fails
        to decode or dispatch never raises: any library error becomes an
        ``error`` reply so one garbage line cannot kill the connection.
        """
        if not line.strip():
            return None
        server = self.server
        telemetry = server.telemetry
        client_id = ""
        try:
            request = decode_message(line)
            payload_client = request.payload.get("client_id")
            if isinstance(payload_client, str):
                client_id = payload_client
            response = server.handle(request)
        except ReproError as exc:
            # One garbage line must not kill the connection: any library
            # error (ProtocolError, SerializationError, ...) turns into
            # an error reply and the caller keeps reading.
            response = Message.error(str(exc))
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "uucs_server_malformed_lines_total",
                    "Request lines that failed to decode or dispatch.",
                ).inc()
        try:
            payload = encode_message(response)
        except ReproError as exc:
            payload = encode_message(Message.error(f"unencodable response: {exc}"))
        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.counter(
                "uucs_server_bytes_read_total",
                "Request bytes read off TCP connections.",
                unit="bytes",
            ).inc(len(line))
            metrics.counter(
                "uucs_server_bytes_written_total",
                "Response bytes written to TCP connections.",
                unit="bytes",
            ).inc(len(payload))
            server.record_client_bytes(client_id, len(line), len(payload))
        return payload
