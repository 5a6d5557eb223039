"""The UUCS TCP server.

One process, one event loop, thousands of mostly-idle client
connections — the fleet shape Anderson & Fedak observed for volunteer
computing, where each client syncs for milliseconds and then sits on an
open socket for minutes.  The loop thread, bind, connection limit and
shutdown are the shared :class:`~repro.net.listener.AsyncioListener`;
protocol behaviour is the :class:`~repro.net.dispatcher.RequestDispatcher`.

Constructing an :class:`AsyncioServerTransport` starts serving; use its
``.address``, ``.connect()`` and ``.close()``, or use it as a context
manager.

Request dispatch runs inline on the loop rather than in an executor:
:meth:`UUCSServer.handle` serializes on a global lock anyway, so
handing requests to worker threads would buy contention, not
parallelism, while inline dispatch keeps the hot path allocation-free.
The loop being single-threaded also makes the graceful-shutdown drain
exact: when the shutdown coroutine runs, no request can be mid-dispatch
— every live handler is parked awaiting a read or a write.
"""

from __future__ import annotations

import asyncio

from repro.net.dispatcher import RequestDispatcher
from repro.net.listener import AsyncioListener
from repro.server.protocol import MAX_MESSAGE_BYTES
from repro.server.server import TCPClientTransport, UUCSServer

__all__ = ["AsyncioServerTransport"]


class AsyncioServerTransport(AsyncioListener):
    """Serve a :class:`UUCSServer` over TCP from a background event loop.

    ``max_connections`` and ``drain_timeout`` are the listener's
    connection limit and shutdown drain (see
    :class:`~repro.net.listener.AsyncioListener`).
    """

    def __init__(
        self,
        server: UUCSServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        drain_timeout: float = 5.0,
    ):
        self._dispatcher = RequestDispatcher(server)
        # The read limit is the codec's cap, so any line it accepts
        # gets in.
        super().__init__(
            host,
            port,
            max_connections=max_connections,
            drain_timeout=drain_timeout,
            limit=MAX_MESSAGE_BYTES,
        )

    def connection_waited(self) -> None:
        self._dispatcher.connection_waited()

    def shutdown_complete(self, drained: int, forced: int) -> None:
        self._dispatcher.shutdown_complete(drained=drained, forced=forced)

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._dispatcher.connection_opened()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line beyond MAX_MESSAGE_BYTES: framing is lost, so
                    # the connection cannot be salvaged; drop it like a
                    # reset.
                    break
                if not line:
                    break  # EOF: the peer (or shutdown) closed the stream
                response = self._dispatcher.dispatch_line(line)
                if response is None:
                    continue
                writer.write(response)
                await writer.drain()
        finally:
            self._dispatcher.connection_closed()

    def connect(self) -> TCPClientTransport:
        """A blocking client transport for this server (it dials on its
        first request and redials after a drop)."""
        return TCPClientTransport(*self._address)
