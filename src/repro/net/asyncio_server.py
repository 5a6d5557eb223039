"""The UUCS TCP server.

One process, one event loop, thousands of mostly-idle client
connections — the fleet shape Anderson & Fedak observed for volunteer
computing, where each client syncs for milliseconds and then sits on an
open socket for minutes.  A thread per connection prices that fleet in
stacks; a coroutine per connection prices it in a few hundred bytes
(measured in EXPERIMENTS.md, "Serving a fleet").

Constructing an :class:`AsyncioServerTransport` starts serving; use its
``.address``, ``.connect()`` and ``.close()``, or use it as a context
manager.  The event loop runs in a dedicated background thread; protocol
behaviour is the :class:`~repro.net.dispatcher.RequestDispatcher`.

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
import contextlib
import threading

from repro.errors import TransportError, ValidationError
from repro.net.dispatcher import RequestDispatcher
from repro.server.protocol import MAX_MESSAGE_BYTES
from repro.server.server import TCPClientTransport, UUCSServer

__all__ = ["AsyncioServerTransport"]

#: Pending-accept queue.  Large enough that a benchmark's worth of
#: simultaneous dials (hundreds) never sees ECONNREFUSED.
LISTEN_BACKLOG = 512


class AsyncioServerTransport:
    """Serve a :class:`UUCSServer` over TCP from a background event loop.

    ``max_connections`` bounds concurrently *served* connections with
    backpressure rather than refusal: excess connections are accepted
    but not read from until a slot frees, so their clients stall in TCP
    buffers instead of erroring.  ``drain_timeout`` caps the graceful
    shutdown: in-flight responses get that long to flush before
    stragglers are force-closed.
    """

    def __init__(
        self,
        server: UUCSServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        drain_timeout: float = 5.0,
    ):
        if max_connections is not None and max_connections < 1:
            raise ValidationError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self._dispatcher = RequestDispatcher(server)
        self._max_connections = max_connections
        self._drain_timeout = float(drain_timeout)
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._limiter: asyncio.Semaphore | None = None
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="uucs-asyncio-server", daemon=True
        )
        self._thread.start()
        try:
            self._aserver = asyncio.run_coroutine_threadsafe(
                self._start(host, port), self._loop
            ).result(timeout=10.0)
        except OSError as exc:
            self._stop_loop()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        except BaseException:
            self._stop_loop()
            raise
        sockname = self._aserver.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))

    # -- loop plumbing -----------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)

    async def _start(self, host: str, port: int) -> asyncio.base_events.Server:
        if self._max_connections is not None:
            self._limiter = asyncio.Semaphore(self._max_connections)
        # reuse_address lets a restarted server rebind its old port while
        # the previous incarnation's connections linger in TIME_WAIT.  The
        # read limit is the codec's cap, so any line it accepts gets in.
        return await asyncio.start_server(
            self._handle_connection,
            host,
            port,
            limit=MAX_MESSAGE_BYTES,
            backlog=LISTEN_BACKLOG,
            reuse_address=True,
        )

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            if self._limiter is not None:
                if self._limiter.locked():
                    self._dispatcher.connection_waited()
                await self._limiter.acquire()
            try:
                await self._serve_connection(reader, writer)
            finally:
                if self._limiter is not None:
                    self._limiter.release()
        except asyncio.CancelledError:
            # Force-closed as a shutdown straggler; the connection is
            # done but the (already stopping) server is fine.
            pass
        finally:
            if task is not None:
                self._tasks.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
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
        except (ConnectionError, TimeoutError, OSError):
            # The peer vanished mid-exchange (reset, half-close, chaos
            # proxy); this connection is done but the server is fine.
            pass
        finally:
            self._writers.discard(writer)
            self._dispatcher.connection_closed()
            with contextlib.suppress(Exception):
                writer.close()
            # A crashed shutdown can finalize this coroutine after the
            # loop is gone; awaiting then would die mid-GeneratorExit.
            if not self._loop.is_closed():
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    # -- public API --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def connect(self) -> TCPClientTransport:
        """A blocking client transport dialled at this server."""
        return TCPClientTransport(*self._address)

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, force-close, release.

        The listening socket is closed first and unconditionally — even
        if draining raises, a crashed shutdown never squats on the port
        (the loop is stopped and closed in the ``finally``, which tears
        down any transports the drain left behind).
        """
        if self._closed:
            return
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop
            ).result(timeout=self._drain_timeout + 10.0)
        finally:
            self._stop_loop()

    async def _shutdown(self) -> None:
        try:
            self._aserver.close()
            await self._aserver.wait_closed()
        finally:
            await self._drain()

    async def _drain(self) -> None:
        # Closing a writer flushes its buffered bytes before FIN, so an
        # in-flight response still reaches its client; idle handlers see
        # EOF from their readline and finish on their own.
        for writer in list(self._writers):
            writer.close()
        drained = forced = 0
        if self._tasks:
            done, pending = await asyncio.wait(
                list(self._tasks), timeout=self._drain_timeout
            )
            drained = len(done)
            forced = len(pending)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._dispatcher.shutdown_complete(drained=drained, forced=forced)

    def __enter__(self) -> "AsyncioServerTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
