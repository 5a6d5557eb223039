"""One asyncio TCP listener for every server in the package.

The sync server (:class:`~repro.net.AsyncioServerTransport`), the
metrics exporter and push gateway
(:class:`~repro.telemetry.exporter.MetricsExporter`) and the chaos
proxy (:class:`~repro.faults.ChaosTCPProxy`) serve their connections
the same way: one event loop in one background thread, and a coroutine
per connection.  A thread per connection prices a fleet of mostly-idle
peers in stacks; a coroutine prices it in a few hundred bytes
(EXPERIMENTS.md, "Serving a fleet").

:class:`AsyncioListener` owns what they share: the loop thread, the
bind, the connection limit, the graceful drain and force-close, and the
port release.  A subclass supplies :meth:`~AsyncioListener.handle`, the
per-connection coroutine.  Constructing a listener starts serving; use
its ``.address`` and ``.close()``, or use it as a context manager.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

from repro.errors import TransportError, ValidationError

__all__ = ["AsyncioListener"]

#: Pending-accept queue.  Large enough that a benchmark's worth of
#: simultaneous dials (hundreds) never sees ECONNREFUSED or a reset.
LISTEN_BACKLOG = 512

#: asyncio's own default per-connection read limit.
_DEFAULT_LIMIT = 2**16


class AsyncioListener:
    """Serve TCP connections from a background event loop.

    ``max_connections`` bounds concurrently *served* connections with
    backpressure rather than refusal: excess connections are accepted
    but not handled until a slot frees, so their peers stall in TCP
    buffers instead of erroring.  ``drain_timeout`` caps the graceful
    shutdown: in-flight responses get that long to flush before
    stragglers are force-closed.  ``limit`` is the longest line a
    connection's :class:`asyncio.StreamReader` will return.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int | None = None,
        drain_timeout: float = 1.0,
        limit: int = _DEFAULT_LIMIT,
    ):
        if max_connections is not None and max_connections < 1:
            raise ValidationError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self._max_connections = max_connections
        self._drain_timeout = float(drain_timeout)
        #: Every accepted connection's handler task and its writer.
        self._writers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._limiter: asyncio.Semaphore | None = None
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name=type(self).__name__, daemon=True
        )
        self._thread.start()
        try:
            self._aserver = asyncio.run_coroutine_threadsafe(
                self._start(host, port, limit), self._loop
            ).result(timeout=10.0)
        except OSError as exc:
            self._stop_loop()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        except BaseException:
            self._stop_loop()
            raise
        sockname = self._aserver.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))

    # -- what a server supplies ---------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection; the listener closes ``writer`` after."""
        raise NotImplementedError

    def connection_waited(self) -> None:
        """Called when a connection has to wait for a free slot."""

    def shutdown_complete(self, drained: int, forced: int) -> None:
        """Called once the drain ends, with how many connections
        finished on their own and how many were force-closed."""

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

    async def _start(
        self, host: str, port: int, limit: int
    ) -> asyncio.base_events.Server:
        if self._max_connections is not None:
            self._limiter = asyncio.Semaphore(self._max_connections)
        # reuse_address lets a restarted server rebind its old port while
        # the previous incarnation's connections linger in TIME_WAIT.
        return await asyncio.start_server(
            self._accepted,
            host,
            port,
            limit=limit,
            backlog=LISTEN_BACKLOG,
            reuse_address=True,
        )

    def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # A plain callback runs inside the protocol's connection_made, so
        # the connection is tracked before its handler task first runs:
        # close() then ends it even if the handler never started.
        task = self._loop.create_task(self._connection(reader, writer))
        self._writers[task] = writer

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            if self._limiter is None:
                await self.handle(reader, writer)
            else:
                if self._limiter.locked():
                    self.connection_waited()
                async with self._limiter:
                    await self.handle(reader, writer)
        except (OSError, asyncio.TimeoutError):
            # A peer vanished or stalled mid-exchange (reset, half-close,
            # chaos proxy, an upstream that never answered); this
            # connection is done but the server is fine.
            pass
        finally:
            del self._writers[task]
            # A crashed shutdown can finalize this coroutine after the
            # loop is gone; closing then would raise mid-GeneratorExit.
            if not self._loop.is_closed():
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    # -- public API --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, force-close, release.

        The listening socket is closed first and unconditionally — even
        if draining raises, a crashed shutdown never squats on the port
        (the loop is stopped and closed in the ``finally``).
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
        # Three loop turns reach every connection the kernel had queued
        # when close() was called.  After the first, the loop has taken
        # them off the listening socket.  Accepting then stops, and the
        # second turn builds their transports while the server is still
        # open (a transport built after the close would leak its socket
        # until garbage collection).  The third runs connection_made,
        # which hands each to _accepted, so the drain sees them all.
        await asyncio.sleep(0)
        for sock in self._aserver.sockets:
            self._loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        self._aserver.close()  # the port is free from here on
        await asyncio.sleep(0)
        await self._drain()

    async def _drain(self) -> None:
        # Closing a writer flushes its buffered bytes before FIN, so an
        # in-flight response still reaches its peer; idle handlers see
        # EOF from their next read and finish on their own.
        for writer in self._writers.values():
            writer.close()
        drained = forced = 0
        if self._writers:
            done, pending = await asyncio.wait(
                list(self._writers), timeout=self._drain_timeout
            )
            drained, forced = len(done), len(pending)
            for task in pending:
                # A peer that stopped reading holds a closing transport
                # open forever; abort() drops its unsent bytes.
                self._writers[task].transport.abort()
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self.shutdown_complete(drained=drained, forced=forced)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
