"""A chaos TCP proxy for the UUCS wire protocol.

:class:`ChaosTCPProxy` sits between real sockets — clients dial the proxy,
the proxy dials the real server — and injects faults at the *byte* level,
where they genuinely happen: a dropped ack is a response line that the
server already wrote but the client never receives; a truncated response
is half a line followed by a dead connection.  This exercises failure
modes the in-process :class:`~repro.faults.injection.FaultInjectingTransport`
can only approximate, and it works against any client (``uucs client
--port <proxy port>``) without code changes.

The proxy is an :class:`~repro.net.listener.AsyncioListener`: every
relay is a coroutine on one event-loop thread, so ``close()`` ends them
all, and the one seeded :class:`~repro.faults.injection.FaultDice` they
share needs no lock.  A single sequential client sees a deterministic
fault schedule — the basis of the seeded soak tests.
"""

from __future__ import annotations

import asyncio

from repro.faults.injection import FaultDice, FaultPlan
from repro.net.listener import AsyncioListener
from repro.server.protocol import MAX_MESSAGE_BYTES
from repro.telemetry import Telemetry
from repro.util.rng import SeedLike

__all__ = ["ChaosTCPProxy"]

#: How long dialling the upstream server may take.
_CONNECT_TIMEOUT_S = 10.0


class ChaosTCPProxy(AsyncioListener):
    """Fault-injecting line proxy in front of a UUCS TCP server."""

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: FaultPlan,
        seed: SeedLike = None,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Telemetry | None = None,
    ):
        self._upstream = (upstream[0], int(upstream[1]))
        self._plan = plan
        self._dice = FaultDice(seed, telemetry)
        #: Injected-fault counts by kind (observable).
        self.injected = self._dice.injected
        super().__init__(host, port, limit=MAX_MESSAGE_BYTES)

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        plan = self._plan
        roll = self._dice.roll
        server, upstream = await asyncio.wait_for(
            asyncio.open_connection(*self._upstream, limit=MAX_MESSAGE_BYTES),
            _CONNECT_TIMEOUT_S,
        )
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return  # the client hung up
                if not line.strip():
                    continue
                if roll(plan.drop_request, "drop_request"):
                    # The request evaporates; killing the connection
                    # makes the loss visible to the client immediately
                    # instead of stalling it on a read timeout.
                    return
                if roll(plan.disconnect, "disconnect"):
                    return
                if roll(plan.duplicate, "duplicate"):
                    # Deliver twice; swallow the first response so the
                    # client sees exactly one (the server saw two).
                    upstream.write(line)
                    if not await server.readline():
                        return
                upstream.write(line)
                response = await server.readline()
                if not response:
                    return  # upstream died; drop the client too
                if roll(plan.drop_response, "drop_response"):
                    # The server has committed; the ack dies here.
                    return
                if roll(plan.truncate, "truncate"):
                    writer.write(response[: max(1, len(response) // 2)])
                    return
                if roll(plan.corrupt, "corrupt"):
                    response = b"\x00garbage\xff" + response[9:-1] + b"\n"
                if roll(plan.delay, "delay") and plan.delay_s > 0.0:
                    await asyncio.sleep(plan.delay_s)
                writer.write(response)
                await writer.drain()
        except ValueError:
            pass  # a line past MAX_MESSAGE_BYTES: framing is lost
        finally:
            upstream.close()
