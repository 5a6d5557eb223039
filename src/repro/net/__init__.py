"""Networking for the Internet-facing UUCS deployment (paper §4).

Every TCP server in the package runs on one :class:`AsyncioListener`:
an event loop in a background thread, a coroutine per connection, and
one shared connection limit, drain and shutdown.  The sync server's
protocol logic lives in one transport-agnostic
:class:`RequestDispatcher`; :class:`AsyncioServerTransport` puts it on
a listener, holding thousands of concurrent connections (``uucs
serve``).  Clients dial it with :class:`~repro.server.TCPClientTransport`.
The metrics exporter and the chaos proxy are listeners too
(:mod:`repro.telemetry.exporter`, :mod:`repro.faults.proxy`).
"""

from repro.net.dispatcher import RequestDispatcher
from repro.net.listener import AsyncioListener
from repro.net.asyncio_server import AsyncioServerTransport

__all__ = [
    "AsyncioListener",
    "AsyncioServerTransport",
    "RequestDispatcher",
]
