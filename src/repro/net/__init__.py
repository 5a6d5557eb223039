"""Networking for the Internet-facing UUCS deployment (paper §4).

The server's protocol logic lives in one transport-agnostic
:class:`RequestDispatcher`; :class:`AsyncioServerTransport` puts it on a
TCP socket, one event loop holding thousands of concurrent connections
(``uucs serve``).  Clients dial it with
:class:`~repro.server.TCPClientTransport`.
"""

from repro.net.dispatcher import RequestDispatcher
from repro.net.asyncio_server import AsyncioServerTransport

__all__ = [
    "AsyncioServerTransport",
    "RequestDispatcher",
]
