"""The UUCS wire protocol.

Newline-delimited JSON messages; both interactions are client initiated
(§2):

* ``register``: the client sends its machine snapshot, the server replies
  ``registered`` with the client's GUID.
* ``sync`` ("hot sync"): the client sends its GUID, the testcase ids it
  already holds, any new results, and how many new testcases it wants; the
  server replies ``sync_ok`` with fresh testcases (text format) and the
  number of results accepted.

Errors come back as ``{"type": "error", "reason": ...}``.

Version negotiation is payload-based and backward compatible: a v2 client
adds ``protocol``/``sync_seq`` fields to its ``sync`` request and a v2
server echoes them in ``sync_ok`` (plus a ``duplicates`` count).  A v1
peer simply omits or ignores the extra keys — unknown payload fields pass
through the codec untouched — so old clients work against new servers and
vice versa; only the idempotency fast path is lost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol

from repro.errors import ProtocolError

__all__ = [
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "Message",
    "RawRecords",
    "Transport",
    "decode_message",
    "encode_message",
]

#: Highest protocol revision this package speaks.  v1 is the seed wire
#: format; v2 adds idempotent hot sync (``sync_seq`` replay detection).
PROTOCOL_VERSION = 2

#: Message types a client may send.
REQUEST_TYPES = ("register", "sync", "ping")
#: Message types a server may send.
RESPONSE_TYPES = ("registered", "sync_ok", "pong", "error")

#: Longest message line, newline excluded, that either side sends or
#: accepts.  A client uploads its whole result queue as one ``sync``
#: line (a 33-user study with full traces is ~20 MiB), so the cap is
#: generous; it exists to bound what outside input can make us buffer.
#: The TCP server's stream reader uses the same number, so a line the
#: codec would accept is never dropped on the wire.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Message:
    """One protocol message: a type tag plus a JSON-safe payload, in
    which a value may also be :class:`RawRecords`."""

    type: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in REQUEST_TYPES + RESPONSE_TYPES:
            raise ProtocolError(f"unknown message type {self.type!r}")

    @property
    def is_request(self) -> bool:
        return self.type in REQUEST_TYPES

    @property
    def is_error(self) -> bool:
        return self.type == "error"

    def expect(self, expected_type: str) -> "Message":
        """Assert this message has ``expected_type``; surface errors."""
        if self.type == "error":
            raise ProtocolError(
                f"server error: {self.payload.get('reason', 'unknown')}"
            )
        if self.type != expected_type:
            raise ProtocolError(
                f"expected {expected_type!r}, got {self.type!r}"
            )
        return self

    @staticmethod
    def error(reason: str) -> "Message":
        return Message("error", {"reason": reason})


class Transport(Protocol):
    """Anything that can carry a request message to the server."""

    def request(self, message: Message) -> Message: ...


@dataclass(frozen=True)
class RawRecords:
    """A payload value already in wire form: JSON texts, one per record.

    :func:`encode_message` splices the texts in verbatim as one JSON
    array, so a client ships its result store's lines without parsing
    and re-encoding them.  Each text must be the canonical
    ``json.dumps(record, sort_keys=True)`` form the store writes, so the
    message bytes equal those of the same payload holding the parsed
    records.  Not JSON-serializable itself: only the codec renders it.
    """

    texts: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.texts)


#: ``json.dumps(obj, sort_keys=True)`` builds an encoder exactly like
#: this one for every call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _render(value: Any) -> str:
    if isinstance(value, RawRecords):
        return "[" + ", ".join(value.texts) + "]"
    return _encode(value)


def encode_message(message: Message) -> bytes:
    """Serialize to one newline-terminated JSON line.

    The bytes are ``json.dumps({"type": ..., **payload}, sort_keys=True)``:
    the top-level object is rendered key by key in sorted order with the
    same separators, which lets a :class:`RawRecords` value drop in as
    ready-made text.
    """
    fields = {"type": message.type, **message.payload}
    data = "{" + ", ".join(
        f"{_encode(key)}: {_render(fields[key])}" for key in sorted(fields)
    ) + "}"
    raw = data.encode()
    if len(raw) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(raw)} bytes exceeds the {MAX_MESSAGE_BYTES} cap"
        )
    return raw + b"\n"


def decode_message(line: bytes | str) -> Message:
    """Parse one JSON line into a :class:`Message`."""
    if isinstance(line, bytes):
        # The cap counts the message, not its newline terminator, as
        # encode_message and the server's stream reader do.
        if len(line) - line.endswith(b"\n") > MAX_MESSAGE_BYTES:
            raise ProtocolError("oversized message")
        line = line.decode(errors="replace")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON message: {exc}") from exc
    if not isinstance(data, dict) or "type" not in data:
        raise ProtocolError("message must be a JSON object with a 'type'")
    msg_type = data.pop("type")
    if not isinstance(msg_type, str):
        raise ProtocolError("message 'type' must be a string")
    try:
        return Message(msg_type, data)
    except ProtocolError:
        raise
