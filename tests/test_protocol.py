"""Tests for the UUCS wire protocol."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import Message, decode_message, encode_message


class TestMessage:
    def test_known_types_only(self):
        Message("register", {})
        Message("sync_ok", {})
        with pytest.raises(ProtocolError):
            Message("gossip", {})

    def test_request_classification(self):
        assert Message("sync", {}).is_request
        assert not Message("sync_ok", {}).is_request

    def test_expect_passes_matching(self):
        msg = Message("registered", {"client_id": "x"})
        assert msg.expect("registered") is msg

    def test_expect_raises_on_mismatch(self):
        with pytest.raises(ProtocolError):
            Message("pong", {}).expect("registered")

    def test_expect_surfaces_server_error(self):
        with pytest.raises(ProtocolError, match="boom"):
            Message.error("boom").expect("sync_ok")


class TestCodec:
    def test_roundtrip(self):
        msg = Message("sync", {"client_id": "c", "have": ["a"], "want": 3})
        restored = decode_message(encode_message(msg))
        assert restored.type == "sync"
        assert restored.payload == dict(msg.payload)

    def test_newline_terminated(self):
        assert encode_message(Message("ping", {})).endswith(b"\n")

    def test_decode_str_or_bytes(self):
        line = encode_message(Message("pong", {}))
        assert decode_message(line).type == "pong"
        assert decode_message(line.decode()).type == "pong"

    def test_malformed_json(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{nope\n")

    def test_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(json.dumps([1, 2]))

    def test_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_message(json.dumps({"payload": 1}))

    def test_non_string_type(self):
        with pytest.raises(ProtocolError):
            decode_message(json.dumps({"type": 7}))

    def test_unknown_type_rejected_at_decode(self):
        with pytest.raises(ProtocolError):
            decode_message(json.dumps({"type": "gossip"}))

    def test_size_cap_excludes_the_newline(self, monkeypatch):
        """Encoder and decoder agree on the boundary: a message of
        exactly MAX_MESSAGE_BYTES is sent and accepted, one byte more
        is refused at both ends."""
        line = encode_message(Message("ping", {}))
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", len(line) - 1)
        assert encode_message(Message("ping", {})) == line
        assert decode_message(line).type == "ping"
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", len(line) - 2)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_message(Message("ping", {}))
        with pytest.raises(ProtocolError, match="oversized"):
            decode_message(line)


@settings(max_examples=50)
@given(
    msg_type=st.sampled_from(["register", "sync", "ping", "registered",
                              "sync_ok", "pong", "error"]),
    payload=st.dictionaries(
        st.text(min_size=1, max_size=10).filter(lambda s: s != "type"),
        st.one_of(
            st.integers(min_value=-1000, max_value=1000),
            st.text(max_size=20),
            st.lists(st.text(max_size=5), max_size=5),
        ),
        max_size=5,
    ),
)
def test_property_codec_roundtrip(msg_type, payload):
    msg = Message(msg_type, payload)
    encoded = encode_message(msg)
    assert encoded == (
        json.dumps({"type": msg_type, **payload}, sort_keys=True) + "\n"
    ).encode()
    restored = decode_message(encoded)
    assert restored.type == msg.type
    assert restored.payload == payload
