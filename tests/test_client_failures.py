"""Failure injection: the client must survive flaky transports without
losing results (the disconnected-operation property of §2)."""

import pytest

from repro.client import ClientConfig, UUCSClient
from repro.errors import ProtocolError
from repro.server import InProcessTransport, Message, UUCSServer
from repro.study.testcases import task_testcases
from repro.users import make_user, sample_population


class FlakyTransport:
    """Fails the first ``failures`` requests, then delegates."""

    def __init__(self, inner, failures=1):
        self._inner = inner
        self._remaining = failures
        self.requests = 0

    def request(self, message):
        self.requests += 1
        if self._remaining > 0:
            self._remaining -= 1
            raise ProtocolError("simulated network failure")
        return self._inner.request(message)


class LyingServerTransport:
    """Returns responses that violate the protocol contract."""

    def __init__(self, responses):
        self._responses = list(responses)

    def request(self, message):
        return self._responses.pop(0)


@pytest.fixture()
def server(tmp_path):
    server = UUCSServer(tmp_path / "server", seed=1)
    server.add_testcases(task_testcases("word"))
    return server


@pytest.fixture()
def feedback():
    return make_user(sample_population(1, seed=2)[0], seed=3)


class TestTransportFailures:
    def test_failed_sync_keeps_local_results(self, tmp_path, server, feedback):
        good = InProcessTransport(server)
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), good, seed=1
        )
        client.register({})
        client.hot_sync()
        client.run_script(["word-blank-1"], feedback, task="word")
        assert len(client.results) == 1

        flaky = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"),
            FlakyTransport(good, failures=1),
            seed=1,
        )
        with pytest.raises(ProtocolError):
            flaky.hot_sync()
        # The local store still holds the run; the next sync delivers it.
        assert len(flaky.results) == 1
        _, uploaded = flaky.hot_sync()
        assert uploaded == 1
        assert len(server.results) == 1

    def test_failed_registration_leaves_no_identity(self, tmp_path, server):
        flaky = UUCSClient(
            ClientConfig(root=tmp_path / "c2", user_id="u"),
            FlakyTransport(InProcessTransport(server), failures=1),
        )
        with pytest.raises(ProtocolError):
            flaky.register({})
        assert not flaky.registered
        # Recovery: the retry succeeds and persists.
        client_id = flaky.register({})
        assert flaky.registered
        revived = UUCSClient(
            ClientConfig(root=tmp_path / "c2", user_id="u"),
            InProcessTransport(server),
        )
        assert revived.client_id == client_id


class TestProtocolViolations:
    def test_registration_without_client_id(self, tmp_path):
        lying = LyingServerTransport([Message("registered", {})])
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), lying
        )
        with pytest.raises(ProtocolError):
            client.register({})
        assert not client.registered

    def test_sync_with_partial_acceptance_keeps_results(
        self, tmp_path, server, feedback
    ):
        """A v1-style short acceptance is reconciled, not fatal: the client
        keeps its queue (no poison pill, no drain) and carries on."""
        good = InProcessTransport(server)
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), good, seed=1
        )
        client.register({})
        client.hot_sync()
        client.run_script(["word-blank-1"], feedback, task="word")
        lying = LyingServerTransport(
            [Message("sync_ok", {"testcases": [], "accepted": 0})]
        )
        client._transport = lying  # inject the misbehaving server
        downloaded, uploaded = client.hot_sync()  # must not raise
        assert uploaded == 0
        # Results were NOT drained on a bad acknowledgement...
        assert len(client.results) == 1
        # ...and the very next sync against the real server delivers them
        # exactly once (the v2 server dedupes any that did land).
        client._transport = good
        _, uploaded = client.hot_sync()
        assert uploaded == 1
        assert len(client.results) == 0
        assert len(server.results) == 1

    @pytest.mark.parametrize("bad", [b"{broken", b"[1]", b"\xff\xfe"])
    def test_corrupt_queue_degrades(self, tmp_path, server, feedback, bad):
        """A corrupt committed line fails the sync before anything is
        sent, and try_sync reports it with the queue left as it was."""
        counting = FlakyTransport(InProcessTransport(server), failures=0)
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), counting, seed=1
        )
        client.register({})
        client.hot_sync()
        client.run_script(["word-blank-1"], feedback, task="word")
        with client.results.path.open("ab") as fh:
            fh.write(bad + b"\n")
        queued = client.results.path.read_bytes()
        sent = counting.requests
        outcome = client.try_sync()
        assert not outcome.ok
        assert "results.jsonl:2" in outcome.error
        assert outcome.pending == 2
        assert counting.requests == sent
        assert client.results.path.read_bytes() == queued

    @pytest.mark.parametrize("field", ["accepted", "duplicates"])
    @pytest.mark.parametrize("bad", ["x", None, [1], True])
    def test_non_integer_count_keeps_queue(
        self, tmp_path, server, feedback, field, bad
    ):
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"),
            InProcessTransport(server),
            seed=1,
        )
        client.register({})
        client.hot_sync()
        client.run_script(["word-blank-1"], feedback, task="word")
        queued = client.results.path.read_bytes()
        reply = {
            "testcases": [],
            "accepted": 1,
            "duplicates": 0,
            "sync_seq": client.acked_seq + 1,
            field: bad,
        }
        client._transport = LyingServerTransport([Message("sync_ok", reply)])
        outcome = client.try_sync()
        assert not outcome.ok
        assert f"'{field}'" in outcome.error
        assert outcome.pending == 1
        assert client.results.path.read_bytes() == queued

    def test_error_response_surfaced(self, tmp_path):
        lying = LyingServerTransport([Message.error("database on fire")])
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), lying
        )
        with pytest.raises(ProtocolError, match="database on fire"):
            client.register({})

    def test_malformed_testcase_download_rejected(
        self, tmp_path, server
    ):
        good = InProcessTransport(server)
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), good, seed=1
        )
        client.register({})
        lying = LyingServerTransport(
            [Message("sync_ok", {"testcases": ["garbage"], "accepted": 0})]
        )
        client._transport = lying
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            client.hot_sync()
        # The store was not polluted with a partial testcase.
        assert len(client.testcases) == 0
