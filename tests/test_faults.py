"""Tests for the resilience layer: retry policy, fault injection, and
seeded fault/no-fault equivalence of the sync pipeline."""

import pytest

from repro.client import ClientConfig, UUCSClient
from repro.errors import ProtocolError, TransportError, ValidationError
from repro.faults import (
    FaultInjectingTransport,
    FaultPlan,
    RetryingTransport,
    RetryPolicy,
)
from repro.server import InProcessTransport, Message, UUCSServer
from repro.study.testcases import task_testcases
from repro.telemetry import Telemetry
from repro.users import make_user, sample_population


class FlakyTransport:
    """Fails the first ``failures`` requests with TransportError."""

    def __init__(self, inner, failures):
        self._inner = inner
        self._remaining = failures
        self.requests = 0

    def request(self, message):
        self.requests += 1
        if self._remaining > 0:
            self._remaining -= 1
            raise TransportError("simulated line drop")
        return self._inner.request(message)


class DeadTransport:
    def request(self, message):
        raise TransportError("nothing out there")


class EchoTransport:
    def request(self, message):
        return Message("pong", {})


def no_sleep(_):
    pass


@pytest.fixture()
def server(tmp_path):
    server = UUCSServer(tmp_path / "server", seed=1)
    server.add_testcases(task_testcases("word"))
    return server


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(retry_budget=-1)

    def test_backoff_caps_and_grows(self):
        import numpy as np

        policy = RetryPolicy(
            base_delay=0.1, max_delay=0.4, multiplier=2.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_is_seed_deterministic(self):
        import numpy as np

        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        a = [policy.backoff(n, np.random.default_rng(7)) for n in (1, 2)]
        b = [policy.backoff(n, np.random.default_rng(7)) for n in (1, 2)]
        assert a == b
        # Jitter only ever shortens the deterministic backoff.
        assert all(0.05 <= d <= 0.1 for d in a[:1])


class TestRetryingTransport:
    def test_retries_until_success(self):
        flaky = FlakyTransport(EchoTransport(), failures=2)
        transport = RetryingTransport(
            flaky, RetryPolicy(max_attempts=4, base_delay=0.0), seed=1,
            sleep=no_sleep,
        )
        assert transport.request(Message("ping", {})).type == "pong"
        assert flaky.requests == 3
        assert transport.retries == 2
        assert transport.give_ups == 0

    def test_gives_up_after_max_attempts(self):
        transport = RetryingTransport(
            DeadTransport(), RetryPolicy(max_attempts=3, base_delay=0.0),
            seed=1, sleep=no_sleep,
        )
        with pytest.raises(TransportError):
            transport.request(Message("ping", {}))
        assert transport.give_ups == 1
        assert transport.retries == 2  # 3 attempts = 2 retries

    def test_lifetime_retry_budget(self):
        transport = RetryingTransport(
            DeadTransport(),
            RetryPolicy(max_attempts=10, base_delay=0.0, retry_budget=3),
            seed=1, sleep=no_sleep,
        )
        with pytest.raises(TransportError):
            transport.request(Message("ping", {}))
        assert transport.budget_left == 0
        # The next request gets no retries at all: one attempt, then out.
        with pytest.raises(TransportError):
            transport.request(Message("ping", {}))
        assert transport.retries == 3

    def test_deadline_stops_retrying(self):
        clock = {"now": 0.0}

        def fake_clock():
            return clock["now"]

        def fake_sleep(dt):
            clock["now"] += dt

        transport = RetryingTransport(
            DeadTransport(),
            RetryPolicy(
                max_attempts=100, base_delay=1.0, max_delay=1.0,
                jitter=0.0, deadline=2.5,
            ),
            seed=1, sleep=fake_sleep, clock=fake_clock,
        )
        with pytest.raises(TransportError):
            transport.request(Message("ping", {}))
        # 1s + 1s backoffs fit the 2.5s deadline; the third would not.
        assert transport.retries == 2

    def test_non_transport_errors_pass_through(self):
        class Broken:
            def request(self, message):
                raise ProtocolError("semantically wrong, not transient")

        transport = RetryingTransport(Broken(), seed=1, sleep=no_sleep)
        with pytest.raises(ProtocolError):
            transport.request(Message("ping", {}))
        assert transport.retries == 0

    def test_telemetry_counters_and_events(self):
        telemetry = Telemetry.in_memory()
        flaky = FlakyTransport(EchoTransport(), failures=1)
        transport = RetryingTransport(
            flaky, RetryPolicy(base_delay=0.0), seed=1,
            telemetry=telemetry, sleep=no_sleep,
        )
        transport.request(Message("ping", {}))
        counter = telemetry.metrics.counter(
            "uucs_client_retries_total", labelnames=("type",)
        )
        assert counter.value(type="ping") == 1
        names = [e.name for e in telemetry.events.sink.events]
        assert "client.retry" in names

    def test_give_up_event(self):
        telemetry = Telemetry.in_memory()
        transport = RetryingTransport(
            DeadTransport(), RetryPolicy(max_attempts=2, base_delay=0.0),
            seed=1, telemetry=telemetry, sleep=no_sleep,
        )
        with pytest.raises(TransportError):
            transport.request(Message("ping", {}))
        names = [e.name for e in telemetry.events.sink.events]
        assert "client.give_up" in names


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultPlan(drop_request=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(delay_s=-1.0)
        assert not FaultPlan().active
        assert FaultPlan(duplicate=0.1).active

    def test_parse(self):
        plan = FaultPlan.parse("drop=0.2, dup=0.1, drop-ack=0.3, delay_s=2")
        assert plan.drop_request == 0.2
        assert plan.duplicate == 0.1
        assert plan.drop_response == 0.3
        assert plan.delay_s == 2.0

    def test_parse_all(self):
        plan = FaultPlan.parse("all=0.25")
        assert plan.drop_request == plan.disconnect == plan.corrupt == 0.25

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            FaultPlan.parse("warp=0.5")
        with pytest.raises(ValidationError):
            FaultPlan.parse("drop")
        with pytest.raises(ValidationError):
            FaultPlan.parse("drop=lots")


class TestFaultInjectingTransport:
    def test_zero_plan_is_transparent(self):
        transport = FaultInjectingTransport(EchoTransport(), FaultPlan(), seed=1)
        for _ in range(50):
            assert transport.request(Message("ping", {})).type == "pong"
        assert transport.injected == {}

    def test_schedule_is_seed_deterministic(self):
        plan = FaultPlan(drop_request=0.3, drop_response=0.3, duplicate=0.3)

        def run(seed):
            transport = FaultInjectingTransport(
                EchoTransport(), plan, seed=seed, sleep=no_sleep
            )
            outcomes = []
            for _ in range(40):
                try:
                    transport.request(Message("ping", {}))
                    outcomes.append("ok")
                except TransportError as exc:
                    outcomes.append(str(exc))
            return outcomes, dict(transport.injected)

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_zero_knob_still_draws(self):
        """A knob at zero still rolls its die, so turning ``duplicate``
        off leaves the ``drop_response`` schedule where it was."""

        def drops(plan):
            transport = FaultInjectingTransport(EchoTransport(), plan, seed=5)
            outcomes = []
            for _ in range(60):
                try:
                    transport.request(Message("ping", {}))
                    outcomes.append(False)
                except TransportError:
                    outcomes.append(True)
            return outcomes

        both = drops(FaultPlan(drop_response=0.3, duplicate=0.5))
        assert any(both) and not all(both)
        assert drops(FaultPlan(drop_response=0.3)) == both

    def test_drop_response_commits_server_side(self, tmp_path, server):
        """The canonical lost-ack: the sync landed, the ack did not."""
        inner = InProcessTransport(server)
        transport = FaultInjectingTransport(
            inner, FaultPlan(drop_response=1.0), seed=1
        )
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), inner, seed=1
        )
        client.register({})
        client.hot_sync()
        feedback = make_user(sample_population(1, seed=2)[0], seed=3)
        client.run_script(["word-blank-1"], feedback, task="word")
        client._transport = transport
        with pytest.raises(TransportError):
            client.hot_sync()
        # Server committed, client still queued: exactly the state the
        # idempotent retry must untangle.
        assert len(server.results) == 1
        assert len(client.results) == 1
        client._transport = inner
        _, uploaded = client.hot_sync()
        assert uploaded == 1
        assert len(client.results) == 0
        assert len(server.results) == 1  # no duplicate from the replay

    def test_duplicate_delivery_deduped(self, tmp_path, server):
        inner = InProcessTransport(server)
        transport = FaultInjectingTransport(
            inner, FaultPlan(duplicate=1.0), seed=1
        )
        client = UUCSClient(
            ClientConfig(root=tmp_path / "c", user_id="u"), inner, seed=1
        )
        client.register({})
        client.hot_sync()
        feedback = make_user(sample_population(1, seed=2)[0], seed=3)
        client.run_script(["word-blank-1"], feedback, task="word")
        client._transport = transport
        client.hot_sync()  # request delivered twice; store must hold one
        run_ids = [r.run_id for r in server.results]
        assert len(run_ids) == 1


def _run_fleet(tmp_path, faulted, seed=77, n_clients=3, runs_each=8):
    """Drive a small fleet; return (server run_ids list, client GUID map)."""
    from repro.util.rng import derive_rng

    server = UUCSServer(tmp_path / "server", seed=derive_rng(seed, "srv"))
    server.add_testcases(task_testcases("word"))
    all_expected = []
    for index in range(n_clients):
        rng = derive_rng(seed, "client", index)
        inner = InProcessTransport(server)
        if faulted:
            chaotic = FaultInjectingTransport(
                inner,
                FaultPlan(
                    drop_request=0.25, drop_response=0.25,
                    duplicate=0.25, disconnect=0.1,
                ),
                seed=derive_rng(seed, "chaos", index),
                sleep=no_sleep,
            )
            transport = RetryingTransport(
                chaotic,
                RetryPolicy(max_attempts=16, base_delay=0.0, retry_budget=10_000),
                seed=derive_rng(seed, "retry", index),
                sleep=no_sleep,
            )
        else:
            transport = inner
        client = UUCSClient(
            ClientConfig(root=tmp_path / f"c{faulted}-{index}", user_id=f"u{index}"),
            transport,
            seed=rng,
        )
        client.register({})
        client.hot_sync()
        feedback = make_user(
            sample_population(1, seed=derive_rng(seed, "pop", index))[0],
            seed=derive_rng(seed, "fb", index),
        )
        for _ in range(runs_each):
            run = client.run_script(["word-blank-1"], feedback, task="word")[0]
            all_expected.append(run.run_id)
            client.try_sync()
        # Reconcile whatever chaos left queued.
        for _ in range(50):
            if not len(client.results):
                break
            client.try_sync()
        assert len(client.results) == 0
    return [r.run_id for r in server.results], all_expected


class TestFaultEquivalence:
    def test_faulted_store_equals_fault_free_store(self, tmp_path):
        """Under seeded chaos, the merged result store ends up exactly the
        fault-free set of run_ids: no duplicates, no losses."""
        clean_ids, clean_expected = _run_fleet(tmp_path / "clean", faulted=False)
        chaos_ids, chaos_expected = _run_fleet(tmp_path / "chaos", faulted=True)
        # The clients are seed-identical, so both fleets produced the
        # same runs...
        assert sorted(clean_expected) == sorted(chaos_expected)
        # ...and both stores hold each exactly once.
        assert len(chaos_ids) == len(set(chaos_ids))
        assert sorted(chaos_ids) == sorted(clean_ids) == sorted(clean_expected)
