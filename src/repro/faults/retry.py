"""Retrying transport: deadlines, capped backoff, seeded jitter, budgets.

:class:`RetryingTransport` wraps any client transport and resends
requests that fail with :class:`~repro.errors.TransportError` — the
carrier-level failures where the request may or may not have reached the
server.  Resending is safe because hot sync is idempotent (``sync_seq``
plus server-side run-id dedupe); everything else the client sends
(``register``, ``ping``) is naturally repeatable.

Backoff is capped exponential with *seeded* jitter: the delay sequence is
a pure function of the policy and the RNG seed, so a faulty run replays
byte-for-byte under the same seed — the property the fault-injection
equivalence tests lean on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import TransportError, ValidationError
from repro.server.protocol import Message, Transport
from repro.telemetry import Telemetry, get_telemetry
from repro.util.rng import SeedLike, ensure_rng

__all__ = ["RetryPolicy", "RetryingTransport"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving a request up."""

    #: Total tries per request (first attempt included).
    max_attempts: int = 4
    #: First backoff, seconds; doubles (``multiplier``) up to ``max_delay``.
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each backoff randomized away (0 = fixed, 1 = full
    #: jitter).  Jitter draws come from the transport's seeded RNG.
    jitter: float = 0.5
    #: Per-request wall-clock deadline, seconds: no retry is attempted if
    #: its backoff would land past the deadline.
    deadline: float = 30.0
    #: Total retries allowed over the transport's lifetime.  A global
    #: budget keeps a persistently dark server from turning every request
    #: into ``max_attempts`` slow failures forever.
    retry_budget: int = 64

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValidationError(
                "need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}..{self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ValidationError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline <= 0:
            raise ValidationError(f"deadline must be positive, got {self.deadline}")
        if self.retry_budget < 0:
            raise ValidationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    def backoff(self, failures: int, rng) -> float:
        """Delay before the retry following the ``failures``-th failure."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (failures - 1)
        )
        if self.jitter > 0.0:
            delay *= 1.0 - self.jitter * float(rng.random())
        return delay


class RetryingTransport:
    """Wrap a transport with per-request retries under a global budget."""

    def __init__(
        self,
        inner: Transport,
        policy: RetryPolicy | None = None,
        seed: SeedLike = None,
        telemetry: Telemetry | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._inner = inner
        self._policy = policy if policy is not None else RetryPolicy()
        self._rng = ensure_rng(seed)
        self._telemetry = telemetry
        self._sleep = sleep
        self._clock = clock
        self._budget_left = self._policy.retry_budget
        #: Retries performed over this transport's lifetime (observable).
        self.retries = 0
        #: Requests abandoned after exhausting attempts/deadline/budget.
        self.give_ups = 0

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry if self._telemetry is not None else get_telemetry()

    @property
    def budget_left(self) -> int:
        return self._budget_left

    def request(self, message: Message) -> Message:
        policy = self._policy
        started = self._clock()
        failures = 0
        while True:
            try:
                return self._inner.request(message)
            except TransportError as exc:
                failures += 1
                reason = ""
                if failures >= policy.max_attempts:
                    reason = f"attempts exhausted ({policy.max_attempts})"
                elif self._budget_left <= 0:
                    reason = "retry budget exhausted"
                delay = 0.0
                if not reason:
                    delay = policy.backoff(failures, self._rng)
                    if self._clock() - started + delay > policy.deadline:
                        reason = f"deadline exceeded ({policy.deadline:g}s)"
                if reason:
                    self._give_up(message, failures, reason, exc)
                    raise
                self._retry(message, failures, delay, exc)
                if delay > 0.0:
                    self._sleep(delay)

    def _retry(
        self, message: Message, failures: int, delay: float, exc: TransportError
    ) -> None:
        self._budget_left -= 1
        self.retries += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(
                "uucs_client_retries_total",
                "Requests resent after a transport failure, by request type.",
                labelnames=("type",),
            ).inc(type=message.type)
            telemetry.emit(
                "client.retry",
                type=message.type,
                attempt=failures,
                delay_s=delay,
                error=str(exc),
            )

    def _give_up(
        self, message: Message, failures: int, reason: str, exc: TransportError
    ) -> None:
        self.give_ups += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(
                "uucs_client_give_ups_total",
                "Requests abandoned after retries, by request type.",
                labelnames=("type",),
            ).inc(type=message.type)
            telemetry.emit(
                "client.give_up",
                type=message.type,
                attempts=failures,
                reason=reason,
                error=str(exc),
            )

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "RetryingTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
