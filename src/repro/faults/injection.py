"""Seeded fault injection at the transport seam.

:class:`FaultPlan` is a bundle of probability knobs, one per fault kind;
:class:`FaultInjectingTransport` wraps any client transport and rolls the
plan's dice — in a fixed order, from one seeded RNG — around every
request.  The same seed therefore produces the same fault schedule, which
is what lets the chaos soak tests assert exact outcomes ("the merged
store equals the fault-free store") instead of statistical ones.

Fault kinds and what they model:

========================  ====================================================
``drop_request``          the request never reaches the server
``disconnect``            the connection dies before the request is sent
``duplicate``             the request is delivered twice (server must dedupe)
``drop_response``         the server handled the request but the ack was lost
``truncate``              the response line was cut mid-byte
``corrupt``               the response line was damaged in flight
``delay``                 the exchange stalls for ``delay_s`` seconds first
========================  ====================================================

``drop_response`` after a ``sync`` is the poison scenario: the server
has already committed the uploads, the client never sees the ack, and a
naive retry would double-count every result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping

from repro.errors import TransportError, ValidationError
from repro.server.protocol import Message, Transport
from repro.telemetry import Telemetry, get_telemetry
from repro.util.rng import SeedLike, ensure_rng

__all__ = ["ChaosPlan", "FaultDice", "FaultInjectingTransport", "FaultPlan"]


class ChaosPlan:
    """The spec grammar and range check every chaos plan shares.

    A plan is a frozen dataclass whose knobs are the fields named in
    ``PROBABILITIES`` (each in [0, 1]) and ``AMOUNTS`` (each >= 0);
    ``ALIASES`` maps its other spec keys to knobs.
    """

    PROBABILITIES: ClassVar[tuple[str, ...]]
    AMOUNTS: ClassVar[tuple[str, ...]]
    ALIASES: ClassVar[Mapping[str, str]]

    def __post_init__(self) -> None:
        for name in self.PROBABILITIES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"fault probability {name} must be in [0, 1], got {value}"
                )
        for name in self.AMOUNTS:
            value = getattr(self, name)
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")

    @property
    def active(self) -> bool:
        """Whether any probability knob is turned up at all."""
        return any(getattr(self, knob) > 0.0 for knob in self.PROBABILITIES)

    @classmethod
    def parse(cls, spec: str, **fixed: object):
        """Build a plan from a CLI spec like ``"drop=0.2,dup=0.1"``.

        Comma-separated ``KEY=VALUE`` entries naming knobs or aliases;
        ``all=P`` sets every probability knob, and a later entry wins.
        A knob whose default is an integer stays an integer.  ``fixed``
        passes constructor arguments that are not knobs (a shard plan's
        ``seed``).
        """
        knobs = cls.PROBABILITIES + cls.AMOUNTS
        values: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip().lower()
            name = cls.ALIASES.get(key, key)
            if not sep:
                raise ValidationError(
                    f"chaos spec entries need KEY=VALUE, got {part!r}"
                )
            if name != "all" and name not in knobs:
                valid = sorted({*knobs, *cls.ALIASES, "all"})
                raise ValidationError(
                    f"unknown chaos knob {key!r} (valid: {', '.join(valid)})"
                )
            try:
                value = float(raw)
                for knob in cls.PROBABILITIES if name == "all" else (name,):
                    # The class attribute is the field's default.
                    values[knob] = type(getattr(cls, knob))(value)
            except (ValueError, OverflowError) as exc:
                raise ValidationError(
                    f"chaos knob {key!r} needs a number, got {raw!r}"
                ) from exc
        return cls(**fixed, **values)


@dataclass(frozen=True)
class FaultPlan(ChaosPlan):
    """Per-request fault probabilities (all default to 0 = no faults).

    Spec aliases: ``drop`` (``drop_request``), ``drop-ack``
    (``drop_response``) and ``dup`` (``duplicate``).
    """

    PROBABILITIES = (
        "drop_request", "drop_response", "duplicate",
        "corrupt", "truncate", "disconnect", "delay",
    )
    AMOUNTS = ("delay_s",)
    ALIASES = {"drop": "drop_request", "drop-ack": "drop_response", "dup": "duplicate"}

    drop_request: float = 0.0
    drop_response: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    truncate: float = 0.0
    disconnect: float = 0.0
    delay: float = 0.0
    #: Seconds a ``delay`` fault stalls the exchange.
    delay_s: float = 0.05


class FaultDice:
    """One fault injector's seeded dice and its record of what fired.

    Every :meth:`roll` draws, fire or not, so turning one knob to zero
    never shifts the others' draws.  A fault that fires is counted in
    :attr:`injected` and ``uucs_faults_injected_total{kind}``, and
    emitted as a ``fault.injected`` event.
    """

    def __init__(self, seed: SeedLike = None, telemetry: Telemetry | None = None):
        self._rng = ensure_rng(seed)
        self._telemetry = telemetry
        #: Injected-fault counts by kind.
        self.injected: dict[str, int] = {}

    def roll(self, probability: float, kind: str, **fields: object) -> bool:
        """Draw once; fire (record, return True) when the draw is under
        ``probability``.  ``fields`` go into the event."""
        if float(self._rng.random()) >= probability:
            return False
        self.injected[kind] = self.injected.get(kind, 0) + 1
        telemetry = (
            self._telemetry if self._telemetry is not None else get_telemetry()
        )
        if telemetry.enabled:
            telemetry.metrics.counter(
                "uucs_faults_injected_total",
                "Faults injected by the chaos transport or proxy, by kind.",
                labelnames=("kind",),
            ).inc(kind=kind)
            telemetry.emit("fault.injected", kind=kind, **fields)
        return True


class FaultInjectingTransport:
    """Wrap a transport with seeded, probabilistic fault injection.

    The dice rolls happen in a fixed order (delay, drop_request,
    disconnect, duplicate, drop_response, truncate, corrupt), and a knob
    at zero is still rolled, so a given seed always yields the same
    schedule regardless of which faults are enabled.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        seed: SeedLike = None,
        telemetry: Telemetry | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._inner = inner
        self._plan = plan
        self._dice = FaultDice(seed, telemetry)
        self._sleep = sleep
        #: Injected-fault counts by kind (observable).
        self.injected = self._dice.injected

    def request(self, message: Message) -> Message:
        plan = self._plan
        roll = self._dice.roll
        msg_type = message.type
        if roll(plan.delay, "delay", type=msg_type) and plan.delay_s > 0.0:
            self._sleep(plan.delay_s)
        if roll(plan.drop_request, "drop_request", type=msg_type):
            raise TransportError("injected fault: request dropped")
        if roll(plan.disconnect, "disconnect", type=msg_type):
            self.close()
            raise TransportError("injected fault: connection dropped")
        if roll(plan.duplicate, "duplicate", type=msg_type):
            self._inner.request(message)  # first delivery's response lost
        response = self._inner.request(message)
        if roll(plan.drop_response, "drop_response", type=msg_type):
            raise TransportError(
                "injected fault: response dropped (server committed, ack lost)"
            )
        if roll(plan.truncate, "truncate", type=msg_type):
            raise TransportError("injected fault: response truncated")
        if roll(plan.corrupt, "corrupt", type=msg_type):
            raise TransportError("injected fault: response corrupted")
        return response

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "FaultInjectingTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
