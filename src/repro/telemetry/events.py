"""Structured event logging (JSON lines).

The paper's UUCS ran unattended for months against ~100 Internet hosts;
operating such a deployment requires a durable, machine-parseable record
of what the system did.  This module provides that record as a stream of
:class:`Event` values — one JSON object per line — behind a tiny sink
abstraction:

* :class:`NullSink` — the default; library use stays completely silent
  and no file is ever created;
* :class:`JsonLinesSink` — appends one JSON line per event to a file,
  each line one unbuffered write;
* :class:`MemorySink` — an in-process buffer for tests and summaries.

Events are *seeded-run-safe*: nothing here draws randomness, and
timestamps come from an injectable clock, so enabling the event log can
never perturb a seeded simulation.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Protocol, runtime_checkable

from repro.errors import SerializationError, StoreError

__all__ = [
    "Event",
    "EventLog",
    "EventSink",
    "JsonLinesSink",
    "MemorySink",
    "NullSink",
    "read_events",
    "read_events_lenient",
]

#: JSON-serializable field value.
FieldValue = object


@dataclass(frozen=True)
class Event:
    """One structured event: a name, a timestamp, and flat fields."""

    #: Dotted event name, e.g. ``"client.hot_sync"`` or ``"span"``.
    name: str
    #: Seconds since the epoch (or since an arbitrary origin under an
    #: injected clock).
    ts: float
    #: Flat mapping of event-specific fields.
    fields: Mapping[str, FieldValue] = field(default_factory=dict)

    def to_json(self) -> str:
        """Render the event as one compact JSON line (no trailing newline)."""
        try:
            return json.dumps(
                {"event": self.name, "ts": self.ts, "fields": dict(self.fields)},
                sort_keys=True,
                default=str,
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"unserializable event {self.name!r}: {exc}")

    @classmethod
    def from_json(cls, line: str) -> "Event":
        """Parse one JSON line back into an :class:`Event`."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"bad event line: {exc}")
        if not isinstance(record, dict) or "event" not in record:
            raise SerializationError(f"event line lacks an 'event' key: {line!r}")
        fields = record.get("fields", {})
        if not isinstance(fields, dict):
            raise SerializationError("event 'fields' must be an object")
        return cls(
            name=str(record["event"]),
            ts=float(record.get("ts", 0.0)),
            fields=fields,
        )


@runtime_checkable
class EventSink(Protocol):
    """Anything that can receive emitted events."""

    def emit(self, event: Event) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """Discards everything; the default so library use stays silent."""

    def emit(self, event: Event) -> None:
        """Drop the event."""

    def close(self) -> None:
        """Nothing to release."""


class MemorySink:
    """Buffers events in memory (tests, ad-hoc summaries)."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        """Nothing to release; the buffer stays readable."""

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(list(self.events))


class JsonLinesSink:
    """Appends one JSON line per event to ``path``.

    Each line is one unbuffered append made under the sink's lock, so no
    event waits in a buffer: ``close`` has nothing to flush, and a crash
    tears at most the line being written (readers skip a torn tail).  A
    write that fails, on a full disk say, drops its event; the first
    failure is reported once on stderr, so telemetry trouble never
    raises into the program it observes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file: BinaryIO | None = self.path.open("ab", buffering=0)
        except OSError as exc:
            raise StoreError(
                f"cannot open event log {self.path}: {exc}"
            ) from exc
        self._lock = threading.Lock()
        self._failed = False

    def emit(self, event: Event) -> None:
        line = memoryview((event.to_json() + "\n").encode())
        with self._lock:
            if self._file is None:
                return
            try:
                while line:  # a raw write may take only part of the line
                    line = line[self._file.write(line):]
            except OSError as exc:
                if not self._failed:
                    self._failed = True
                    print(
                        f"warning: cannot write event log {self.path}: "
                        f"{exc}; dropping events",
                        file=sys.stderr,
                        flush=True,
                    )

    def close(self) -> None:
        """Close the file (idempotent); later events are dropped."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class EventLog:
    """The emitter instrumented code talks to.

    ``emit`` is a no-op with a :class:`NullSink` attached; with a real
    sink it stamps the event with the configured clock and forwards it.
    """

    def __init__(
        self,
        sink: EventSink | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self._sink = sink if sink is not None else NullSink()
        self._clock = clock

    @property
    def sink(self) -> EventSink:
        return self._sink

    @property
    def enabled(self) -> bool:
        """Whether emitted events go anywhere."""
        return not isinstance(self._sink, NullSink)

    def emit(self, name: str, **fields: FieldValue) -> None:
        """Record one event (silently dropped when disabled)."""
        if not self.enabled:
            return
        self._sink.emit(Event(name=name, ts=self._clock(), fields=fields))

    def close(self) -> None:
        self._sink.close()


def _read(
    source: str | Path | Iterable[str], problems: list[str] | None
) -> list[Event]:
    """The readers' one loop.  Blank lines are skipped.  A file that
    cannot be read or a malformed line raises, or, given ``problems``,
    is noted there and skipped."""
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            if problems is None:
                raise StoreError(f"cannot read event log {source}: {exc}")
            problems.append(f"cannot read event log {source}: {exc}")
            return []
        lines: Iterable[str] = text.splitlines()
    else:
        lines = source
    events: list[Event] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(Event.from_json(line))
        except SerializationError as exc:
            if problems is None:
                raise SerializationError(f"line {lineno}: {exc}")
            problems.append(f"line {lineno}: skipped ({exc})")
    return events


def read_events(source: str | Path | Iterable[str]) -> list[Event]:
    """Load a JSON-lines event log (path or iterable of lines).

    Blank lines are skipped; malformed lines raise
    :class:`~repro.errors.SerializationError` naming the line number.
    """
    return _read(source, None)


def read_events_lenient(
    source: str | Path | Iterable[str],
) -> tuple[list[Event], list[str]]:
    """Best-effort load of a possibly damaged JSON-lines event log.

    Where :func:`read_events` raises, this skips: a missing or
    unreadable file yields no events, and malformed lines (e.g. a tail
    truncated by a crashed writer) are dropped individually.  Returns
    ``(events, problems)`` where ``problems`` holds one human-readable
    string per skipped item, for the caller to surface as warnings.
    """
    problems: list[str] = []
    return _read(source, problems), problems
