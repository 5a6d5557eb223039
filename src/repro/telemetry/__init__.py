"""Telemetry for the UUCS reproduction: events, metrics, and tracing.

Three pillars, each usable alone, bundled by the :class:`Telemetry`
facade that instrumented code talks to:

* structured events — :mod:`repro.telemetry.events` (JSON lines);
* a metrics registry — :mod:`repro.telemetry.metrics`
  (counters/gauges/histograms with Prometheus-style exposition);
* span tracing — :mod:`repro.telemetry.tracing` (nested timed regions).

The module-level default is *disabled*: every hot path guards its
instrumentation with ``if telemetry.enabled``, so library use costs one
attribute check per run/request and produces no files.  Nothing in this
package draws randomness — enabling telemetry cannot perturb a seeded
study (asserted by ``tests/test_telemetry_equivalence.py``).

Enable it either by installing a process-wide hub::

    from repro.telemetry import Telemetry, use_telemetry

    with use_telemetry(Telemetry.to_path("run.events.jsonl")) as tel:
        run_controlled_study(...)
    print(tel.metrics.render())

or by handing a :class:`Telemetry` instance directly to the components
that accept one (:class:`~repro.server.server.UUCSServer`,
:class:`~repro.client.client.UUCSClient`,
:class:`~repro.throttle.controller.FeedbackController`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, ContextManager, Iterator

from repro.telemetry.aggregate import (
    ClientRollup,
    ClientRollups,
    HistorySample,
    fetch_clients,
    fetch_fleet,
    fetch_history,
    fetch_snapshot,
    push_snapshot,
)
from repro.telemetry.events import (
    Event,
    EventLog,
    EventSink,
    JsonLinesSink,
    MemorySink,
    NullSink,
    read_events,
    read_events_lenient,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_snapshot,
    quantile_from_buckets,
)
from repro.telemetry.tracing import Span, TraceContext, Tracer, process_guid

__all__ = [
    "ClientRollup",
    "ClientRollups",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "EventSink",
    "Family",
    "Gauge",
    "Histogram",
    "HistorySample",
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "Span",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "check_snapshot",
    "fetch_clients",
    "fetch_fleet",
    "fetch_history",
    "fetch_snapshot",
    "get_telemetry",
    "process_guid",
    "push_snapshot",
    "quantile_from_buckets",
    "read_events",
    "read_events_lenient",
    "set_telemetry",
    "use_telemetry",
]


class _NullSpan:
    """Stands in for a :class:`Span` when telemetry is disabled."""

    __slots__ = ()

    #: No position to propagate; callers guard with ``telemetry.enabled``
    #: but an unguarded read must degrade to "no parent", not crash.
    context = None

    def annotate(self, **fields: object) -> None:
        """Drop the fields."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Bundle of an event log, a metrics registry, and a tracer.

    ``enabled`` is the single switch instrumented code checks; a
    disabled hub still exposes working (but unused) components so test
    code never needs None-guards.
    """

    def __init__(
        self,
        events: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
        enabled: bool = True,
        span_clock: Callable[[], float] = time.perf_counter,
        tracer_guid: str | None = None,
    ):
        self.events = events if events is not None else EventLog()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(self.events, clock=span_clock, guid=tracer_guid)
        self._enabled = bool(enabled)

    @property
    def enabled(self) -> bool:
        """Whether instrumentation should record anything at all."""
        return self._enabled

    # -- construction shortcuts -------------------------------------------

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A silent hub (the process-wide default)."""
        return cls(enabled=False)

    @classmethod
    def to_path(
        cls,
        path: str | Path,
        clock: Callable[[], float] = time.time,
        tracer_guid: str | None = None,
    ) -> "Telemetry":
        """An enabled hub writing its event log to ``path`` (JSON lines).

        ``tracer_guid`` overrides the span-id namespace (see
        :class:`~repro.telemetry.tracing.Tracer`); shard workers use it
        to keep each shard's spans distinct even when one pooled worker
        process serves several shards.
        """
        return cls(
            events=EventLog(JsonLinesSink(path), clock=clock),
            tracer_guid=tracer_guid,
        )

    @classmethod
    def in_memory(cls, clock: Callable[[], float] = time.time) -> "Telemetry":
        """An enabled hub buffering events in a :class:`MemorySink`."""
        return cls(events=EventLog(MemorySink(), clock=clock))

    # -- convenience passthroughs ------------------------------------------

    def emit(self, name: str, **fields: object) -> None:
        """Emit a structured event (no-op when disabled)."""
        if self._enabled:
            self.events.emit(name, **fields)

    def span(
        self,
        name: str,
        parent_context: TraceContext | None = None,
        **fields: object,
    ) -> ContextManager[object]:
        """A timed span context manager (shared no-op when disabled).

        ``parent_context`` grafts the span under a remote parent from
        another process (see :meth:`Tracer.span`).
        """
        if not self._enabled:
            return _NULL_SPAN
        return self.tracer.span(name, parent_context=parent_context, **fields)

    def close(self) -> None:
        """Flush and release the event sink."""
        self.events.close()


_DISABLED = Telemetry.disabled()
_active = _DISABLED
_active_lock = threading.Lock()


def get_telemetry() -> Telemetry:
    """The process-wide telemetry hub (disabled unless installed)."""
    return _active


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` process-wide; returns the previous hub.

    ``None`` restores the silent default.
    """
    global _active
    with _active_lock:
        previous = _active
        _active = telemetry if telemetry is not None else _DISABLED
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` for the duration of a ``with`` block.

    Restores the previous hub and closes ``telemetry``'s sink on exit.
    """
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
        telemetry.close()
