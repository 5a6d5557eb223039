"""Metrics endpoint, push gateway, and fleet dashboard over TCP
(``uucs serve --metrics-port``, ``uucs dashboard``).

Runs on the shared :class:`~repro.net.listener.AsyncioListener`: one
event-loop thread and a coroutine per connection, ``/stream`` readers
included.  Both raw TCP peers (``nc host port``) and HTTP clients work:
a bare connection (or any non-HTTP first line) receives one plain
exposition and is closed; HTTP requests are routed by path:

* ``GET /`` — the self-contained live fleet dashboard page
  (:mod:`repro.telemetry.webpage`; plain exposition instead when the
  web layer is disabled with ``web=False``);
* ``GET /metrics`` — Prometheus-style exposition of the **fleet
  view**: the local registry federated with the latest pushed snapshot
  of every non-evicted client (counter-sum / gauge-last /
  histogram-bucket-add, see
  :meth:`~repro.telemetry.metrics.MetricsRegistry.merge`);
* ``GET /snapshot`` — the same fleet view as a JSON snapshot dict
  (what ``uucs top`` polls);
* ``GET /clients`` — per-client server rollups as a JSON list,
  annotated with push-gateway liveness (``age_s``/``stale``/
  ``evicted``);
* ``GET /fleet`` — the fleet observability view: totals, per-client
  comfort-headroom rows, the discomfort-event feed, and live study
  progress (:mod:`repro.telemetry.web`);
* ``GET /history`` — per-client sparkline timeseries from the
  :class:`~repro.telemetry.aggregate.ClientRollups` ring buffers;
* ``GET /stream`` — Server-Sent Events: a ``hello`` frame with the
  full fleet view, then one ``push`` frame per ``/push`` carrying that
  client's updated row and any new discomfort events;
* ``POST /push`` — the push gateway: body
  ``{"client_id": ..., "snapshot": {...}}`` replaces that client's
  contribution to the fleet view;
* anything else — ``404``.

All JSON endpoints reply ``application/json; charset=utf-8`` with a
byte-accurate ``Content-Length``; every route answers ``HEAD``
without a body.

Liveness: a client whose last push is older than ``stale_after``
seconds is flagged stale (shown, but marked) and one older than
``evict_after`` is evicted — dropped from fleet aggregates entirely —
so a crashed client cannot freeze its gauges into the fleet view
forever.  Timestamps come from an injectable monotonic ``clock`` so
tests can script the passage of time.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Mapping

from repro.errors import ValidationError
from repro.net.listener import AsyncioListener
from repro.telemetry import web as _web
from repro.telemetry.aggregate import ClientRollups
from repro.telemetry.metrics import Family, MetricsRegistry, Shape, check_snapshot
from repro.telemetry.webpage import render_page

__all__ = ["MetricsExporter"]

_TEXT = "text/plain; version=0.0.4; charset=utf-8"
_JSON = "application/json; charset=utf-8"
_HTML = "text/html; charset=utf-8"
_SSE = "text/event-stream"
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}

#: Largest accepted ``POST /push`` body (a fleet client's snapshot).
_MAX_PUSH_BYTES = 8 * 1024 * 1024

#: Discomfort-feed entries retained for ``/fleet`` (the SSE stream is
#: the lossless path; the feed is a recent-events convenience).
_FEED_CAPACITY = 100

#: A request arrives whole within this or not at all: a peer that sends
#: no HTTP request in time is a raw-TCP scraper.
_REQUEST_WAIT_S = 0.5
#: Seconds between SSE keepalive comments when no pushes arrive.
_KEEPALIVE_S = 15.0
#: How long the stream lingers after a push before building frames, so
#: a burst collapses to one frame per client (see MetricsExporter._flush).
_COALESCE_S = 0.025


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes | None] | None:
    """Parse one HTTP request into ``(method, path, body)``.

    ``None`` means the peer is not speaking HTTP.  ``body`` is read only
    for a POST whose ``Content-Length`` is sane, and is ``None``
    otherwise.
    """
    parts = (await reader.readline()).split()
    if parts[:1] not in ([b"GET"], [b"HEAD"], [b"POST"]):
        return None
    method = parts[0].decode("ascii")
    target = parts[1].decode("utf-8", errors="replace") if len(parts) > 1 else "/"
    content_length = 0
    while True:
        line = await reader.readline()
        if not line.strip():
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = 0
    body = None
    if method == "POST" and 0 < content_length <= _MAX_PUSH_BYTES:
        body = await reader.readexactly(content_length)
    return method, target.split("?", 1)[0], body


class MetricsExporter(AsyncioListener):
    """Serves a metrics registry's fleet view on ``host:port``.

    ``rollups`` backs ``GET /clients`` and the ``/history`` ring
    buffers (one on ``clock`` is created when not supplied); each pushed
    client snapshot is checked and parsed once, by
    :func:`~repro.telemetry.metrics.check_snapshot`, retained per GUID as
    its families (latest wins) and folded into every ``/metrics`` and
    ``/snapshot`` response until evicted.

    ``web=False`` strips the dashboard surface entirely — ``/``
    reverts to the plain exposition, ``/fleet``/``/history``/``/stream``
    404, and no broker or per-push bookkeeping beyond the snapshot
    store exists (the zero-overhead baseline the benchmark gate
    compares against).
    """

    def __init__(
        self,
        registry,
        host: str = "127.0.0.1",
        port: int = 0,
        rollups: ClientRollups | None = None,
        *,
        web: bool = True,
        stale_after: float = 30.0,
        evict_after: float | None = 300.0,
        clock=time.monotonic,
    ):
        if stale_after <= 0:
            raise ValidationError(
                f"stale_after must be > 0, got {stale_after}"
            )
        if evict_after is not None and evict_after < stale_after:
            raise ValidationError(
                f"evict_after ({evict_after}) must be >= stale_after "
                f"({stale_after}); eviction implies staleness"
            )
        self._registry = registry
        self._rollups = (
            rollups if rollups is not None else ClientRollups(clock=clock)
        )
        self._web = bool(web)
        self._stale_after = float(stale_after)
        self._evict_after = float(evict_after) if evict_after is not None else None
        self._clock = clock
        self._started = clock()
        self._pushed: dict[str, dict[str, Family]] = {}
        self._push_at: dict[str, float] = {}
        #: Known family shapes: the local registry's, else the first
        #: accepted push's (see _admit).
        self._shapes: dict[str, Shape] = {}
        #: Names whose known shape a push gave, and the local registry's
        #: size when they were last looked up there (see _local_wins).
        self._claimed: set[str] = set()
        self._local_size = 0
        self._version = 0
        self._events: deque[dict[str, object]] = deque(maxlen=_FEED_CAPACITY)
        # HTTP pushes all run on the loop thread, but record_push and the
        # views stay callable from any thread, so the push state keeps
        # its lock.
        self._pushed_lock = threading.Lock()
        self._broker = _web.StreamBroker() if self._web else None
        # Stream state: pushes mark clients dirty, and a loop callback
        # coalesces the marks into at most one frame per client per
        # window (see _flush).  _row_sent tracks which clients any
        # subscriber has already received a full row for.
        self._dirty: dict[str, list] = {}
        self._row_sent: set[str] = set()
        super().__init__(host, port)

    @property
    def registry(self):
        return self._registry

    @property
    def rollups(self) -> ClientRollups:
        return self._rollups

    @property
    def broker(self) -> "_web.StreamBroker | None":
        return self._broker

    @property
    def stale_after(self) -> float:
        return self._stale_after

    @property
    def evict_after(self) -> float | None:
        return self._evict_after

    # -- fleet federation --------------------------------------------------

    def record_push(self, client_id: str, snapshot: Mapping[str, object]) -> int:
        """Store ``client_id``'s latest snapshot; returns its metric count.

        Per push this does O(one client) work — check and parse the
        snapshot and store its families; with the web layer on, also a
        history sample, the discomfort-event diff and (only while
        ``/stream`` readers are attached) an O(1) dirty mark; the actual
        SSE frame is built off this path (see :meth:`_flush`).  A frame
        carries the full fleet row only when the client is new to the
        stream or its discomfort CDF grew; otherwise it is a light delta
        (runs, borrow, discomfort count) the page applies to the row it
        holds, recomputing headroom client-side from the unchanged
        per-cell ``c_q``.  The full fleet merge is never rebuilt here.
        Safe to call from any thread.

        Raises :class:`~repro.errors.ValidationError`, storing nothing,
        when :meth:`_admit` rejects the snapshot.
        """
        now = self._clock()
        at = round(now - self._started, 3)
        # One critical section per push keeps the event diff and the
        # dirty mark in version order even when pushes arrive off the
        # loop; SSE readers assert monotonic ids.
        with self._pushed_lock:
            families = self._admit(snapshot)
            previous = self._pushed.get(client_id)
            self._pushed[client_id] = families  # replace, don't accumulate
            self._push_at[client_id] = now
            self._version += 1
            self._rollups.record_push(client_id)
            if self._web:
                events = _web.discomfort_events(
                    client_id, previous, families, at
                )
                self._events.extend(events)
                runs, borrow, discomforts = _web.snapshot_sample(families)
                self._rollups.record_sample(
                    client_id,
                    at=now,
                    runs=runs,
                    borrow_level=borrow if borrow is not None else 0.0,
                    discomforts=discomforts,
                )
                if self._broker.subscribers:
                    # Mark dirty; frames are built by _flush, off the push
                    # path, at most once per coalesce window per client
                    # (events accumulate so none are lost).  The window's
                    # first mark schedules its flush.
                    if not self._dirty:
                        self._loop.call_soon_threadsafe(
                            self._loop.call_later, _COALESCE_S, self._flush
                        )
                    state = [self._version, at, runs, borrow, discomforts]
                    entry = self._dirty.setdefault(client_id, state + [[]])
                    entry[:5] = state
                    entry[5].extend(events)
        return len(families)

    def _admit(self, snapshot: Mapping[str, object]) -> dict[str, Family]:
        """Check and parse a push by :func:`check_snapshot` against the
        known family shapes, then record the new ones (call under
        ``_pushed_lock``); returns its families."""
        self._local_wins()
        families = check_snapshot(snapshot, self._shape)
        shapes = self._shapes
        for name, family in families.items():
            known = shapes.get(name)
            if known is None or known[2] is None and family.bounds is not None:
                shapes[name] = family[:3]
                self._claimed.add(name)
        return families

    def _local_wins(self) -> None:
        """Give each claimed name the local registry has declared since
        the last look its local shape (call under ``_pushed_lock``), so
        later pushes must fit it.  A registry only grows, so an
        unchanged size means nothing new was declared."""
        size = len(self._registry)
        if size == self._local_size:
            return
        self._local_size = size
        for name in list(self._claimed):
            shape = self._registry.shape(name)
            if shape is not None:
                self._claimed.discard(name)
                self._shapes[name] = shape

    def _shape(self, name: str) -> Shape | None:
        shape = self._shapes.get(name)
        if shape is None:
            shape = self._registry.shape(name)
            if shape is not None:  # registered shapes never change
                self._shapes[name] = shape
        return shape

    def _flush(self) -> None:
        """Builds and publishes one coalesce window's SSE frames.

        Runs on the loop ``_COALESCE_S`` after a window's first dirty
        mark, so ``/push`` never pays for frame construction and a burst
        collapses to one frame per client carrying its *latest* state.
        Intermediate light deltas are absolute values, so skipping them
        loses nothing; discomfort events accumulate in the dirty entry
        and every one is delivered.  Frames are published in version
        order (readers assert monotonic ids); entries marked after the
        swap carry strictly larger versions, so ordering holds across
        windows too.
        """
        with self._pushed_lock:
            dirty, self._dirty = self._dirty, {}
        broker = self._broker
        if not broker.subscribers:
            return
        frames = []
        for client_id, entry in dirty.items():
            version, at, runs, borrow, discomforts, events = entry
            families = self._pushed[client_id]  # never removed once pushed
            rate = self._rollups.runs_per_s(client_id)
            payload: dict[str, object] = {
                "version": version,
                "at": at,
                "client_id": client_id,
                "runs": runs,
                "runs_per_s": round(rate, 4) if rate is not None else None,
                "borrow_level": borrow,
                "discomforts": discomforts,
                "events": events,
            }
            # Scheduler pushes never grow the discomfort histogram
            # (their feedback lives in uucs_sched_* families), so a
            # light delta would leave the fleet table's scheduler
            # columns stale; such clients always get a full row.
            # They push at shard-completion cadence, so this stays
            # off the per-client hot path.
            sched = any(name.startswith("uucs_sched_") for name in families)
            if events or sched or client_id not in self._row_sent:
                payload["row"] = _web.client_fleet_row(
                    client_id,
                    families,
                    age_s=0.0,
                    runs_per_s=rate,
                    sample=(runs, borrow, discomforts),
                )
                self._row_sent.add(client_id)
            if "uucs_study_progress_ratio" in families:
                study = _web.study_progress(families)
                if study is not None:
                    payload["study"] = study
            frames.append(
                (version, _web.format_sse("push", payload, event_id=version))
            )
        frames.sort()
        for _, frame in frames:
            broker.publish(frame)

    def _liveness(self, now: float) -> dict[str, tuple[float, bool, bool]]:
        """client_id -> (age_s, stale, evicted) for every pushed client."""
        with self._pushed_lock:
            push_at = dict(self._push_at)
        out = {}
        for client_id, at in push_at.items():
            age = max(0.0, now - at)
            evicted = self._evict_after is not None and age >= self._evict_after
            out[client_id] = (age, age >= self._stale_after, evicted)
        return out

    def pushed_clients(self) -> list[str]:
        with self._pushed_lock:
            return sorted(self._pushed)

    def fleet_registry(self):
        """The local registry federated with every live pushed snapshot.

        With no (live) pushes this is the local registry itself
        (zero-copy); otherwise a fresh registry built by merging the
        local snapshot, then folding in each non-evicted client's latest
        families, parsed once when pushed, in sorted-GUID order.  A
        family pushed before the local registry declared its name with
        another shape is left out: the local declaration wins.
        """
        now = self._clock()
        liveness = self._liveness(now)
        with self._pushed_lock:
            pushed = {
                cid: families
                for cid, families in self._pushed.items()
                if not liveness.get(cid, (0.0, False, False))[2]
            }
        if not pushed:
            return self._registry
        local = self._registry.snapshot()
        fleet = MetricsRegistry()
        fleet.merge(local)
        for client_id in sorted(pushed):
            # A family pushed before the local registry declared its
            # name otherwise is left out: the local declaration wins.
            fleet.fold({
                name: family
                for name, family in pushed[client_id].items()
                if name not in local or family.fits(fleet.shape(name))
            })
        fleet.gauge(
            "uucs_pushed_clients", "Clients with a pushed metrics snapshot."
        ).set(len(pushed))
        return fleet

    def render_fleet(self) -> str:
        return self.fleet_registry().render()

    def fleet_snapshot(self) -> dict[str, dict[str, object]]:
        return self.fleet_registry().snapshot()

    def client_rows(self) -> list[dict[str, object]]:
        """``/clients`` rows, annotated with push-gateway liveness."""
        rows = self._rollups.as_dicts()
        liveness = self._liveness(self._clock())
        for row in rows:
            state = liveness.get(str(row.get("client_id", "")))
            if state is not None:
                age, stale, evicted = state
                row["age_s"] = round(age, 3)
                row["stale"] = stale
                row["evicted"] = evicted
        return rows

    # -- fleet observability (the web layer) -------------------------------

    def fleet_view(self) -> dict[str, object]:
        """The ``/fleet`` JSON body (see :mod:`repro.telemetry.web`)."""
        now = self._clock()
        liveness = self._liveness(now)
        with self._pushed_lock:
            pushed = dict(self._pushed)
            version = self._version
            events = list(self._events)
        rows = []
        for client_id in sorted(pushed):
            age, stale, evicted = liveness.get(client_id, (0.0, False, False))
            rows.append(
                _web.client_fleet_row(
                    client_id,
                    pushed[client_id],
                    age_s=age,
                    stale=stale,
                    evicted=evicted,
                    runs_per_s=self._rollups.runs_per_s(client_id),
                )
            )
        # Only the study families: the local registry's other label
        # values come from requests and are never checked for commas.
        fleet = self.fleet_registry()
        study = _web.study_progress(check_snapshot(
            {
                name: entry
                for name, entry in fleet.snapshot().items()
                if name.startswith("uucs_study_")
            },
            fleet.shape,
        ))
        return {
            "version": version,
            "at": round(now - self._started, 3),
            "quantile": _web.HEADROOM_QUANTILE,
            "stale_after_s": self._stale_after,
            "evict_after_s": self._evict_after,
            "totals": _web.fleet_totals(rows),
            "clients": rows,
            "events": events,
            "study": study,
        }

    def history_view(self) -> dict[str, object]:
        """The ``/history`` JSON body: per-client sparkline series."""
        return {
            "at": round(self._clock() - self._started, 3),
            "capacity": self._rollups.history_capacity,
            "clients": self._rollups.history_series(self._clock()),
        }

    # -- serving (on the loop thread) -------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                _read_request(reader), _REQUEST_WAIT_S
            )
        except asyncio.IncompleteReadError:
            return  # the peer hung up mid-body
        except (asyncio.TimeoutError, ValueError):
            request = None  # silent, or a line past the read limit
        if request is None:
            # Silent or non-HTTP peer: bare plain-TCP exposition.
            writer.write(self.render_fleet().encode("utf-8"))
            return
        method, path, body = request
        if method != "POST" and path == "/stream" and self._web:
            await self._stream(writer, head=method == "HEAD")
            return
        status, content_type, text = self._route(method, path, body)
        raw = text.encode("utf-8")
        writer.write(
            f"HTTP/1.0 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(raw)}\r\n\r\n".encode("ascii")
        )
        if method != "HEAD":
            writer.write(raw)

    def _route(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, str, str]:
        """``(status, content type, body)`` for every route but /stream."""
        web = self._web
        if method == "POST":
            if path == "/push":
                return self._push(body)
        elif path == "/" and web:
            return 200, _HTML, render_page()
        elif path in ("/", "/metrics"):
            return 200, _TEXT, self.render_fleet()
        elif path == "/snapshot":
            return 200, _JSON, json.dumps(self.fleet_snapshot(), sort_keys=True)
        elif path == "/clients":
            return 200, _JSON, json.dumps(self.client_rows(), sort_keys=True)
        elif path == "/fleet" and web:
            return 200, _JSON, json.dumps(self.fleet_view(), sort_keys=True)
        elif path == "/history" and web:
            return 200, _JSON, json.dumps(self.history_view(), sort_keys=True)
        return 404, _TEXT, f"unknown path {path!r}\n"

    def _push(self, body: bytes | None) -> tuple[int, str, str]:
        if body is None:
            return 400, _JSON, '{"error": "push requires a sane Content-Length"}'
        try:
            payload = json.loads(body)
            client_id = payload["client_id"]
            snapshot = payload["snapshot"]
            if not isinstance(client_id, str) or not client_id:
                raise ValueError("client_id must be a non-empty string")
            merged = self.record_push(client_id, snapshot)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            # (ValidationError, from record_push, is a ValueError.)
            return 400, _JSON, json.dumps({"error": f"bad push payload: {exc}"})
        return 200, _JSON, json.dumps({"ok": True, "metrics": merged})

    async def _stream(self, writer: asyncio.StreamWriter, head: bool) -> None:
        writer.write(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: " + _SSE.encode("ascii") + b"\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        if head:
            return
        # Subscribe *before* building the hello view: a push landing in
        # between is then delivered as a (redundant, idempotent) frame
        # rather than lost.
        broker = self._broker
        sub = broker.subscribe()
        try:
            view = self.fleet_view()
            writer.write(
                _web.format_sse("hello", view, event_id=int(view["version"]))
            )
            await writer.drain()
            while True:
                if not sub.frames:
                    try:
                        await asyncio.wait_for(sub.ready.wait(), _KEEPALIVE_S)
                    except asyncio.TimeoutError:
                        writer.write(b": keepalive\n\n")
                        await writer.drain()
                        continue
                # A flush publishes a whole coalesce window at once; it
                # leaves as one write, so one send and one reader
                # wake-up per window instead of per frame.
                batch = sub.take()
                closing = batch[-1] is None  # the broker's end sentinel
                if closing:
                    batch.pop()
                writer.write(b"".join(batch))
                await writer.drain()
                if closing:
                    return
        finally:
            broker.unsubscribe(sub)

    async def _drain(self) -> None:
        if self._broker is not None:
            self._broker.close()  # end every /stream reader cleanly first
        await super()._drain()
