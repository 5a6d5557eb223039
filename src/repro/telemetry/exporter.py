"""Metrics endpoint, push gateway, and fleet dashboard over TCP
(``uucs serve --metrics-port``, ``uucs dashboard``).

Built on :mod:`socketserver`, a thread per connection.  Both raw TCP
peers (``nc host port``) and HTTP clients work: a bare connection (or
any non-HTTP first line) receives one plain exposition and is closed;
HTTP requests are routed by path:

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

import json
import queue
import socketserver
import threading
import time
import warnings
from collections import deque
from typing import Mapping

from repro.errors import ValidationError
from repro.telemetry import web as _web
from repro.telemetry.aggregate import ClientRollups, RegistrySnapshot
from repro.telemetry.webpage import render_page

__all__ = ["MetricsExporter"]

_TEXT = "text/plain; version=0.0.4; charset=utf-8"
_JSON = "application/json; charset=utf-8"
_HTML = "text/html; charset=utf-8"
_SSE = "text/event-stream"

#: Largest accepted ``POST /push`` body (a fleet client's snapshot).
_MAX_PUSH_BYTES = 8 * 1024 * 1024

#: Discomfort-feed entries retained for ``/fleet`` (the SSE stream is
#: the lossless path; the feed is a recent-events convenience).
_FEED_CAPACITY = 100

#: Seconds between SSE keepalive comments when no pushes arrive.
_KEEPALIVE_S = 15.0
#: How long the stream pump lingers after a push before building
#: frames, so a burst collapses to one frame per client (see
#: MetricsExporter._pump).
_COALESCE_S = 0.025
#: How long close() waits for the coalescing pump thread before giving
#: up and warning instead of hanging shutdown (monkeypatched small in
#: tests; a wedged subscriber queue must never block process exit).
_PUMP_JOIN_S = 5.0


class _MetricsHandler(socketserver.StreamRequestHandler):
    timeout = 0.5  # the scrape request, if any, arrives immediately

    def handle(self) -> None:
        exporter: "MetricsExporter" = self.server.exporter  # type: ignore[attr-defined]
        try:
            method, path, content_length = self._read_request()
            if method is None:
                # Silent or non-HTTP peer: bare plain-TCP exposition.
                self.wfile.write(exporter.render_fleet().encode("utf-8"))
                return
            self._route(exporter, method, path, content_length)
        except (TimeoutError, OSError):
            # Peer reset/closed mid-scrape; nothing sane left to write.
            return

    # -- request parsing ---------------------------------------------------

    def _read_request(self) -> tuple[str | None, str, int]:
        """Parse an HTTP request line + headers; (None, "", 0) if raw TCP."""
        try:
            first = self.rfile.readline(65536)
        except (TimeoutError, OSError):
            return None, "", 0
        parts = first.split()
        if parts[:1] not in ([b"GET"], [b"HEAD"], [b"POST"]):
            return None, "", 0
        method = parts[0].decode("ascii")
        target = parts[1].decode("utf-8", errors="replace") if len(parts) > 1 else "/"
        path = target.split("?", 1)[0]
        content_length = 0
        while True:
            line = self.rfile.readline(65536)
            if not line.strip():
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        return method, path, content_length

    # -- routing -----------------------------------------------------------

    def _route(
        self,
        exporter: "MetricsExporter",
        method: str,
        path: str,
        content_length: int,
    ) -> None:
        head = method == "HEAD"
        web = exporter.web_enabled
        if method in ("GET", "HEAD") and path == "/" and web:
            self._respond(200, _HTML, render_page(), body_suppressed=head)
        elif method in ("GET", "HEAD") and (
            path == "/metrics" or (path == "/" and not web)
        ):
            self._respond(200, _TEXT, exporter.render_fleet(), body_suppressed=head)
        elif method in ("GET", "HEAD") and path == "/snapshot":
            body = json.dumps(exporter.fleet_snapshot(), sort_keys=True)
            self._respond(200, _JSON, body, body_suppressed=head)
        elif method in ("GET", "HEAD") and path == "/clients":
            body = json.dumps(exporter.client_rows(), sort_keys=True)
            self._respond(200, _JSON, body, body_suppressed=head)
        elif method in ("GET", "HEAD") and path == "/fleet" and web:
            body = json.dumps(exporter.fleet_view(), sort_keys=True)
            self._respond(200, _JSON, body, body_suppressed=head)
        elif method in ("GET", "HEAD") and path == "/history" and web:
            body = json.dumps(exporter.history_view(), sort_keys=True)
            self._respond(200, _JSON, body, body_suppressed=head)
        elif method in ("GET", "HEAD") and path == "/stream" and web:
            self._handle_stream(exporter, body_suppressed=head)
        elif method == "POST" and path == "/push":
            self._handle_push(exporter, content_length)
        else:
            self._respond(404, _TEXT, f"unknown path {path!r}\n")

    def _handle_push(self, exporter: "MetricsExporter", content_length: int) -> None:
        if content_length <= 0 or content_length > _MAX_PUSH_BYTES:
            self._respond(400, _JSON, '{"error": "push requires a sane Content-Length"}')
            return
        body = self.rfile.read(content_length)
        try:
            payload = json.loads(body)
            client_id = payload["client_id"]
            snapshot = payload["snapshot"]
            if not isinstance(client_id, str) or not client_id:
                raise ValueError("client_id must be a non-empty string")
            if not isinstance(snapshot, dict):
                raise ValueError("snapshot must be an object")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._respond(400, _JSON, json.dumps({"error": f"bad push payload: {exc}"}))
            return
        merged = exporter.record_push(client_id, snapshot)
        self._respond(200, _JSON, json.dumps({"ok": True, "metrics": merged}))

    def _handle_stream(
        self, exporter: "MetricsExporter", body_suppressed: bool = False
    ) -> None:
        broker = exporter.broker
        if broker is None:
            self._respond(404, _TEXT, "stream disabled\n")
            return
        self.wfile.write(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: " + _SSE.encode("ascii") + b"\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        if body_suppressed:
            return
        # Subscribe *before* building the hello view: a push landing in
        # between is then delivered as a (redundant, idempotent) frame
        # rather than lost.
        sub = broker.subscribe()
        try:
            self.connection.settimeout(None)  # long-lived, not a scrape
            view = exporter.fleet_view()
            self.wfile.write(
                _web.format_sse("hello", view, event_id=int(view["version"]))
            )
            self.wfile.flush()
            closing = False
            while not closing:
                try:
                    frame = sub.frames.get(timeout=_KEEPALIVE_S)
                except queue.Empty:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                if frame is None:  # broker closed: exporter shutting down
                    break
                # The pump publishes a whole coalesce window at once;
                # greedily drain it so the window leaves as a single
                # write()/flush() — one send syscall and one reader
                # wake-up per window instead of per frame.  Frames stay
                # whole either way (each is pre-serialized).
                batch = [frame]
                while True:
                    try:
                        nxt = sub.frames.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is None:
                        closing = True
                        break
                    batch.append(nxt)
                self.wfile.write(b"".join(batch))
                self.wfile.flush()
        except (TimeoutError, OSError, ValueError):
            pass  # reader went away; unsubscribe below
        finally:
            broker.unsubscribe(sub)

    def _respond(
        self,
        status: int,
        content_type: str,
        body: str,
        body_suppressed: bool = False,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found"}
        raw = body.encode("utf-8")
        self.wfile.write(
            f"HTTP/1.0 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(raw)}\r\n\r\n".encode("ascii")
        )
        if not body_suppressed:
            self.wfile.write(raw)


class MetricsExporter:
    """Serves a metrics registry's fleet view on ``host:port``.

    ``rollups`` backs ``GET /clients`` and the ``/history`` ring
    buffers (one is created when not supplied); pushed client snapshots
    are retained per GUID (latest wins) and federated into every
    ``/metrics`` and ``/snapshot`` response until evicted.

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
        self._rollups = rollups if rollups is not None else ClientRollups()
        self._web = bool(web)
        self._stale_after = float(stale_after)
        self._evict_after = float(evict_after) if evict_after is not None else None
        self._clock = clock
        self._started = clock()
        self._pushed: dict[str, dict[str, object]] = {}
        self._snapshots: dict[str, RegistrySnapshot] = {}
        self._push_at: dict[str, float] = {}
        self._version = 0
        self._events: deque[dict[str, object]] = deque(maxlen=_FEED_CAPACITY)
        self._pushed_lock = threading.Lock()
        # Serializes the push pipeline so SSE frames leave in version
        # order (readers assert monotonic ids).
        self._pipeline_lock = threading.Lock()
        self._broker = _web.StreamBroker() if self._web else None
        # Stream pump state: pushes mark clients dirty; a dedicated
        # thread coalesces marks into at most one frame per client per
        # window (see _pump).  _row_sent tracks which clients any
        # subscriber has already received a full row for.
        self._dirty: dict[str, list] = {}
        self._row_sent: set[str] = set()
        self._pump_wake = threading.Event()
        self._pump_stop = False
        self._pump_thread: threading.Thread | None = None
        if self._web:
            self._pump_thread = threading.Thread(
                target=self._pump, name="uucs-stream-pump", daemon=True
            )
            self._pump_thread.start()
        self._tcp = socketserver.ThreadingTCPServer(
            (host, port), _MetricsHandler, bind_and_activate=True
        )
        self._tcp.daemon_threads = True
        self._tcp.exporter = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="uucs-metrics", daemon=True
        )
        self._thread.start()

    @property
    def registry(self):
        return self._registry

    @property
    def rollups(self) -> ClientRollups:
        return self._rollups

    @property
    def web_enabled(self) -> bool:
        return self._web

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

        Per push this does O(one client) work — snapshot store, history
        sample, discomfort-event diff, and (only while ``/stream``
        readers are attached) an O(1) dirty mark for the stream pump,
        which builds the actual SSE frame off this path (see
        :meth:`_pump`).  A frame carries the full fleet row only when
        the client is new to the stream or its discomfort CDF grew;
        otherwise it is a light delta (runs, borrow, discomfort count)
        the page applies to the row it holds, recomputing headroom
        client-side from the unchanged per-cell ``c_q``.  The full
        fleet merge is never rebuilt here.
        """
        now = self._clock()
        at = round(now - self._started, 3)
        stored = dict(snapshot)
        if not self._web:
            with self._pushed_lock:
                self._pushed[client_id] = stored  # replace, don't accumulate
                self._push_at[client_id] = now
                self._version += 1
            self._rollups.record_push(client_id, now=at)
            return len(snapshot)
        snap = RegistrySnapshot.adopt(stored)
        with self._pipeline_lock:
            with self._pushed_lock:
                previous = self._snapshots.get(client_id)
                self._pushed[client_id] = stored
                self._snapshots[client_id] = snap
                self._push_at[client_id] = now
                self._version += 1
                version = self._version
            events = _web.discomfort_events(client_id, previous, snap, at)
            if events:
                self._events.extend(events)
            self._rollups.record_push(client_id, now=at)
            runs, borrow, discomforts = _web.snapshot_sample(snap)
            self._rollups.record_sample(
                client_id,
                at=now,
                runs=runs,
                borrow_level=borrow if borrow is not None else 0.0,
                discomforts=discomforts,
            )
            broker = self._broker
            if broker is not None and broker.subscribers:
                # Mark dirty and wake the pump; frames are built there,
                # off the push path, at most once per coalesce window
                # per client (events accumulate so none are lost).
                entry = self._dirty.get(client_id)
                if entry is None:
                    self._dirty[client_id] = [
                        version, at, runs, borrow, discomforts, list(events)
                    ]
                else:
                    entry[0] = version
                    entry[1] = at
                    entry[2] = runs
                    entry[3] = borrow
                    entry[4] = discomforts
                    entry[5].extend(events)
                self._pump_wake.set()
        return len(snapshot)

    def _pump(self) -> None:
        """Builds and publishes SSE frames from dirty-client marks.

        Runs on its own thread so ``/push`` never pays for frame
        construction: pushes mark their client dirty (O(1)) and this
        loop wakes, lingers one coalesce window so a burst collapses to
        one frame per client, then publishes the *latest* state of each
        dirty client.  Intermediate light deltas are absolute values, so
        skipping them loses nothing; discomfort events accumulate in the
        dirty entry and every one is delivered.  Frames are published in
        version order (readers assert monotonic ids); entries marked
        after the swap carry strictly larger versions, so ordering holds
        across windows too.
        """
        while True:
            self._pump_wake.wait(timeout=_KEEPALIVE_S)
            if self._pump_stop:
                return
            if not self._pump_wake.is_set():
                continue
            self._pump_wake.clear()
            time.sleep(_COALESCE_S)
            with self._pipeline_lock:
                dirty, self._dirty = self._dirty, {}
            broker = self._broker
            if not dirty or broker is None or not broker.subscribers:
                continue
            frames = []
            for client_id, entry in dirty.items():
                version, at, runs, borrow, discomforts, events = entry
                with self._pushed_lock:
                    snap = self._snapshots.get(client_id)
                if snap is None:
                    continue
                rate = self._client_rate(client_id)
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
                sched = any(key.startswith("uucs_sched_") for key in snap)
                if events or sched or client_id not in self._row_sent:
                    payload["row"] = _web.client_fleet_row(
                        client_id,
                        snap,
                        age_s=0.0,
                        runs_per_s=rate,
                        sample=(runs, borrow, discomforts),
                    )
                    self._row_sent.add(client_id)
                if "uucs_study_progress_ratio" in snap:
                    study = _web.study_progress(snap)
                    if study is not None:
                        payload["study"] = study
                frames.append(
                    (version, _web.format_sse("push", payload, event_id=version))
                )
            frames.sort()
            for _, frame in frames:
                broker.publish(frame)

    def _client_rate(self, client_id: str) -> float | None:
        """Latest runs/s for ``client_id`` from its history ring."""
        samples = self._rollups.last_samples(client_id)
        if samples is None:
            return None
        prev, last = samples
        dt = last.at - prev.at
        if dt <= 0:
            return None
        return max(0.0, last.runs - prev.runs) / dt

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
        local snapshot and each non-evicted client's latest snapshot,
        in sorted-GUID order.
        """
        from repro.telemetry.metrics import MetricsRegistry

        now = self._clock()
        liveness = self._liveness(now)
        with self._pushed_lock:
            pushed = {
                cid: dict(snap)
                for cid, snap in self._pushed.items()
                if not liveness.get(cid, (0.0, False, False))[2]
            }
        if not pushed:
            return self._registry
        fleet = MetricsRegistry()
        fleet.merge(self._registry.snapshot())
        for client_id in sorted(pushed):
            fleet.merge(pushed[client_id])
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
            snapshots = dict(self._snapshots)
            version = self._version
            events = list(self._events)
        rows = []
        for client_id in sorted(snapshots):
            age, stale, evicted = liveness.get(client_id, (0.0, False, False))
            rows.append(
                _web.client_fleet_row(
                    client_id,
                    snapshots[client_id],
                    age_s=age,
                    stale=stale,
                    evicted=evicted,
                    runs_per_s=self._client_rate(client_id),
                )
            )
        study = _web.study_progress(RegistrySnapshot(self.fleet_snapshot()))
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

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def close(self) -> None:
        if self._pump_thread is not None:
            self._pump_stop = True  # stop publishing before the broker closes
            self._pump_wake.set()
            self._pump_thread.join(timeout=_PUMP_JOIN_S)
            if self._pump_thread.is_alive():
                # A wedged pump (e.g. a subscriber queue that never
                # drains) must not hang shutdown: the thread is a
                # daemon, so abandon it loudly and move on.  The broker
                # close below unblocks any parked publish.
                warnings.warn(
                    "metrics exporter SSE pump did not stop within "
                    f"{_PUMP_JOIN_S}s; abandoning it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._registry.counter(
                    "uucs_exporter_pump_abandoned_total",
                    "SSE pump threads still alive when close() gave up "
                    "waiting for them.",
                ).inc()
        if self._broker is not None:
            self._broker.close()  # wake parked /stream readers first
        self._tcp.shutdown()
        self._tcp.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
