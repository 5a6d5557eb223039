"""Fleet-scale aggregation over metrics snapshots.

The paper's UUCS deployment watched ~100 Internet clients from one
server; this module supplies the pieces that make that shape observable
at scale:

* :class:`ClientRollups` — thread-safe per-client server rollups keyed
  by GUID (syncs, results, discomfort reports, bytes, pushes,
  last-seen), the server's one record of per-client facts, served on
  ``GET /clients`` and rendered by ``uucs clients`` and ``uucs top``;
* the push-gateway HTTP helpers (:func:`push_snapshot`,
  :func:`fetch_snapshot`, :func:`fetch_clients`) that clients and the
  ``uucs top`` dashboard use to talk to a
  :class:`~repro.telemetry.exporter.MetricsExporter`.  A fetched
  snapshot arrives parsed into
  :class:`~repro.telemetry.metrics.Family` records by
  :func:`~repro.telemetry.metrics.check_snapshot`, the one reader of
  snapshot dicts.

Nothing here draws randomness, so fleet aggregation is as
seeded-run-safe as the rest of the telemetry subsystem.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, Callable

from repro.errors import ProtocolError, SerializationError, ValidationError
from repro.telemetry.metrics import Family, check_snapshot

__all__ = [
    "ClientRollup",
    "ClientRollups",
    "HistorySample",
    "fetch_clients",
    "fetch_fleet",
    "fetch_history",
    "fetch_snapshot",
    "push_snapshot",
]

#: Default per-client history ring capacity (sparkline points retained
#: across pushes; at one push per 2 s this spans ~8 minutes).
DEFAULT_HISTORY_CAPACITY = 240


@dataclass(frozen=True)
class ClientRollup:
    """Per-client server-side rollup (one row of ``uucs clients``)."""

    client_id: str
    registered_at: float = 0.0
    syncs: int = 0
    results: int = 0
    discomforts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    pushes: int = 0
    last_seen: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "client_id": self.client_id,
            "registered_at": self.registered_at,
            "syncs": self.syncs,
            "results": self.results,
            "discomforts": self.discomforts,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "pushes": self.pushes,
            "last_seen": self.last_seen,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ClientRollup":
        try:
            return cls(
                client_id=str(data["client_id"]),
                registered_at=float(data.get("registered_at", 0.0)),  # type: ignore[arg-type]
                syncs=int(data.get("syncs", 0)),  # type: ignore[arg-type]
                results=int(data.get("results", 0)),  # type: ignore[arg-type]
                discomforts=int(data.get("discomforts", 0)),  # type: ignore[arg-type]
                bytes_read=int(data.get("bytes_read", 0)),  # type: ignore[arg-type]
                bytes_written=int(data.get("bytes_written", 0)),  # type: ignore[arg-type]
                pushes=int(data.get("pushes", 0)),  # type: ignore[arg-type]
                last_seen=float(data.get("last_seen", 0.0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad client rollup: {exc}")


@dataclass(frozen=True)
class HistorySample:
    """One per-push history point in a client's sparkline ring buffer.

    ``at`` is whatever clock the recorder used (the exporter records its
    monotonic clock); ``runs`` and ``discomforts`` are the cumulative
    totals read from the pushed snapshot, so rates are derived from
    deltas between consecutive samples.
    """

    at: float
    runs: float
    borrow_level: float
    discomforts: float


def _runs_per_s(prev: HistorySample, curr: HistorySample) -> float | None:
    """Runs/s between two ring samples; None when no time passed."""
    dt = curr.at - prev.at
    return max(0.0, curr.runs - prev.runs) / dt if dt > 0 else None


class ClientRollups:
    """Thread-safe per-client rollups keyed by GUID.

    The server records into this from its request handlers (gated on
    telemetry being enabled); the exporter serves it as JSON on
    ``GET /clients``; ``uucs clients`` and ``uucs top`` render it.
    Every record is stamped from one ``clock``: ``registered_at`` and
    ``last_seen`` are seconds since this object was created.

    Each client also owns a fixed-size ring buffer of
    :class:`HistorySample` points (``history`` caps its length), fed one
    sample per push by the exporter and served on ``GET /history`` — the
    data behind the web dashboard's per-client sparklines (runs/s,
    borrow level, discomfort count).  The rings are bounded, so a
    long-running gateway's memory is O(clients), never O(pushes).
    """

    def __init__(
        self,
        history: int = DEFAULT_HISTORY_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if history < 2:
            raise ValidationError(
                f"history capacity must be >= 2 (rates need deltas), "
                f"got {history}"
            )
        #: ``ClientRollup.to_dict()`` fields per GUID, updated in place;
        #: get() and rows() hand out frozen copies.
        self._rollups: dict[str, dict[str, Any]] = {}
        self._history_capacity = int(history)
        self._history: dict[str, deque[HistorySample]] = {}
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()

    @property
    def history_capacity(self) -> int:
        return self._history_capacity

    def _entry(self, client_id: str) -> dict[str, Any]:
        entry = self._rollups.get(client_id)
        if entry is None:
            entry = self._rollups[client_id] = ClientRollup(client_id).to_dict()
        return entry

    def _now(self) -> float:
        return self._clock() - self._started

    def record_register(self, client_id: str) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["registered_at"] = entry["last_seen"] = self._now()

    def record_sync(
        self, client_id: str, results: int = 0, discomforts: int = 0
    ) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["syncs"] += 1
            entry["results"] += int(results)
            entry["discomforts"] += int(discomforts)
            entry["last_seen"] = self._now()

    def record_bytes(self, client_id: str, read: int = 0, written: int = 0) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["bytes_read"] += int(read)
            entry["bytes_written"] += int(written)

    def record_push(self, client_id: str) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["pushes"] += 1
            entry["last_seen"] = self._now()

    def record_sample(
        self,
        client_id: str,
        at: float,
        runs: float = 0.0,
        borrow_level: float = 0.0,
        discomforts: float = 0.0,
    ) -> None:
        """Append one history point to ``client_id``'s ring buffer."""
        sample = HistorySample(
            at=float(at),
            runs=float(runs),
            borrow_level=float(borrow_level),
            discomforts=float(discomforts),
        )
        with self._lock:
            ring = self._history.get(client_id)
            if ring is None:
                ring = self._history[client_id] = deque(
                    maxlen=self._history_capacity
                )
            ring.append(sample)

    def runs_per_s(self, client_id: str) -> float | None:
        """Runs/s between the ring's two newest samples.

        ``None`` until the client has pushed twice.  Runs on every
        ``/push`` with a stream reader attached, so it never copies the
        ring.
        """
        with self._lock:
            ring = self._history.get(client_id)
            if ring is None or len(ring) < 2:
                return None
            return _runs_per_s(ring[-2], ring[-1])

    def history_series(self, now: float) -> dict[str, dict[str, list[float]]]:
        """JSON-ready per-client timeseries (the ``/history`` payload body).

        ``t`` is seconds before ``now`` (so 0.0 is "just pushed" and the
        series reads left-to-right toward the present); ``runs_per_s``
        is the delta rate between consecutive samples, aligned with the
        *later* sample of each pair (first point: 0).
        """
        with self._lock:
            rings = {cid: tuple(ring) for cid, ring in self._history.items()}
        out: dict[str, dict[str, list[float]]] = {}
        for client_id in sorted(rings):
            ring = rings[client_id]
            rates = [0.0] + [
                _runs_per_s(prev, curr) or 0.0
                for prev, curr in zip(ring, ring[1:])
            ]
            out[client_id] = {
                "t": [round(float(now) - s.at, 3) for s in ring],
                "runs": [s.runs for s in ring],
                "runs_per_s": [round(r, 4) for r in rates],
                "borrow_level": [s.borrow_level for s in ring],
                "discomforts": [s.discomforts for s in ring],
            }
        return out

    def get(self, client_id: str) -> ClientRollup | None:
        with self._lock:
            entry = self._rollups.get(client_id)
            return ClientRollup(**entry) if entry is not None else None

    def rows(self) -> list[ClientRollup]:
        """All rollups, sorted by client GUID."""
        with self._lock:
            return [
                ClientRollup(**self._rollups[cid]) for cid in sorted(self._rollups)
            ]

    def as_dicts(self) -> list[dict[str, object]]:
        return [row.to_dict() for row in self.rows()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._rollups)

    def __contains__(self, client_id: str) -> bool:
        with self._lock:
            return client_id in self._rollups


# -- push-gateway / dashboard HTTP client ---------------------------------


def _request(
    host: str,
    port: int,
    path: str,
    kind: type,
    body: bytes | None = None,
    timeout: float = 5.0,
) -> Any:
    """One request to a metrics exporter (a POST when ``body`` is given);
    returns its JSON reply, which must be a ``kind`` (dict or list).

    Raises :class:`~repro.errors.ProtocolError` when the exporter cannot
    be reached, answers other than 200, or replies with something else.
    """
    name = path.lstrip("/")
    what = f"{name} fetch" if body is None else name
    connection = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        method = "GET" if body is None else "POST"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        status, reply = response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise ProtocolError(
            f"cannot reach metrics endpoint {host}:{port}{path}: {exc}"
        ) from exc
    finally:
        connection.close()
    if status != 200:
        raise ProtocolError(
            f"{what} failed: HTTP {status}: "
            f"{reply[:200].decode(errors='replace')}"
        )
    try:
        data = json.loads(reply)
    except ValueError as exc:  # not JSON, or not UTF-8 at all
        raise ProtocolError(f"{what} returned invalid JSON: {exc}") from exc
    if type(data) is not kind:
        raise ProtocolError(
            f"{name} endpoint must return a JSON "
            f"{'object' if kind is dict else 'list'}"
        )
    return data


def fetch_snapshot(
    host: str, port: int, timeout: float = 5.0
) -> dict[str, Family]:
    """``GET /snapshot`` from an exporter, parsed by
    :func:`~repro.telemetry.metrics.check_snapshot` as it arrives.

    Raises :class:`~repro.errors.ProtocolError` for a body that is not a
    well-formed snapshot.
    """
    data = _request(host, port, "/snapshot", dict, timeout=timeout)
    try:
        return check_snapshot(data, lambda name: None)
    except ValidationError as exc:
        raise ProtocolError(f"malformed snapshot: {exc}") from exc


def fetch_clients(host: str, port: int, timeout: float = 5.0) -> list[ClientRollup]:
    """``GET /clients`` from an exporter -> per-client rollups."""
    data = _request(host, port, "/clients", list, timeout=timeout)
    try:
        return [ClientRollup.from_dict(row) for row in data]
    except SerializationError as exc:
        raise ProtocolError(str(exc)) from exc


def fetch_fleet(host: str, port: int, timeout: float = 5.0) -> dict[str, object]:
    """``GET /fleet`` from an exporter -> the fleet-view dict.

    The payload schema is documented in docs/OBSERVABILITY.md (and pinned
    by ``tests/schemas/fleet.schema.json``): headline fleet gauges,
    per-client comfort-headroom rows with staleness flags, the
    discomfort-event feed, and study progress.
    """
    return _request(host, port, "/fleet", dict, timeout=timeout)


def fetch_history(
    host: str, port: int, timeout: float = 5.0
) -> dict[str, object]:
    """``GET /history`` from an exporter -> per-client sparkline series."""
    return _request(host, port, "/history", dict, timeout=timeout)


def push_snapshot(
    host: str,
    port: int,
    client_id: str,
    snapshot: Mapping[str, Mapping[str, object]],
    timeout: float = 5.0,
) -> dict[str, object]:
    """``POST /push`` a registry snapshot to an exporter.

    The body is ``{"client_id": ..., "snapshot": {...}}``; the exporter
    replaces any previous snapshot for the same ``client_id`` (pushes
    carry cumulative state, so replacement — not accumulation — keeps
    repeated pushes idempotent) and federates the latest snapshot of
    every pusher into its fleet view.
    """
    if not client_id:
        raise ValidationError("push requires a non-empty client_id")
    body = json.dumps(
        {"client_id": str(client_id), "snapshot": dict(snapshot)}, sort_keys=True
    ).encode("utf-8")
    return _request(host, port, "/push", dict, body=body, timeout=timeout)
