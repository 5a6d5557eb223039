"""Fleet-scale aggregation over metrics snapshots.

The paper's UUCS deployment watched ~100 Internet clients from one
server; this module supplies the pieces that make that shape observable
at scale:

* :class:`RegistrySnapshot` — an immutable, JSON-safe view of a
  :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`, with
  histogram quantile estimation (:meth:`RegistrySnapshot.quantiles`,
  the bucket interpolation of :func:`repro.util.comfort.c_quantile`)
  and wire (de)serialization for the push gateway;
* :class:`ClientRollups` — thread-safe per-client server rollups keyed
  by GUID (syncs, results, discomfort reports, bytes, pushes,
  last-seen), the server's one record of per-client facts, served on
  ``GET /clients`` and rendered by ``uucs clients`` and ``uucs top``;
* the push-gateway HTTP helpers (:func:`push_snapshot`,
  :func:`fetch_snapshot`, :func:`fetch_clients`) that clients and the
  ``uucs top`` dashboard use to talk to a
  :class:`~repro.telemetry.exporter.MetricsExporter`.

Nothing here draws randomness, so fleet aggregation is as
seeded-run-safe as the rest of the telemetry subsystem.
"""

from __future__ import annotations

import http.client
import json
import threading
from collections import deque
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, Iterator, Sequence

from repro.errors import ProtocolError, SerializationError, ValidationError
from repro.util.comfort import c_quantile

__all__ = [
    "ClientRollup",
    "ClientRollups",
    "HistorySample",
    "RegistrySnapshot",
    "fetch_clients",
    "fetch_fleet",
    "fetch_history",
    "fetch_snapshot",
    "push_snapshot",
]

#: Quantiles ``uucs top`` surfaces by default.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)

#: Default per-client history ring capacity (sparkline points retained
#: across pushes; at one push per 2 s this spans ~8 minutes).
DEFAULT_HISTORY_CAPACITY = 240


class RegistrySnapshot:
    """A read-only view over one registry snapshot dict.

    Wraps the plain dict produced by
    :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` with
    typed accessors, quantile estimation, and JSON round-tripping (the
    push-gateway wire format is exactly :meth:`to_json`).
    """

    def __init__(self, data: Mapping[str, Mapping[str, object]]):
        self._data = {str(name): dict(entry) for name, entry in data.items()}

    @classmethod
    def of(cls, registry: "MetricsRegistry") -> "RegistrySnapshot":  # noqa: F821
        """Snapshot a live registry."""
        return cls(registry.snapshot())

    @classmethod
    def adopt(
        cls, data: dict[str, dict[str, object]]
    ) -> "RegistrySnapshot":
        """Wrap ``data`` without copying.

        For owners of freshly built snapshot dicts (e.g. the push
        gateway wrapping a just-parsed request body) where the per-push
        defensive copy of ``__init__`` would be pure overhead.  The
        caller promises not to mutate ``data`` afterwards.
        """
        view = cls.__new__(cls)
        view._data = data
        return view

    def raw(self, name: str) -> Mapping[str, object] | None:
        """The internal entry for ``name``, uncopied (treat as read-only).

        The hot-path complement of :meth:`get`: cheap enough to use for
        per-push change detection (``current.raw(n) == previous.raw(n)``).
        """
        return self._data.get(name)

    @property
    def data(self) -> dict[str, dict[str, object]]:
        """The underlying snapshot dict (shallow copy per entry)."""
        return {name: dict(entry) for name, entry in self._data.items()}

    def names(self) -> list[str]:
        return sorted(self._data)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._data))

    def get(self, name: str) -> dict[str, object] | None:
        entry = self._data.get(name)
        return dict(entry) if entry is not None else None

    def kind(self, name: str) -> str:
        return str(self._data.get(name, {}).get("kind", ""))

    def series(self, name: str) -> dict[str, object]:
        """``series-key -> value`` for ``name`` ("" for unlabelled)."""
        entry = self._data.get(name)
        if entry is None:
            return {}
        labels = entry.get("labels") or []
        value = entry.get("value")
        if not labels:
            return {"": value}
        return dict(value) if isinstance(value, Mapping) else {}

    def quantiles(
        self,
        name: str,
        qs: Sequence[float] = DEFAULT_QUANTILES,
    ) -> dict[str, dict[float, float | None]]:
        """Quantile estimates for histogram ``name``.

        Returns ``series-key -> {q: estimate}`` (``""`` keys the
        unlabelled series), each estimate interpolated from the
        cumulative buckets by :func:`~repro.util.comfort.c_quantile`;
        estimates are ``None`` for empty series.
        Raises :class:`~repro.errors.ValidationError` if ``name`` is not
        a histogram in this snapshot.
        """
        entry = self._data.get(name)
        if entry is None or entry.get("kind") != "histogram":
            raise ValidationError(f"{name!r} is not a histogram in this snapshot")
        out: dict[str, dict[float, float | None]] = {}
        for key, data in self.series(name).items():
            if not isinstance(data, Mapping):
                continue
            buckets = data.get("buckets", {})
            count = int(data.get("count", 0))
            out[key] = {q: c_quantile(buckets, count, q) for q in qs}
        return out

    def to_json(self) -> str:
        """One compact JSON document (the push-gateway payload body)."""
        try:
            return json.dumps(self._data, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"unserializable snapshot: {exc}")

    @classmethod
    def from_json(cls, text: str | bytes) -> "RegistrySnapshot":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"bad snapshot JSON: {exc}")
        if not isinstance(data, dict):
            raise SerializationError("snapshot must be a JSON object")
        return cls(data)


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


class ClientRollups:
    """Thread-safe per-client rollups keyed by GUID.

    The server records into this from its request handlers (gated on
    telemetry being enabled); the exporter serves it as JSON on
    ``GET /clients``; ``uucs clients`` and ``uucs top`` render it.

    Each client also owns a fixed-size ring buffer of
    :class:`HistorySample` points (``history`` caps its length), fed one
    sample per push by the exporter and served on ``GET /history`` — the
    data behind the web dashboard's per-client sparklines (runs/s,
    borrow level, discomfort count).  The rings are bounded, so a
    long-running gateway's memory is O(clients), never O(pushes).
    """

    def __init__(self, history: int = DEFAULT_HISTORY_CAPACITY) -> None:
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

    @property
    def history_capacity(self) -> int:
        return self._history_capacity

    def _entry(self, client_id: str) -> dict[str, Any]:
        entry = self._rollups.get(client_id)
        if entry is None:
            entry = self._rollups[client_id] = ClientRollup(client_id).to_dict()
        return entry

    def record_register(self, client_id: str, now: float = 0.0) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["registered_at"] = float(now)
            entry["last_seen"] = max(entry["last_seen"], float(now))

    def record_sync(
        self,
        client_id: str,
        results: int = 0,
        discomforts: int = 0,
        now: float = 0.0,
    ) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["syncs"] += 1
            entry["results"] += int(results)
            entry["discomforts"] += int(discomforts)
            entry["last_seen"] = max(entry["last_seen"], float(now))

    def record_bytes(self, client_id: str, read: int = 0, written: int = 0) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["bytes_read"] += int(read)
            entry["bytes_written"] += int(written)

    def record_push(self, client_id: str, now: float = 0.0) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["pushes"] += 1
            entry["last_seen"] = max(entry["last_seen"], float(now))

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

    def history(self, client_id: str) -> tuple[HistorySample, ...]:
        """The retained history ring for one client (oldest first)."""
        with self._lock:
            return tuple(self._history.get(client_id, ()))

    def last_samples(
        self, client_id: str
    ) -> tuple[HistorySample, HistorySample] | None:
        """The ring's two newest samples without copying the ring.

        ``None`` until the client has pushed twice; the per-push rate
        computation runs on every ``/push``, so it must not pay for a
        full :meth:`history` copy.
        """
        with self._lock:
            ring = self._history.get(client_id)
            if ring is None or len(ring) < 2:
                return None
            return ring[-2], ring[-1]

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
            rates = [0.0]
            for prev, curr in zip(ring, ring[1:]):
                dt = curr.at - prev.at
                rates.append(
                    max(0.0, curr.runs - prev.runs) / dt if dt > 0 else 0.0
                )
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


def _http_request(
    host: str,
    port: int,
    path: str,
    method: str = "GET",
    body: bytes | None = None,
    timeout: float = 5.0,
) -> tuple[int, bytes]:
    """One HTTP request against a metrics exporter; (status, body)."""
    connection = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise ProtocolError(
            f"cannot reach metrics endpoint {host}:{port}{path}: {exc}"
        ) from exc
    finally:
        connection.close()


def _expect_json(status: int, body: bytes, what: str) -> object:
    if status != 200:
        raise ProtocolError(f"{what} failed: HTTP {status}: {body[:200].decode(errors='replace')}")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"{what} returned invalid JSON: {exc}") from exc


def fetch_snapshot(host: str, port: int, timeout: float = 5.0) -> RegistrySnapshot:
    """``GET /snapshot`` from an exporter -> :class:`RegistrySnapshot`."""
    status, body = _http_request(host, port, "/snapshot", timeout=timeout)
    data = _expect_json(status, body, "snapshot fetch")
    if not isinstance(data, dict):
        raise ProtocolError("snapshot endpoint must return a JSON object")
    return RegistrySnapshot(data)


def fetch_clients(host: str, port: int, timeout: float = 5.0) -> list[ClientRollup]:
    """``GET /clients`` from an exporter -> per-client rollups."""
    status, body = _http_request(host, port, "/clients", timeout=timeout)
    data = _expect_json(status, body, "clients fetch")
    if not isinstance(data, list):
        raise ProtocolError("clients endpoint must return a JSON list")
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
    status, body = _http_request(host, port, "/fleet", timeout=timeout)
    data = _expect_json(status, body, "fleet fetch")
    if not isinstance(data, dict):
        raise ProtocolError("fleet endpoint must return a JSON object")
    return data


def fetch_history(
    host: str, port: int, timeout: float = 5.0
) -> dict[str, object]:
    """``GET /history`` from an exporter -> per-client sparkline series."""
    status, body = _http_request(host, port, "/history", timeout=timeout)
    data = _expect_json(status, body, "history fetch")
    if not isinstance(data, dict):
        raise ProtocolError("history endpoint must return a JSON object")
    return data


def push_snapshot(
    host: str,
    port: int,
    client_id: str,
    snapshot: Mapping[str, Mapping[str, object]] | RegistrySnapshot,
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
    if isinstance(snapshot, RegistrySnapshot):
        snapshot = snapshot.data
    body = json.dumps(
        {"client_id": str(client_id), "snapshot": dict(snapshot)}, sort_keys=True
    ).encode("utf-8")
    status, reply = _http_request(
        host, port, "/push", method="POST", body=body, timeout=timeout
    )
    data = _expect_json(status, reply, "push")
    if not isinstance(data, dict):
        raise ProtocolError("push endpoint must return a JSON object")
    return data
