"""Live text dashboard over a metrics exporter (``uucs top``).

Polls an exporter's ``/snapshot`` and ``/clients`` endpoints and
renders refreshing plain-text tables: counters with deltas and rates,
gauges, histogram quantiles (p50/p90/p99), and per-client rollups.
A snapshot arrives as the :class:`~repro.telemetry.metrics.Family`
records :func:`~repro.telemetry.aggregate.fetch_snapshot` parsed it
into.  The fetchers, clock, sleeper, and output stream are all
injectable so the dashboard is fully testable without a terminal or a
network.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Iterator, Mapping, Sequence, TextIO

from repro.errors import ReproError
from repro.telemetry.aggregate import (
    ClientRollup,
    fetch_clients,
    fetch_fleet,
    fetch_snapshot,
)
from repro.telemetry.metrics import Family
from repro.util.comfort import quantile_from_buckets
from repro.util.tables import TextTable, format_float

__all__ = ["TopDashboard"]

#: ANSI "clear screen, cursor home" prefix used between refreshes.
_CLEAR = "\x1b[2J\x1b[H"


def _rows(
    families: Mapping[str, Family], kind: str
) -> Iterator[tuple[str, str, Any]]:
    """``(metric, series key, value)`` for every series of every ``kind``
    family, metrics in name order and series in series-key order."""
    for name, family in families.items():
        if family.kind == kind:
            for labelvalues, value in family.series:
                yield name, ",".join(labelvalues), value


def _format_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"


class TopDashboard:
    """Refreshing per-metric and per-client tables with deltas/rates."""

    def __init__(
        self,
        host: str,
        port: int,
        interval: float = 2.0,
        fetch_snapshot: Callable[..., Mapping[str, Family]] = fetch_snapshot,
        fetch_clients: Callable[..., list[ClientRollup]] = fetch_clients,
        fetch_fleet: Callable[..., Mapping[str, object]] | None = fetch_fleet,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.host = host
        self.port = int(port)
        self.interval = float(interval)
        self._fetch_snapshot = fetch_snapshot
        self._fetch_clients = fetch_clients
        self._fetch_fleet = fetch_fleet
        self._fleet_available = fetch_fleet is not None
        self._clock = clock
        self._prev_counters: dict[tuple[str, str], float] = {}
        self._prev_clients: dict[str, ClientRollup] = {}
        self._prev_at: float | None = None
        self._tick = 0

    # -- sampling ----------------------------------------------------------

    def sample(
        self,
    ) -> tuple[Mapping[str, Family], list[ClientRollup], float]:
        """Fetch one (snapshot, clients, dt) sample from the exporter."""
        now = self._clock()
        dt = now - self._prev_at if self._prev_at is not None else 0.0
        snapshot = self._fetch_snapshot(self.host, self.port)
        clients = self._fetch_clients(self.host, self.port)
        self._prev_at = now
        return snapshot, clients, dt

    # -- rendering ---------------------------------------------------------

    def sample_fleet(self) -> Mapping[str, object] | None:
        """Fetch the ``/fleet`` view, once-degrading on old exporters.

        Exporters predating the web layer (or running ``web=False``)
        404 the route; the first failure disables the section for the
        rest of the run instead of erroring every frame.
        """
        if not self._fleet_available or self._fetch_fleet is None:
            return None
        try:
            return self._fetch_fleet(self.host, self.port)
        except (ReproError, OSError):
            self._fleet_available = False
            return None

    def render_once(self) -> str:
        """Fetch and render one frame, updating delta/rate state."""
        snapshot, clients, dt = self.sample()
        fleet = self.sample_fleet()
        self._tick += 1
        frame = self.render(snapshot, clients, dt, fleet)
        self._prev_counters = self._counter_values(snapshot)
        self._prev_clients = {row.client_id: row for row in clients}
        return frame

    @staticmethod
    def _counter_values(
        snapshot: Mapping[str, Family],
    ) -> dict[tuple[str, str], float]:
        return {
            (name, key): value
            for name, key, value in _rows(snapshot, "counter")
        }

    def render(
        self,
        snapshot: Mapping[str, Family],
        clients: Sequence[ClientRollup],
        dt: float,
        fleet: Mapping[str, object] | None = None,
    ) -> str:
        parts = [
            f"uucs top — {self.host}:{self.port} — tick {self._tick} — "
            f"{len(snapshot)} metrics, {len(clients)} clients"
        ]
        if fleet is not None:
            fleet_section = self._render_fleet(fleet)
            if fleet_section:
                parts.append(fleet_section)
        counters = self._render_counters(snapshot, dt)
        if counters:
            parts.append(counters)
        gauges = self._render_gauges(snapshot)
        if gauges:
            parts.append(gauges)
        histograms = self._render_histograms(snapshot)
        if histograms:
            parts.append(histograms)
        if clients:
            parts.append(self._render_clients(clients, dt))
        return "\n\n".join(parts)

    def _render_counters(self, snapshot: Mapping[str, Family], dt: float) -> str:
        table = TextTable("Counters", ["metric", "series", "value", "Δ", "rate/s"])
        for name, key, value in _rows(snapshot, "counter"):
            prev = self._prev_counters.get((name, key))
            delta = value - prev if prev is not None else None
            rate = delta / dt if delta is not None and dt > 0 else None
            table.add_row(
                name,
                key,
                format_float(value, 0),
                format_float(delta, 0),
                format_float(rate, 2),
            )
        return table.render() if table.rows else ""

    def _render_gauges(self, snapshot: Mapping[str, Family]) -> str:
        table = TextTable("Gauges", ["metric", "series", "value"])
        for name, key, value in _rows(snapshot, "gauge"):
            table.add_row(name, key, format_float(value, 3))
        return table.render() if table.rows else ""

    def _render_histograms(self, snapshot: Mapping[str, Family]) -> str:
        table = TextTable(
            "Histograms",
            ["metric", "series", "count", "mean", "p50", "p90", "p99"],
        )
        for name, family in snapshot.items():
            if family.kind != "histogram":
                continue
            series = family.series
            if not family.labelnames and not series:
                series = [((), (0, 0.0, []))]  # never observed: a bare row
            for labelvalues, (count, total, cumulative) in series:
                table.add_row(
                    name,
                    ",".join(labelvalues),
                    count,
                    format_float(total / count if count else None, 4),
                    *(
                        format_float(
                            quantile_from_buckets(
                                family.bounds, cumulative, count, q
                            ),
                            4,
                        )
                        for q in (0.5, 0.9, 0.99)
                    ),
                )
        return table.render() if table.rows else ""

    @staticmethod
    def _render_fleet(fleet: Mapping[str, object]) -> str:
        """The fleet comfort-headroom table, from the shared ``/fleet``
        view (same server-side helper the web dashboard renders from)."""
        rows = fleet.get("clients")
        if not isinstance(rows, list) or not rows:
            return ""
        table = TextTable(
            "Fleet",
            ["client", "state", "runs", "runs/s", "borrow",
             "c_q", "headroom", "discomforts", "age s"],
        )
        for row in rows:
            if not isinstance(row, Mapping):
                continue
            state = (
                "evicted" if row.get("evicted")
                else "stale" if row.get("stale")
                else "active"
            )
            table.add_row(
                str(row.get("client_id", ""))[:12],
                state,
                format_float(row.get("runs"), 0),  # type: ignore[arg-type]
                format_float(row.get("runs_per_s"), 2),  # type: ignore[arg-type]
                format_float(row.get("borrow_level"), 2),  # type: ignore[arg-type]
                format_float(row.get("min_c_q"), 3),  # type: ignore[arg-type]
                format_float(row.get("min_headroom"), 3),  # type: ignore[arg-type]
                format_float(row.get("discomforts"), 0),  # type: ignore[arg-type]
                format_float(row.get("age_s"), 1),  # type: ignore[arg-type]
            )
        return table.render()

    def _render_clients(self, clients: Sequence[ClientRollup], dt: float) -> str:
        table = TextTable(
            "Clients",
            ["client", "syncs", "Δsyncs", "results", "discomforts",
             "bytes in", "bytes out", "pushes", "last seen"],
        )
        for row in clients:
            prev = self._prev_clients.get(row.client_id)
            delta = row.syncs - prev.syncs if prev is not None else None
            table.add_row(
                row.client_id[:12],
                row.syncs,
                format_float(float(delta) if delta is not None else None, 0),
                row.results,
                row.discomforts,
                _format_bytes(row.bytes_read),
                _format_bytes(row.bytes_written),
                row.pushes,
                format_float(row.last_seen, 1),
            )
        return table.render()

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        iterations: int = 0,
        out: TextIO | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clear: bool = True,
    ) -> int:
        """Poll and redraw until interrupted (or ``iterations`` frames).

        ``iterations == 0`` runs until Ctrl-C; returns frames drawn.
        """
        if out is None:
            out = sys.stdout  # resolved per call so stream swaps are seen
        drawn = 0
        try:
            while iterations <= 0 or drawn < iterations:
                frame = self.render_once()
                out.write((_CLEAR if clear else "") + frame + "\n")
                out.flush()
                drawn += 1
                if iterations > 0 and drawn >= iterations:
                    break
                sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return drawn
