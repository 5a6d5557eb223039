"""Fleet observability API behind the web dashboard (``GET /fleet``).

The paper's §5 advice — borrow aggressively but stay under each user's
discomfort threshold — is only operable if someone can *see* the fleet's
comfort headroom.  This module computes that view from the data the push
gateway already holds: each client's latest registry snapshot carries a
per-(task, resource) discomfort-level histogram
(``uucs_discomfort_level``, recorded by the session layer), whose
cumulative buckets are exactly the discomfort CDF the paper derives
``c_0.05`` from.  The headroom of a client is how far its current borrow
level sits below that CDF's low quantile.

Pieces, all consumed by :class:`~repro.telemetry.exporter.MetricsExporter`
and shared with ``uucs top`` / ``uucs dashboard`` (which read the same
JSON over ``/fleet`` instead of recomputing it):

* :func:`client_fleet_row` — one client's comfort/throughput row;
* :func:`fleet_totals` — headline aggregates over those rows;
* :func:`study_progress` — live sharded-study progress extracted from
  the fleet registry's ``uucs_study_*`` gauges;
* :func:`discomfort_events` — the per-push delta feed of new
  discomfort events;
* :func:`snapshot_sample` — the (runs, borrow, discomforts) triple the
  history ring buffers retain per push;
* :class:`StreamBroker` / :func:`format_sse` — fan-out of pre-serialized
  Server-Sent-Events frames to attached ``/stream`` readers.

Every function reads a snapshot as the :class:`~repro.telemetry.metrics.Family`
records :func:`~repro.telemetry.metrics.check_snapshot` parsed it into,
so each value already has the type its family's kind promises.  Nothing
here draws randomness or touches process-wide state; every function is
pure over those families, so the web layer can never perturb a seeded
study.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from collections.abc import Mapping
from typing import Sequence

from repro.telemetry.metrics import Family
from repro.util.comfort import quantile_from_buckets

__all__ = [
    "HEADROOM_QUANTILE",
    "StreamBroker",
    "client_fleet_row",
    "discomfort_events",
    "fleet_totals",
    "format_sse",
    "scheduler_summary",
    "snapshot_sample",
    "study_progress",
]

#: The comfort quantile headroom is measured against: the contention
#: level below which this fraction of observed discomfort events fell
#: (the fleet-side analogue of the paper's ``c_0.05``).
HEADROOM_QUANTILE = 0.05

#: Metric names the fleet view reads (one place, so renames don't
#: scatter).
_DISCOMFORT_HISTOGRAM = "uucs_discomfort_level"
_BORROW_GAUGE = "uucs_throttle_ceiling"
_SCHED_HARVESTED = "uucs_sched_harvested_resource_seconds_total"
_SCHED_DENIALS = "uucs_sched_admission_denials_total"
_SCHED_CEILING = "uucs_sched_ceiling"
_RUN_COUNTERS = (
    # (metric, index of the "outcome" label in its label values)
    ("uucs_session_runs_total", 1),
    ("uucs_client_runs_total", 0),
)

#: Parsed snapshot families by name, as check_snapshot returns them.
Families = Mapping[str, Family]


def _scalars(families: Families, name: str) -> list[tuple[tuple[str, ...], float]]:
    """Counter or gauge ``name``'s series; none when it is absent or a
    histogram."""
    family = families.get(name)
    if family is None or family.kind == "histogram":
        return []
    return family.series


def _gauge(families: Families, name: str) -> float | None:
    """Gauge ``name``'s value, its first series' when labelled."""
    family = families.get(name)
    if family is None or family.kind != "gauge" or not family.series:
        return None
    return family.series[0][1]


def _cdf(families: Families) -> Family | None:
    """The discomfort histogram, when it has its (task, resource) labels."""
    family = families.get(_DISCOMFORT_HISTOGRAM)
    if family is None or family.kind != "histogram" or len(family.labelnames) != 2:
        return None
    return family


def scheduler_summary(
    families: Families,
) -> tuple[float | None, float | None, float | None]:
    """``(harvested_s, denials, mean ceiling)`` from scheduler families.

    All three are ``None`` for registries that never ran a harvesting
    scheduler, so plain study/client rows render without scheduler
    columns cluttering in as zeros.
    """
    if (
        _SCHED_HARVESTED not in families
        and _SCHED_DENIALS not in families
        and _SCHED_CEILING not in families
    ):
        return None, None, None
    harvested = sum(value for _, value in _scalars(families, _SCHED_HARVESTED))
    denials = sum(value for _, value in _scalars(families, _SCHED_DENIALS))
    ceilings = [value for _, value in _scalars(families, _SCHED_CEILING)]
    mean_ceiling = (
        round(sum(ceilings) / len(ceilings), 4) if ceilings else None
    )
    return round(harvested, 3), denials, mean_ceiling


def snapshot_sample(families: Families) -> tuple[float, float | None, float]:
    """The (runs, borrow_level, discomforts) triple of one snapshot.

    ``borrow_level`` is ``None`` when the client reports no borrow
    gauge (history rings coerce that to 0.0; fleet rows keep the
    distinction).
    """
    runs = discomforts = 0.0
    for name, outcome_index in _RUN_COUNTERS:
        family = families.get(name)
        if family is None or family.kind != "counter":
            continue
        for labelvalues, value in family.series:
            runs += value
            if (
                len(labelvalues) > outcome_index
                and labelvalues[outcome_index] == "discomfort"
            ):
                discomforts += value
        break  # first present wins; summing both would double-count
    return runs, _gauge(families, _BORROW_GAUGE), discomforts


_UNSET = object()


def comfort_cells(
    families: Families,
    quantile: float = HEADROOM_QUANTILE,
    borrow: object = _UNSET,
) -> list[dict[str, object]]:
    """Per-(task, resource) comfort cells from a client's discomfort CDF.

    Each cell carries the observed discomfort count, the ``quantile``
    discomfort level (``c_q`` — the paper's comfort metric computed from
    cumulative buckets), and the headroom left between the client's
    current borrow level and that threshold (``None`` when the client
    reports no borrow gauge).  ``borrow`` lets the per-push hot path
    hand in the already-read gauge instead of re-reading it.
    """
    family = _cdf(families)
    if family is None:
        return []
    if borrow is _UNSET:
        borrow = _gauge(families, _BORROW_GAUGE)
    cells: list[dict[str, object]] = []
    for (task, resource), (count, _, cumulative) in family.series:
        c_q = quantile_from_buckets(family.bounds, cumulative, count, quantile)
        cells.append(
            {
                "task": task,
                "resource": resource,
                "discomforts": count,
                "c_q": round(c_q, 4) if c_q is not None else None,
                "headroom": (
                    round(c_q - borrow, 4)
                    if c_q is not None and borrow is not None
                    else None
                ),
            }
        )
    return cells


def client_fleet_row(
    client_id: str,
    families: Families,
    age_s: float | None = None,
    stale: bool = False,
    evicted: bool = False,
    runs_per_s: float | None = None,
    quantile: float = HEADROOM_QUANTILE,
    sample: tuple[float, float | None, float] | None = None,
) -> dict[str, object]:
    """One client's row of the ``/fleet`` view.

    ``sample`` reuses an already-computed :func:`snapshot_sample` triple
    (the push path records one for the history ring anyway).
    """
    if sample is None:
        sample = snapshot_sample(families)
    runs, borrow_gauge, discomforts = sample
    cells = comfort_cells(families, quantile, borrow=borrow_gauge)
    headrooms = [c["headroom"] for c in cells if c["headroom"] is not None]
    c_qs = [c["c_q"] for c in cells if c["c_q"] is not None]
    sched_harvested, sched_denials, sched_ceiling = scheduler_summary(families)
    return {
        "client_id": client_id,
        "age_s": round(age_s, 3) if age_s is not None else None,
        "stale": bool(stale),
        "evicted": bool(evicted),
        "runs": runs,
        "runs_per_s": round(runs_per_s, 4) if runs_per_s is not None else None,
        "discomforts": discomforts,
        "borrow_level": borrow_gauge,
        # min over cells: the binding constraint is the most sensitive
        # (task, resource) pair, exactly as §5's throttle would see it.
        "min_c_q": min(c_qs) if c_qs else None,
        "min_headroom": min(headrooms) if headrooms else None,
        # Scheduler columns; None when this registry runs no scheduler.
        "sched_harvested_s": sched_harvested,
        "sched_denials": sched_denials,
        "sched_ceiling": sched_ceiling,
        "cells": cells,
    }


def fleet_totals(rows: Sequence[Mapping[str, object]]) -> dict[str, object]:
    """Headline aggregates over active (non-evicted) client rows.

    "Capacity vs. availability" at fleet scale: how many clients are
    reporting, how hard the fleet is borrowing (mean borrow level), and
    how much comfort headroom is left before the most sensitive client
    crosses its ``c_q`` threshold.
    """
    active = [r for r in rows if not r.get("evicted")]
    fresh = [r for r in active if not r.get("stale")]
    borrow_levels = [
        float(r["borrow_level"])  # type: ignore[arg-type]
        for r in fresh
        if r.get("borrow_level") is not None
    ]
    headrooms = [
        float(r["min_headroom"])  # type: ignore[arg-type]
        for r in fresh
        if r.get("min_headroom") is not None
    ]
    rates = [
        float(r["runs_per_s"])  # type: ignore[arg-type]
        for r in fresh
        if r.get("runs_per_s") is not None
    ]
    return {
        "clients": len(rows),
        "active": len(fresh),
        "stale": sum(1 for r in active if r.get("stale")),
        "evicted": sum(1 for r in rows if r.get("evicted")),
        "runs": sum(float(r.get("runs", 0.0)) for r in active),  # type: ignore[arg-type]
        "runs_per_s": round(sum(rates), 4),
        "discomforts": sum(
            float(r.get("discomforts", 0.0)) for r in active  # type: ignore[arg-type]
        ),
        "borrow_level_mean": (
            round(sum(borrow_levels) / len(borrow_levels), 4)
            if borrow_levels
            else None
        ),
        "min_headroom": min(headrooms) if headrooms else None,
    }


def study_progress(families: Families) -> dict[str, object] | None:
    """Live sharded-study progress from the fleet registry's gauges.

    Returns ``None`` unless a study driver has pushed (or locally
    recorded) its ``uucs_study_progress_ratio`` gauge; see
    :func:`repro.study.sharded.run_sharded_study`.
    """
    ratio = _gauge(families, "uucs_study_progress_ratio")
    if ratio is None:
        return None
    shard_runs = dict(_scalars(families, "uucs_study_shard_runs_total"))
    shards = sorted(
        (
            {
                "shard": ",".join(labelvalues),
                "progress_ratio": value,
                "runs": shard_runs.get(labelvalues, 0.0),
            }
            for labelvalues, value in _scalars(
                families, "uucs_study_shard_progress_ratio"
            )
        ),
        key=lambda shard: (len(shard["shard"]), shard["shard"]),
    )
    # Supervisor health: total retries across every (shard, reason)
    # series, plus the quarantine/checkpoint-frontier gauges.  All are
    # optional — studies predating the supervisor (or healthy runs with
    # no checkpoint) simply lack the families.
    retried = families.get("uucs_study_shard_retries_total")
    retries = (
        sum(value for _, value in retried.series)
        if retried is not None and retried.kind == "counter"
        else None
    )
    return {
        "progress_ratio": ratio,
        "users": _gauge(families, "uucs_study_users"),
        "users_done": _gauge(families, "uucs_study_users_done"),
        "runs_per_s": _gauge(families, "uucs_study_runs_per_second"),
        "eta_s": _gauge(families, "uucs_study_eta_seconds"),
        "shards": shards,
        "retries": retries,
        "quarantined": _gauge(families, "uucs_study_shards_quarantined"),
        "checkpointed": _gauge(families, "uucs_study_shards_checkpointed"),
    }


def discomfort_events(
    client_id: str,
    previous: Families | None,
    current: Families,
    at: float,
) -> list[dict[str, object]]:
    """New discomfort events implied by one push (the ``/fleet`` feed).

    Diffs the per-(task, resource) discomfort-histogram counts of a
    client's consecutive pushes, one event per cell whose count grew.
    ``level_le`` is the lowest bucket bound whose cumulative count grew:
    the lowest new observation lies at or below it (new observations at
    0.5 and 0.8 give 0.6), but others may lie above it.
    """
    family = _cdf(current)
    if family is None:
        return []
    before = previous.get(_DISCOMFORT_HISTOGRAM) if previous is not None else None
    seen = dict(before.series) if before is not None else {}
    events: list[dict[str, object]] = []
    for (task, resource), (count, _, cumulative) in family.series:
        prev_count, _, prev_cumulative = seen.get(
            (task, resource), (0, 0.0, [0] * len(cumulative))
        )
        if count <= prev_count:
            continue
        level_le = next(
            (
                bound
                for bound, cum, prev in zip(
                    family.bounds, cumulative, prev_cumulative
                )
                if cum > prev
            ),
            None,
        )
        events.append(
            {
                "at": round(at, 3),
                "client_id": client_id,
                "task": task,
                "resource": resource,
                "count": count - prev_count,
                "level_le": level_le,
            }
        )
    return events


# -- Server-Sent Events ----------------------------------------------------


def format_sse(event: str, data: object, event_id: int | None = None) -> bytes:
    """One SSE frame, pre-serialized so fan-out can't interleave.

    ``data`` is JSON-encoded compactly (no embedded newlines), so the
    frame is a single ``data:`` line and readers can split on blank
    lines without reassembly.
    """
    payload = json.dumps(data, separators=(",", ":"))
    head = f"event: {event}\n"
    if event_id is not None:
        head += f"id: {event_id}\n"
    return (head + f"data: {payload}\n\n").encode("utf-8")


class _Subscription:
    """One ``/stream`` reader's bounded frame queue.

    ``frames`` drops its oldest frame when full (``deque`` ``maxlen``);
    ``ready`` is set whenever it holds something.  A ``None`` entry is
    the broker's end-of-stream sentinel.
    """

    __slots__ = ("frames", "dropped", "ready")

    def __init__(self, max_queue: int):
        self.frames: deque[bytes | None] = deque(maxlen=max_queue)
        self.dropped = 0
        self.ready = asyncio.Event()

    def put(self, frame: bytes | None) -> None:
        if len(self.frames) == self.frames.maxlen:
            self.dropped += 1
        self.frames.append(frame)
        self.ready.set()

    def take(self) -> list[bytes | None]:
        """Every queued frame, oldest first; empties the queue."""
        batch = list(self.frames)
        self.frames.clear()
        self.ready.clear()
        return batch


class StreamBroker:
    """Fan-out of pre-serialized SSE frames to ``/stream`` readers.

    Each subscriber owns a bounded queue; a slow reader drops its
    *oldest* frames (never a partial frame, and never anyone else's) so
    one stalled browser tab cannot wedge the push gateway.  ``close()``
    ends every reader with a ``None`` sentinel so exporter shutdown
    never leaves a handler parked on its queue.

    The broker lives on the exporter's event loop: every method except
    the ``subscribers`` count must be called from the loop thread, and
    none of them blocks.
    """

    def __init__(self, max_queue: int = 256):
        self._max_queue = int(max_queue)
        self._subscribers: set[_Subscription] = set()
        self._closed = False

    def subscribe(self) -> _Subscription:
        sub = _Subscription(self._max_queue)
        if self._closed:
            sub.put(None)  # reader sees an immediate clean end
        else:
            self._subscribers.add(sub)
        return sub

    def unsubscribe(self, sub: _Subscription) -> None:
        self._subscribers.discard(sub)

    @property
    def subscribers(self) -> int:
        return len(self._subscribers)

    def publish(self, frame: bytes) -> int:
        """Enqueue ``frame`` for every subscriber; returns receivers."""
        for sub in self._subscribers:
            sub.put(frame)
        return len(self._subscribers)

    def close(self) -> None:
        self._closed = True
        for sub in self._subscribers:
            # Shutdown beats a lagging reader's backlog: the sentinel
            # displaces the oldest frame of a full queue.
            sub.put(None)
        self._subscribers.clear()
