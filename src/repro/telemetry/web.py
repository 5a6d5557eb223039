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

Nothing here draws randomness or touches process-wide state; every
function is pure over snapshots, so the web layer can never perturb a
seeded study.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from collections.abc import Mapping
from typing import Sequence

from repro.telemetry.aggregate import RegistrySnapshot
from repro.util.comfort import c_quantile

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
    # (metric, index of the "outcome" label in the series key)
    ("uucs_session_runs_total", 1),
    ("uucs_client_runs_total", 0),
)


def _numeric_series(snapshot: RegistrySnapshot, name: str) -> dict[str, float]:
    if name not in snapshot:
        return {}
    return {
        key: float(value)
        for key, value in snapshot.series(name).items()
        if isinstance(value, (int, float))
    }


def _gauge_value(snapshot: RegistrySnapshot, name: str) -> float | None:
    if name not in snapshot or snapshot.kind(name) != "gauge":
        return None
    series = _numeric_series(snapshot, name)
    if "" in series:
        return series[""]
    return next(iter(series.values()), None)


def scheduler_summary(
    snapshot: RegistrySnapshot,
) -> tuple[float | None, float | None, float | None]:
    """``(harvested_s, denials, mean ceiling)`` from scheduler families.

    All three are ``None`` for registries that never ran a harvesting
    scheduler, so plain study/client rows render without scheduler
    columns cluttering in as zeros.
    """
    if (
        _SCHED_HARVESTED not in snapshot
        and _SCHED_DENIALS not in snapshot
        and _SCHED_CEILING not in snapshot
    ):
        return None, None, None
    harvested = sum(_numeric_series(snapshot, _SCHED_HARVESTED).values())
    denials = sum(_numeric_series(snapshot, _SCHED_DENIALS).values())
    ceilings = list(_numeric_series(snapshot, _SCHED_CEILING).values())
    mean_ceiling = (
        round(sum(ceilings) / len(ceilings), 4) if ceilings else None
    )
    return round(harvested, 3), denials, mean_ceiling


def snapshot_sample(
    snapshot: RegistrySnapshot,
) -> tuple[float, float | None, float]:
    """The (runs, borrow_level, discomforts) triple of one snapshot.

    ``borrow_level`` is ``None`` when the client reports no borrow
    gauge (history rings coerce that to 0.0; fleet rows keep the
    distinction).  Runs on every ``/push``, so it reads the snapshot's
    raw entries instead of taking :meth:`RegistrySnapshot.series`
    copies.
    """
    runs = discomforts = 0.0
    for name, outcome_index in _RUN_COUNTERS:
        entry = snapshot.raw(name)
        if entry is None or entry.get("kind") != "counter":
            continue
        value = entry.get("value")
        if entry.get("labels"):
            items = value.items() if isinstance(value, Mapping) else ()
        else:
            items = (("", value),)
        for key, item in items:
            if not isinstance(item, (int, float)):
                continue
            runs += item
            parts = key.split(",")
            if len(parts) > outcome_index and parts[outcome_index] == "discomfort":
                discomforts += item
        break  # first present wins; summing both would double-count
    borrow: float | None = None
    gauge = snapshot.raw(_BORROW_GAUGE)
    if gauge is not None and gauge.get("kind") == "gauge":
        value = gauge.get("value")
        if gauge.get("labels"):
            if isinstance(value, Mapping):
                value = next(iter(value.values()), None)
        if isinstance(value, (int, float)):
            borrow = float(value)
    return float(runs), borrow, float(discomforts)


_UNSET = object()


def comfort_cells(
    snapshot: RegistrySnapshot,
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
    if (
        _DISCOMFORT_HISTOGRAM not in snapshot
        or snapshot.kind(_DISCOMFORT_HISTOGRAM) != "histogram"
    ):
        return []
    if borrow is _UNSET:
        borrow = _gauge_value(snapshot, _BORROW_GAUGE)
    cells: list[dict[str, object]] = []
    for key, data in sorted(snapshot.series(_DISCOMFORT_HISTOGRAM).items()):
        if not isinstance(data, Mapping):
            continue
        parts = key.split(",")
        if len(parts) != 2:
            continue  # labels are (task, resource); anything else is noise
        task, resource = parts
        c_q = c_quantile(
            data.get("buckets", {}), int(data.get("count", 0)), quantile
        )
        cells.append(
            {
                "task": task,
                "resource": resource,
                "discomforts": int(data.get("count", 0)),
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
    snapshot: RegistrySnapshot,
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
        sample = snapshot_sample(snapshot)
    runs, borrow_gauge, discomforts = sample
    cells = comfort_cells(snapshot, quantile, borrow=borrow_gauge)
    headrooms = [c["headroom"] for c in cells if c["headroom"] is not None]
    c_qs = [c["c_q"] for c in cells if c["c_q"] is not None]
    sched_harvested, sched_denials, sched_ceiling = scheduler_summary(snapshot)
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


def study_progress(snapshot: RegistrySnapshot) -> dict[str, object] | None:
    """Live sharded-study progress from the fleet registry's gauges.

    Returns ``None`` unless a study driver has pushed (or locally
    recorded) its ``uucs_study_progress_ratio`` gauge; see
    :func:`repro.study.sharded.run_sharded_study`.
    """
    ratio = _gauge_value(snapshot, "uucs_study_progress_ratio")
    if ratio is None:
        return None
    shard_ratio = _numeric_series(snapshot, "uucs_study_shard_progress_ratio")
    shard_runs = _numeric_series(snapshot, "uucs_study_shard_runs_total")
    shards = [
        {
            "shard": key,
            "progress_ratio": value,
            "runs": shard_runs.get(key, 0.0),
        }
        for key, value in sorted(
            shard_ratio.items(), key=lambda kv: (len(kv[0]), kv[0])
        )
    ]
    eta = _gauge_value(snapshot, "uucs_study_eta_seconds")
    rate = _gauge_value(snapshot, "uucs_study_runs_per_second")
    # Supervisor health: total retries across every (shard, reason)
    # series, plus the quarantine/checkpoint-frontier gauges.  All are
    # optional — studies predating the supervisor (or healthy runs with
    # no checkpoint) simply lack the families.
    retries = None
    if (
        "uucs_study_shard_retries_total" in snapshot
        and snapshot.kind("uucs_study_shard_retries_total") == "counter"
    ):
        retries = sum(
            _numeric_series(snapshot, "uucs_study_shard_retries_total").values()
        )
    return {
        "progress_ratio": ratio,
        "users": _gauge_value(snapshot, "uucs_study_users"),
        "users_done": _gauge_value(snapshot, "uucs_study_users_done"),
        "runs_per_s": rate,
        "eta_s": eta,
        "shards": shards,
        "retries": retries,
        "quarantined": _gauge_value(snapshot, "uucs_study_shards_quarantined"),
        "checkpointed": _gauge_value(
            snapshot, "uucs_study_shards_checkpointed"
        ),
    }


def _cdf_unchanged(prev_entry, curr_entry) -> bool:
    """Whether two pushes carry the same discomfort CDF.

    Histogram counts are cumulative — an observation can only grow a
    series' ``count`` — so per-series count equality proves no new
    observations without comparing every bucket.  Runs on every push;
    ``False`` on any shape surprise just falls through to the full diff.
    """
    if prev_entry is curr_entry:
        return True
    if prev_entry is None:
        return False
    prev_value = prev_entry.get("value")
    curr_value = curr_entry.get("value")
    if prev_value is curr_value:
        return True
    try:
        if "count" in curr_value:  # unlabelled: one {count, sum, buckets}
            return curr_value["count"] == prev_value.get("count")
        if len(curr_value) != len(prev_value):
            return False
        for key, series in curr_value.items():
            prev_series = prev_value.get(key)
            if prev_series is None or series["count"] != prev_series["count"]:
                return False
    except (AttributeError, KeyError, TypeError):
        return False
    return True


def discomfort_events(
    client_id: str,
    previous: RegistrySnapshot | None,
    current: RegistrySnapshot,
    at: float,
) -> list[dict[str, object]]:
    """New discomfort events implied by one push (the ``/fleet`` feed).

    Diffs the per-(task, resource) discomfort-histogram counts of a
    client's consecutive pushes.  ``level_le`` is the tightest bucket
    bound that covers every new observation — the finest statement the
    cumulative buckets support about *where* the user hit discomfort.
    """
    entry = current.raw(_DISCOMFORT_HISTOGRAM)
    if entry is None or entry.get("kind") != "histogram":
        return []
    if previous is not None and _cdf_unchanged(
        previous.raw(_DISCOMFORT_HISTOGRAM), entry
    ):
        return []  # unchanged CDF: the common push, settled by counts alone
    curr_series = current.series(_DISCOMFORT_HISTOGRAM)
    prev_series = (
        previous.series(_DISCOMFORT_HISTOGRAM)
        if previous is not None and _DISCOMFORT_HISTOGRAM in previous
        else {}
    )
    events: list[dict[str, object]] = []
    for key, data in sorted(curr_series.items()):
        if not isinstance(data, Mapping):
            continue
        parts = key.split(",")
        if len(parts) != 2:
            continue
        prev_data = prev_series.get(key)
        prev_count = (
            int(prev_data.get("count", 0))
            if isinstance(prev_data, Mapping)
            else 0
        )
        count = int(data.get("count", 0))
        if count <= prev_count:
            continue
        buckets = data.get("buckets", {})
        prev_buckets = (
            prev_data.get("buckets", {}) if isinstance(prev_data, Mapping) else {}
        )
        level_le = None
        if isinstance(buckets, Mapping):
            for bound in sorted(buckets, key=float):
                grew = int(buckets[bound]) > int(
                    prev_buckets.get(bound, 0)
                    if isinstance(prev_buckets, Mapping)
                    else 0
                )
                if grew:
                    level_le = float(bound)
                    break
        events.append(
            {
                "at": round(at, 3),
                "client_id": client_id,
                "task": parts[0],
                "resource": parts[1],
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
