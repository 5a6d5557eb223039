"""Trace assembly: rebuild distributed trace trees from event logs.

Every closed span is one ``"span"`` event in some process's JSON-lines
log (see :mod:`repro.telemetry.tracing`).  A distributed operation — a
client syncing against a server, a sharded study fanning out to worker
processes — therefore leaves its trace scattered across several files.
This module reassembles them: feed :func:`load_spans` every log you
have, and :func:`assemble_traces` groups the spans by trace id, links
children to parents across process boundaries, and returns one
:class:`Trace` tree per root span.

The loader is deliberately hostile-input-tolerant, because real logs
are hostile: a crashed writer truncates its final line, a copied log
duplicates events, a missing file drops a subtree.  Problems never
raise — they come back as human-readable strings alongside whatever
could be salvaged:

* malformed lines are skipped (:func:`read_events_lenient`);
* duplicated span ids keep the first record seen and report the rest;
* spans whose parent never closed (or whose log is missing) are
  *adopted* as extra roots of their trace, flagged so the operator
  knows the tree above them is incomplete.

On top of the assembled trees sit the analysis passes ``uucs trace``
renders: per-span-name duration statistics (:func:`span_name_stats`,
whose table ``uucs metrics-summary`` prints too), the critical path of
a trace (:meth:`Trace.critical_path` — the greedy longest-child walk
from the root, with per-span self time), and Chrome trace-event JSON
(:func:`to_chrome_trace`) loadable in Perfetto or ``chrome://tracing``.

Timestamps: a span event's ``ts`` is stamped when the span *closes*
(default clock ``time.time``), so a span's start is derived as
``ts - duration_s``.  Durations come from a monotonic clock, so derived
starts carry sub-millisecond skew against each other — fine for the
visual timeline, not a clock-sync protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import StoreError
from repro.telemetry.events import Event, read_events_lenient
from repro.util.comfort import quantile_from_ecdf
from repro.util.tables import TextTable, format_float

__all__ = [
    "SpanRecord",
    "Trace",
    "assemble_traces",
    "load_spans",
    "render_critical_path",
    "render_span_stats",
    "render_trace_list",
    "render_trace_tree",
    "span_name_stats",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Structural keys of a ``"span"`` event; everything else is a
#: user-supplied annotation and lands in :attr:`SpanRecord.fields`.
_STRUCTURAL = frozenset(
    {"span", "id", "parent", "trace", "depth", "duration_s", "outcome"}
)

#: The duration quantiles :func:`span_name_stats` reports.
_QUANTILES = (("p50_s", 0.5), ("p90_s", 0.9), ("p99_s", 0.99))


@dataclass(frozen=True)
class SpanRecord:
    """One closed span, as recovered from an event log."""

    #: Span name (the ``span`` field of the event).
    name: str
    #: Globally unique id, ``"<process-guid>:<seq>"``.
    span_id: str
    #: Parent span id (possibly in another process's log) or None.
    parent_id: str | None
    #: Root span id of the trace; None for pre-tracing legacy records.
    trace_id: str | None
    #: Wall-clock time the span closed (the event's ``ts``).
    end: float
    duration_s: float
    outcome: str
    #: Local nesting depth at creation (0 for a process-root span).
    depth: int
    #: Non-structural annotations carried on the event.
    fields: Mapping[str, object] = field(default_factory=dict)
    #: Which log file the record came from (for problem reports).
    source: str = ""

    @classmethod
    def from_event(cls, event: Event, source: str = "") -> "SpanRecord":
        """The span one ``"span"`` event records.

        An event without a string ``id`` gets ``span_id=""``.  Raises
        ``TypeError`` or ``ValueError`` when the duration or depth is not
        numeric.
        """
        fields = event.fields
        span_id = fields.get("id")
        parent = fields.get("parent")
        trace = fields.get("trace")
        return cls(
            name=str(fields.get("span", "?")),
            span_id=span_id if isinstance(span_id, str) else "",
            parent_id=parent if isinstance(parent, str) and parent else None,
            trace_id=trace if isinstance(trace, str) and trace else None,
            end=event.ts,
            duration_s=float(fields.get("duration_s", 0.0)),
            outcome=str(fields.get("outcome", "ok")),
            depth=int(fields.get("depth", 0)),
            fields={k: v for k, v in fields.items() if k not in _STRUCTURAL},
            source=source,
        )

    @property
    def start(self) -> float:
        """Derived start time (``end - duration_s``)."""
        return self.end - self.duration_s

    @property
    def process(self) -> str:
        """The process guid prefix of the span id."""
        guid, sep, _ = self.span_id.rpartition(":")
        return guid if sep else self.span_id

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def load_spans(
    paths: Sequence[str | Path],
) -> tuple[list[SpanRecord], list[str]]:
    """Load every span event from ``paths``, best-effort.

    Returns ``(records, problems)``.  Unreadable files, malformed lines,
    span events without a usable id, and duplicate span ids (first
    occurrence wins, in ``paths`` order) all degrade to problem strings
    rather than exceptions.
    """
    records: list[SpanRecord] = []
    seen: dict[str, str] = {}
    problems: list[str] = []
    for path in paths:
        label = str(path)
        events, file_problems = read_events_lenient(path)
        problems.extend(f"{label}: {p}" for p in file_problems)
        for event in events:
            if event.name != "span":
                continue
            span_id = event.fields.get("id")
            if not isinstance(span_id, str) or not span_id:
                problems.append(
                    f"{label}: span event without an id (span="
                    f"{event.fields.get('span')!r}); skipped"
                )
                continue
            if span_id in seen:
                problems.append(
                    f"{label}: duplicate span id {span_id!r} "
                    f"(first seen in {seen[span_id]}); skipped"
                )
                continue
            seen[span_id] = label
            try:
                records.append(SpanRecord.from_event(event, label))
            except (TypeError, ValueError):
                problems.append(
                    f"{label}: span {span_id!r} has non-numeric "
                    "duration/depth; skipped"
                )
    return records, problems


class Trace:
    """One assembled trace: every recovered span sharing a trace id."""

    def __init__(
        self,
        trace_id: str,
        spans: Sequence[SpanRecord],
        orphans: Sequence[str] = (),
    ):
        #: Chronological (by derived start, ties by span id) — merge
        #: order of the input logs cannot leak into the assembly.
        self.spans: tuple[SpanRecord, ...] = tuple(
            sorted(spans, key=lambda r: (r.start, r.span_id))
        )
        self.trace_id = trace_id
        #: Span ids adopted as roots because their parent is missing.
        self.orphans: tuple[str, ...] = tuple(orphans)
        self._by_id = {r.span_id: r for r in self.spans}
        self._children: dict[str, list[SpanRecord]] = {}
        roots: list[SpanRecord] = []
        for record in self.spans:
            if record.parent_id is not None and record.parent_id in self._by_id:
                self._children.setdefault(record.parent_id, []).append(record)
            else:
                roots.append(record)
        self.roots: tuple[SpanRecord, ...] = tuple(roots)

    def __len__(self) -> int:
        return len(self.spans)

    def get(self, span_id: str) -> SpanRecord | None:
        return self._by_id.get(span_id)

    def children(self, span_id: str) -> tuple[SpanRecord, ...]:
        return tuple(self._children.get(span_id, ()))

    @property
    def root(self) -> SpanRecord:
        """The primary root (earliest; the true root unless orphaned)."""
        return self.roots[0]

    @property
    def start(self) -> float:
        return min(r.start for r in self.spans)

    @property
    def end(self) -> float:
        return max(r.end for r in self.spans)

    @property
    def duration_s(self) -> float:
        """Wall-clock extent of the whole tree (not the root's duration:
        an orphan subtree can outlive its recovered ancestors)."""
        return self.end - self.start

    @property
    def processes(self) -> tuple[str, ...]:
        """Sorted guids of every process that contributed a span."""
        return tuple(sorted({r.process for r in self.spans}))

    def self_time(self, span_id: str) -> float:
        """``duration - sum(child durations)``, floored at zero.

        The floor matters: concurrent children (shard workers) can sum
        to more than their parent's wall time.
        """
        record = self._by_id[span_id]
        spent = sum(c.duration_s for c in self._children.get(span_id, ()))
        return max(0.0, record.duration_s - spent)

    def critical_path(self) -> tuple[SpanRecord, ...]:
        """Root-to-leaf chain through the longest child at each step.

        The greedy longest-child walk is the classic critical-path
        approximation for span trees: at every level, descend into the
        child that consumed the most wall time.  The returned chain is
        the sequence of spans an optimisation pass should look at
        first; pair each with :meth:`self_time` to see where the time
        actually went.
        """
        path: list[SpanRecord] = []
        current = max(self.roots, key=lambda r: r.duration_s)
        while current is not None:
            path.append(current)
            children = self._children.get(current.span_id)
            current = (
                max(children, key=lambda r: r.duration_s) if children else None
            )
        return tuple(path)


def assemble_traces(
    records: Iterable[SpanRecord],
) -> tuple[list[Trace], list[str]]:
    """Group span records into :class:`Trace` trees.

    Grouping key is the recorded ``trace`` id; legacy records without
    one are resolved by walking their parent chain to the topmost
    recovered ancestor (cycle-safe).  Spans whose parent id names a
    span that was never recovered become adopted roots of their trace,
    reported in ``problems``.  Traces come back largest-first (span
    count, then earliest start).
    """
    records = list(records)
    by_id = {r.span_id: r for r in records}
    problems: list[str] = []

    def resolve_trace(record: SpanRecord) -> str:
        if record.trace_id is not None:
            return record.trace_id
        seen = {record.span_id}
        current = record
        while current.parent_id is not None and current.parent_id in by_id:
            current = by_id[current.parent_id]
            if current.trace_id is not None:
                return current.trace_id
            if current.span_id in seen:  # corrupt log: parent cycle
                break
            seen.add(current.span_id)
        return current.span_id

    grouped: dict[str, list[SpanRecord]] = {}
    for record in records:
        grouped.setdefault(resolve_trace(record), []).append(record)

    traces: list[Trace] = []
    for trace_id, members in grouped.items():
        ids = {r.span_id for r in members}
        orphans = [
            r.span_id
            for r in members
            if r.parent_id is not None and r.parent_id not in ids
        ]
        for span_id in orphans:
            record = by_id[span_id]
            problems.append(
                f"trace {trace_id}: span {span_id!r} ({record.name}) has "
                f"missing parent {record.parent_id!r}; adopted as a root"
            )
        traces.append(Trace(trace_id, members, orphans=sorted(orphans)))
    traces.sort(key=lambda t: (-len(t), t.start, t.trace_id))
    return traces, problems


def span_name_stats(
    records: Iterable[SpanRecord],
) -> dict[str, dict[str, float]]:
    """Duration stats per span name: count, errors, total/mean/min/max
    and p50/p90/p99.

    The quantiles are exact, not bucket estimates: each is the smallest
    recorded duration whose empirical CDF reaches ``q``
    (:func:`repro.util.comfort.quantile_from_ecdf`), so
    ``min <= p50 <= p90 <= p99 <= max`` always holds.  ``uucs trace``
    and ``uucs metrics-summary`` both render this table.
    """
    durations: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for record in records:
        durations.setdefault(record.name, []).append(record.duration_s)
        errors[record.name] = errors.get(record.name, 0) + (not record.ok)
    stats: dict[str, dict[str, float]] = {}
    for name, values in durations.items():
        ordered = np.sort(values)
        ecdf = np.arange(1, len(ordered) + 1) / len(ordered)
        total = sum(values)
        stats[name] = {
            "count": len(values),
            "errors": errors[name],
            "total_s": total,
            "mean_s": total / len(values),
            "min_s": float(ordered[0]),
            "max_s": float(ordered[-1]),
            **{
                label: quantile_from_ecdf(ordered, ecdf, q)
                for label, q in _QUANTILES
            },
        }
    return stats


def to_chrome_trace(traces: Sequence[Trace]) -> dict[str, object]:
    """Render traces as Chrome trace-event JSON (Perfetto-loadable).

    Each span becomes one complete (``"ph": "X"``) event; each source
    process becomes a Chrome "process" named by its guid via metadata
    events, so the per-process lanes in the UI map one-to-one onto the
    real processes.  Timestamps are microseconds relative to the
    earliest span start across all ``traces`` (the format wants small
    positive numbers, not epochs).  Concurrent same-process spans (the
    asyncio TCP server's) share one thread lane and simply overlap.
    """
    events: list[dict[str, object]] = []
    processes = sorted({r.process for t in traces for r in t.spans})
    pids = {guid: i + 1 for i, guid in enumerate(processes)}
    for guid in processes:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pids[guid],
                "tid": 0,
                "args": {"name": guid},
            }
        )
    if traces:
        origin = min(t.start for t in traces)
        for trace in traces:
            for record in trace.spans:
                events.append(
                    {
                        "name": record.name,
                        "cat": "span",
                        "ph": "X",
                        "ts": round((record.start - origin) * 1e6, 3),
                        "dur": round(record.duration_s * 1e6, 3),
                        "pid": pids[record.process],
                        "tid": 1,
                        "args": {
                            "id": record.span_id,
                            "parent": record.parent_id,
                            "trace": trace.trace_id,
                            "outcome": record.outcome,
                            **{str(k): v for k, v in record.fields.items()},
                        },
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(traces: Sequence[Trace], path: str | Path) -> None:
    """Serialize :func:`to_chrome_trace` output to ``path``, making its
    directory; :class:`~repro.errors.StoreError` if it cannot."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(to_chrome_trace(traces), sort_keys=True),
            encoding="utf-8",
        )
    except OSError as exc:
        raise StoreError(f"cannot write chrome trace {path}: {exc}") from exc


# -- text renderers (uucs trace) -------------------------------------------


def render_trace_list(traces: Sequence[Trace]) -> str:
    table = TextTable(
        "Traces",
        ["trace", "root span", "spans", "procs", "duration s", "errors"],
    )
    for trace in traces:
        table.add_row(
            trace.trace_id,
            trace.root.name,
            len(trace),
            len(trace.processes),
            format_float(trace.duration_s, 4),
            sum(1 for r in trace.spans if not r.ok),
        )
    return table.render()


def render_trace_tree(trace: Trace) -> str:
    """Indented tree of one trace, roots first, children by start time."""
    lines = [
        f"trace {trace.trace_id}: {len(trace)} span(s) across "
        f"{len(trace.processes)} process(es), "
        f"{format_float(trace.duration_s, 4)}s"
    ]

    def walk(record: SpanRecord, indent: int) -> None:
        mark = "" if record.ok else f"  !{record.outcome}"
        adopted = "  (adopted root)" if record.span_id in trace.orphans else ""
        lines.append(
            f"{'  ' * indent}- {record.name}  [{record.span_id}]  "
            f"{format_float(record.duration_s, 4)}s{mark}{adopted}"
        )
        for child in trace.children(record.span_id):
            walk(child, indent + 1)

    for root in trace.roots:
        walk(root, 1)
    return "\n".join(lines)


def render_critical_path(trace: Trace) -> str:
    path = trace.critical_path()
    total = path[0].duration_s or 1.0
    table = TextTable(
        f"Critical path of trace {trace.trace_id}",
        ["span", "id", "process", "duration s", "self s", "share"],
    )
    for record in path:
        table.add_row(
            record.name,
            record.span_id,
            record.process,
            format_float(record.duration_s, 4),
            format_float(trace.self_time(record.span_id), 4),
            f"{100.0 * record.duration_s / total:.1f}%",
        )
    return table.render()


def render_span_stats(records: Iterable[SpanRecord]) -> str:
    stats = span_name_stats(records)
    table = TextTable(
        "Span durations",
        ["span", "count", "errors", "total s", "mean s", "min s",
         "p50 s", "p90 s", "p99 s", "max s"],
    )
    for name in sorted(stats):
        entry = stats[name]
        table.add_row(
            name,
            entry["count"],
            entry["errors"],
            format_float(entry["total_s"], 4),
            format_float(entry["mean_s"], 4),
            format_float(entry["min_s"], 4),
            format_float(entry["p50_s"], 4),
            format_float(entry["p90_s"], 4),
            format_float(entry["p99_s"], 4),
            format_float(entry["max_s"], 4),
        )
    return table.render()
