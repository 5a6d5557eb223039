"""Process-local metrics: counters, gauges, histograms, and a registry.

In the spirit of SupreMM's metric catalogue, every metric carries a
description and a unit so the exposition is self-documenting.  The
registry renders two views:

* :meth:`MetricsRegistry.render` — Prometheus-style plain-text
  exposition (``# HELP`` / ``# TYPE`` / ``# UNIT`` comments followed by
  samples), scrapeable via ``uucs serve --metrics-port``;
* :meth:`MetricsRegistry.snapshot` — a plain dict for tests and
  programmatic consumers.

Everything is thread-safe and free of randomness, so instrumented code
can run inside seeded simulations without perturbing them.  One registry
is shared across threads: a server's event-loop thread records request
metrics while the metrics exporter's loop thread renders the same
registry, and the caller's own threads (a client, a study driver, a test)
record into it too.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping, Sequence

from repro.errors import ValidationError
from repro.util.comfort import quantile_from_buckets

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
]

#: Default histogram buckets (seconds), biased toward request latencies.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# quantile_from_buckets lives in repro.util.comfort (one implementation
# for the telemetry, dashboard, scheduler, and analysis layers) and is
# re-exported here for its historical consumers.


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared name/description/unit/label plumbing for all metric types."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ):
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValidationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not label or not label.replace("_", "").isalnum():
                raise ValidationError(f"invalid label name {label!r}")
        self.name = name
        self.description = description
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValidationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    # Exposition helpers -------------------------------------------------

    def _header_lines(self) -> list[str]:
        lines = []
        if self.description:
            lines.append(f"# HELP {self.name} {self.description}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        if self.unit:
            lines.append(f"# UNIT {self.name} {self.unit}")
        return lines

    def render(self) -> str:
        raise NotImplementedError

    def snapshot_value(self) -> object:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ):
        super().__init__(name, description, unit, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0 if never incremented)."""
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def render(self) -> str:
        lines = self._header_lines()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for labelvalues, value in items:
            labels = _format_labels(self.labelnames, labelvalues)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return "\n".join(lines)

    def snapshot_value(self) -> object:
        with self._lock:
            if not self.labelnames:
                return self._values.get((), 0.0)
            return {",".join(key): value for key, value in sorted(self._values.items())}


class Gauge(_Metric):
    """A value that can go up and down (setpoints, ceilings, sizes)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ):
        super().__init__(name, description, unit, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def render(self) -> str:
        lines = self._header_lines()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for labelvalues, value in items:
            labels = _format_labels(self.labelnames, labelvalues)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return "\n".join(lines)

    def snapshot_value(self) -> object:
        with self._lock:
            if not self.labelnames:
                return self._values.get((), 0.0)
            return {",".join(key): value for key, value in sorted(self._values.items())}


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0


class Histogram(_Metric):
    """Cumulative-bucket histogram of observations (latencies, sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, description, unit, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValidationError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValidationError("histogram bucket bounds must be distinct")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.buckets = tuple(bounds)
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
            series.count += 1
            series.total += value

    def count(self, **labels: object) -> int:
        """Number of observations for the labelled series."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations for the labelled series."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.total if series is not None else 0.0

    def quantile(self, q: float, **labels: object) -> float | None:
        """Estimate the ``q``-quantile of the labelled series.

        Linear interpolation within cumulative buckets (see
        :func:`quantile_from_buckets`); ``None`` with no observations.
        """
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None:
                return None
            cumulative = list(series.bucket_counts)
            count = series.count
        return quantile_from_buckets(self.buckets, cumulative, count, q)

    def add_raw(
        self,
        count: int,
        total: float,
        bucket_counts: Sequence[int],
        **labels: object,
    ) -> None:
        """Fold pre-aggregated series data in (cumulative bucket counts).

        This is the histogram half of :meth:`MetricsRegistry.merge`:
        ``bucket_counts`` must align with :attr:`buckets` and already be
        cumulative, exactly as produced by :meth:`snapshot_value`.
        """
        if len(bucket_counts) != len(self.buckets):
            raise ValidationError(
                f"histogram {self.name!r} has {len(self.buckets)} buckets, "
                f"cannot merge {len(bucket_counts)}"
            )
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for i, cum in enumerate(bucket_counts):
                series.bucket_counts[i] += int(cum)
            series.count += int(count)
            series.total += float(total)

    def render(self) -> str:
        lines = self._header_lines()
        with self._lock:
            items = sorted(self._series.items())
        for labelvalues, series in items:
            # bucket_counts are maintained cumulatively by observe().
            for bound, cumulative in zip(self.buckets, series.bucket_counts):
                labels = _format_labels(
                    self.labelnames + ("le",),
                    labelvalues + (_format_value(bound),),
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(
                self.labelnames + ("le",), labelvalues + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{labels} {series.count}")
            plain = _format_labels(self.labelnames, labelvalues)
            lines.append(f"{self.name}_sum{plain} {repr(series.total)}")
            lines.append(f"{self.name}_count{plain} {series.count}")
        return "\n".join(lines)

    def snapshot_value(self) -> object:
        with self._lock:
            out = {}
            for key, series in sorted(self._series.items()):
                out[",".join(key)] = {
                    "count": series.count,
                    "sum": series.total,
                    "buckets": dict(zip(
                        (_format_value(b) for b in self.buckets),
                        series.bucket_counts,
                    )),
                }
            if not self.labelnames:
                return out.get("", {"count": 0, "sum": 0.0, "buckets": {}})
            return out


class MetricsRegistry:
    """Get-or-create registry of named metrics with a text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, *args: object, **kwargs: object) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValidationError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, *args, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, description, unit, labelnames)  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, description, unit, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, description, unit, labelnames, buckets
        )  # type: ignore[return-value]

    def get(self, name: str) -> _Metric | None:
        """The registered metric named ``name``, if any."""
        with self._lock:
            return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __iter__(self) -> Iterable[_Metric]:
        with self._lock:
            return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def render(self) -> str:
        """Prometheus-style plain-text exposition of every metric."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return "\n".join(metric.render() for metric in metrics) + ("\n" if metrics else "")

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A plain-dict view: name -> {kind, description, unit, labels, value}.

        Labelled series appear under ``value`` keyed by the
        comma-joined label values (in ``labels`` order).  The snapshot
        is JSON-safe, so it doubles as the push-gateway wire payload
        and the input to :meth:`merge`.
        """
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return {
            metric.name: {
                "kind": metric.kind,
                "description": metric.description,
                "unit": metric.unit,
                "labels": list(metric.labelnames),
                "value": metric.snapshot_value(),
            }
            for metric in metrics
        }

    def merge(self, snapshot: Mapping[str, Mapping[str, object]]) -> int:
        """Fold a :meth:`snapshot` dict into this registry.

        Federation semantics: **counter-sum** (counts add), **gauge-last**
        (the merged snapshot's value wins), **histogram-bucket-add**
        (cumulative bucket counts, counts, and sums add; bucket bounds
        must match).  Merging the snapshots of N registries that each
        observed a disjoint share of a sample stream yields the same
        counters and histograms as one registry that observed them all.

        Returns the number of metrics merged.  Raises
        :class:`~repro.errors.ValidationError` on kind, label, or
        bucket-bound mismatches.  Caveat: label values containing commas
        are ambiguous in snapshot form and are rejected here.
        """
        merged = 0
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = str(entry.get("kind", ""))
            labelnames = tuple(str(label) for label in entry.get("labels", ()))
            description = str(entry.get("description", ""))
            unit = str(entry.get("unit", ""))
            value = entry.get("value")
            if kind == "counter":
                counter = self.counter(name, description, unit, labelnames)
                for labelvalues, amount in _scalar_series(name, labelnames, value):
                    counter.inc(float(amount), **dict(zip(labelnames, labelvalues)))
            elif kind == "gauge":
                gauge = self.gauge(name, description, unit, labelnames)
                for labelvalues, amount in _scalar_series(name, labelnames, value):
                    gauge.set(float(amount), **dict(zip(labelnames, labelvalues)))
            elif kind == "histogram":
                series = _histogram_series(name, labelnames, value)
                if not series:
                    continue  # no observations -> no bounds to recover
                bounds = sorted(float(b) for b in series[0][1].get("buckets", {}))
                existing = self.get(name)
                if existing is not None and (
                    type(existing) is not Histogram
                    or tuple(bounds) != existing.buckets
                ):
                    raise ValidationError(
                        f"cannot merge histogram {name!r}: bucket bounds or "
                        f"kind differ from the registered metric"
                    )
                histogram = self.histogram(
                    name, description, unit, labelnames, buckets=bounds
                )
                for labelvalues, data in series:
                    buckets = data.get("buckets", {})
                    histogram.add_raw(
                        int(data.get("count", 0)),
                        float(data.get("sum", 0.0)),
                        [int(buckets.get(_format_value(b), 0)) for b in bounds],
                        **dict(zip(labelnames, labelvalues)),
                    )
            else:
                raise ValidationError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )
            merged += 1
        return merged


def _split_series_key(
    name: str, labelnames: Sequence[str], key: str
) -> tuple[str, ...]:
    labelvalues = tuple(key.split(","))
    if len(labelvalues) != len(labelnames):
        raise ValidationError(
            f"snapshot series {key!r} of metric {name!r} does not match "
            f"labels {tuple(labelnames)} (comma in a label value?)"
        )
    return labelvalues


def _scalar_series(
    name: str, labelnames: Sequence[str], value: object
) -> list[tuple[tuple[str, ...], float]]:
    """Counter/gauge snapshot value -> [(labelvalues, value)]."""
    if not labelnames:
        return [((), float(value))]  # type: ignore[arg-type]
    if not isinstance(value, Mapping):
        raise ValidationError(f"labelled metric {name!r} needs a series mapping")
    return [
        (_split_series_key(name, labelnames, str(key)), float(amount))  # type: ignore[arg-type]
        for key, amount in sorted(value.items())
    ]


def _histogram_series(
    name: str, labelnames: Sequence[str], value: object
) -> list[tuple[tuple[str, ...], Mapping[str, object]]]:
    """Histogram snapshot value -> [(labelvalues, {count, sum, buckets})]."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"histogram {name!r} needs a mapping value")
    if not labelnames:
        return [((), value)] if value.get("count", 0) else []
    out = []
    for key, data in sorted(value.items()):
        if not isinstance(data, Mapping):
            raise ValidationError(f"histogram {name!r} series {key!r} malformed")
        out.append((_split_series_key(name, labelnames, str(key)), data))
    return out
