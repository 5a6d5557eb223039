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
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import ValidationError
from repro.util.comfort import quantile_from_buckets

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Shape",
    "check_snapshot",
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


def _check_names(name: str, labelnames: Sequence[str]) -> None:
    if not name or not name.replace("_", "").replace(":", "").isalnum():
        raise ValidationError(f"invalid metric name {name!r}")
    for label in labelnames:
        if not label or not label.replace("_", "").isalnum():
            raise ValidationError(f"invalid label name {label!r}")


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
        _check_names(name, labelnames)
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


class _ValueMetric(_Metric):
    """One float per labelled series: what a counter and a gauge share."""

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ):
        super().__init__(name, description, unit, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0 if never written)."""
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


class Counter(_ValueMetric):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)


class Gauge(_ValueMetric):
    """A value that can go up and down (setpoints, ceilings, sizes)."""

    kind = "gauge"

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

    def shape(self, name: str) -> Shape | None:
        """The registered ``name``'s :data:`Shape`; None if unregistered."""
        metric = self.get(name)
        if metric is None:
            return None
        return metric.kind, metric.labelnames, getattr(metric, "buckets", None)

    def merge(self, snapshot: Mapping[str, object]) -> int:
        """Fold a :meth:`snapshot` dict into this registry.

        Federation semantics: **counter-sum** (counts add), **gauge-last**
        (the merged snapshot's value wins), **histogram-bucket-add**
        (cumulative bucket counts, counts, and sums add; bucket bounds
        must match).  Merging the snapshots of N registries that each
        observed a disjoint share of a sample stream yields the same
        counters and histograms as one registry that observed them all.

        Returns the number of metrics merged.  Raises
        :class:`~repro.errors.ValidationError`, before changing
        anything, when :func:`check_snapshot` rejects the snapshot
        against this registry.
        """
        return self.fold(check_snapshot(snapshot, self.shape))

    def fold(self, families: Mapping[str, Family]) -> int:
        """Fold families :func:`check_snapshot` parsed into this registry,
        with :meth:`merge`'s semantics; returns the number folded.

        Raises :class:`~repro.errors.ValidationError`, before changing
        anything, when a family's kind, label names or bucket bounds
        differ from those this registry holds under its name.
        """
        for name, family in families.items():
            known = self.shape(name)
            if not family.fits(known):
                raise ValidationError(
                    f"metric {name!r} is {known}, cannot fold {family[:3]}"
                )
        merged = 0
        for name, family in families.items():
            kind, labelnames, bounds, description, unit, series = family
            args = (name, description, unit, labelnames)
            if kind == "counter":
                counter = self.counter(*args)
                for labelvalues, amount in series:
                    counter.inc(amount, **dict(zip(labelnames, labelvalues)))
            elif kind == "gauge":
                gauge = self.gauge(*args)
                for labelvalues, amount in series:
                    gauge.set(amount, **dict(zip(labelnames, labelvalues)))
            elif bounds is None:
                continue  # no observations -> no bounds to recover
            else:
                histogram = self.histogram(*args, buckets=bounds)
                for labelvalues, (count, total, cumulative) in series:
                    histogram.add_raw(
                        count, total, cumulative,
                        **dict(zip(labelnames, labelvalues)),
                    )
            merged += 1
        return merged


#: What all snapshots of one metric family must agree on: kind, label
#: names, and bucket bounds (None for a histogram never observed).
Shape = tuple[str, tuple[str, ...], tuple[float, ...] | None]


class Family(NamedTuple):
    """One snapshot entry, checked and parsed by :func:`check_snapshot`.

    The first three fields are its :data:`Shape`.  ``series`` holds
    ``(label values, value)`` pairs in the order of their snapshot
    series keys (the comma-joined label values); a value is a float for
    counters and gauges and ``(count, sum, cumulative bucket counts)``
    for histograms, the counts aligned with ``bounds``.  An unlabelled
    histogram never observed has no series and no bounds.
    """

    kind: str
    labelnames: tuple[str, ...]
    bounds: tuple[float, ...] | None
    description: str
    unit: str
    series: list[tuple[tuple[str, ...], Any]]

    def fits(self, known: Shape | None) -> bool:
        """Whether this family folds under a name of shape ``known``
        (None: not held): the same kind and label names, and the same
        bucket bounds or none."""
        return known is None or (
            self[:2] == known[:2] and self.bounds in (None, known[2])
        )


def check_snapshot(
    snapshot: object, shape_of: Callable[[str], Shape | None]
) -> dict[str, Family]:
    """The rules a :meth:`MetricsRegistry.snapshot` dict must pass to be
    merged; returns its families, parsed, in name order.  The push
    gateway, the fleet view and ``uucs top`` read snapshots only
    through this.

    Raises :class:`~repro.errors.ValidationError` for a snapshot that is
    malformed on its own (see :func:`_parse_family`), or that gives a
    family other kind, label names or bucket bounds than
    ``shape_of(name)``.
    """
    if type(snapshot) is not dict:
        raise ValidationError("a metrics snapshot must be an object")
    return {
        name: _parse_family(name, snapshot[name], shape_of(name))
        for name in sorted(snapshot)
    }


#: The value types a snapshot may hold; ``bool`` is not a number here.
_NUMBER_TYPES = (int, float)


def _parse_family(name: str, entry: object, known: Shape | None) -> Family:
    """Rejects an entry that is not an object, an unknown kind, a bad
    name or label list, a value of the wrong type, a negative counter, a
    series key that does not split into the label values (a comma in a
    value), histogram series with missing or differing bounds, and any
    shape unlike ``known``.  A known shape's names are valid already."""
    if type(entry) is not dict:
        raise ValidationError(f"snapshot entry {name!r} must be an object")
    kind, labels = entry.get("kind"), entry.get("labels", [])
    description, unit = entry.get("description", ""), entry.get("unit", "")
    if not (type(labels) is list and type(description) is type(unit) is str):
        raise ValidationError(f"metric {name!r} has malformed labels or help")
    labelnames = tuple(labels)
    if known is None:
        if kind not in ("counter", "gauge", "histogram") or labelnames and (
            not set(map(type, labelnames)) <= {str}
            or len(set(labelnames)) != len(labelnames)
        ):
            raise ValidationError(f"metric {name!r} has a bad kind or labels")
        _check_names(name, labelnames)
    elif (kind, labelnames) != known[:2]:
        raise ValidationError(
            f"metric {name!r} is a {known[0]} with labels {known[1]}, "
            f"not a {kind} with labels {labelnames}"
        )
    value = entry.get("value")
    if not labelnames:
        items = [((), value)]
    elif type(value) is dict:
        items = [
            (tuple(str(key).split(",")), value[key])
            for key in sorted(value, key=str)
        ]
        if any(len(labelvalues) != len(labelnames) for labelvalues, _ in items):
            raise ValidationError(
                f"a series key of metric {name!r} does not match labels "
                f"{labelnames} (comma in a label value?)"
            )
    else:
        raise ValidationError(f"labelled metric {name!r} needs a series mapping")
    if kind != "histogram":
        for _, data in items:
            if type(data) not in _NUMBER_TYPES or (kind == "counter" and data < 0):
                raise ValidationError(f"{kind} {name!r} has value {data!r}")
        series = [(labelvalues, float(data)) for labelvalues, data in items]
        return Family(kind, labelnames, None, description, unit, series)
    series = []
    bounds, expected = None, known[2] if known is not None else None
    for labelvalues, data in items:
        if type(data) is not dict:
            raise ValidationError(f"histogram {name!r} series malformed")
        count, total = data.get("count", 0), data.get("sum", 0.0)
        buckets = data.get("buckets", {})
        if (
            type(count) is not int
            or count < 0
            or type(total) not in _NUMBER_TYPES
            or type(buckets) is not dict
        ):
            raise ValidationError(f"histogram {name!r} series malformed")
        if not labelnames and not count:
            continue  # never observed: nothing to merge
        cumulative = list(buckets.values())
        try:
            keys = tuple(map(float, buckets))
        except (TypeError, ValueError):
            keys = ()
        if keys != expected:  # else the bounds were checked before
            if (
                not keys
                or not all(map(math.isfinite, keys))
                or len(set(keys)) != len(keys)
            ):
                raise ValidationError(f"histogram {name!r} has bad buckets")
            if keys != tuple(sorted(keys)):
                pairs = sorted(zip(keys, cumulative))
                keys = tuple(key for key, _ in pairs)
                cumulative = [cum for _, cum in pairs]
            if expected is not None and keys != expected:
                raise ValidationError(
                    f"histogram {name!r} has buckets {keys}, not {expected}"
                )
        if not set(map(type, cumulative)) <= {int} or min(cumulative) < 0:
            raise ValidationError(f"histogram {name!r} has bad bucket counts")
        if bounds is None:
            bounds = keys
        elif keys != bounds:
            raise ValidationError(f"histogram {name!r} needs one set of bounds")
        series.append((labelvalues, (count, float(total), cumulative)))
    return Family(kind, labelnames, bounds, description, unit, series)
