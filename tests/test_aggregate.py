"""Tests for fleet aggregation: quantiles, registry merge, rollups."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError, ValidationError
from repro.telemetry import (
    ClientRollup,
    ClientRollups,
    MetricsRegistry,
    check_snapshot,
    quantile_from_buckets,
)

BOUNDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def exact_quantile(data, q):
    """Nearest-rank percentile on sorted data (no interpolation)."""
    ordered = sorted(data)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class TestQuantileFromBuckets:
    def test_uniform_data_interpolates_exactly(self):
        # 100 evenly spaced points in (0, 1]: quantiles are exact up to
        # the in-bucket uniformity assumption, which holds here.
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=BOUNDS)
        data = [(i + 1) / 100.0 for i in range(100)]
        for v in data:
            h.observe(v)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert h.quantile(q) == pytest.approx(q, abs=0.1)

    def test_within_one_bucket_width_of_exact(self):
        rng_values = [((i * 37) % 97 + 1) / 97.0 for i in range(500)]
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=BOUNDS)
        for v in rng_values:
            h.observe(v)
        for q in (0.5, 0.9, 0.99):
            estimate = h.quantile(q)
            assert abs(estimate - exact_quantile(rng_values, q)) <= 0.1

    def test_empty_series_is_none(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=BOUNDS)
        assert h.quantile(0.5) is None

    def test_overflow_clamps_to_top_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        for v in (5.0, 6.0, 7.0):
            h.observe(v)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.99) == 2.0

    def test_q_zero_and_one(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5)
        h.observe(3.0)
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_invalid_q_rejected(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValidationError):
            h.quantile(1.5)
        with pytest.raises(ValidationError):
            quantile_from_buckets((1.0,), (1,), 1, -0.1)

    def test_labelled_series(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", labelnames=("type",), buckets=(1.0, 2.0))
        h.observe(0.5, type="sync")
        assert h.quantile(0.5, type="sync") == pytest.approx(0.5)
        assert h.quantile(0.5, type="ping") is None

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=200
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_within_one_bucket_width(self, data, q):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=BOUNDS)
        for v in data:
            h.observe(v)
        estimate = h.quantile(q)
        assert estimate is not None
        # one bucket width on either side of the exact percentile
        assert abs(estimate - exact_quantile(data, q)) <= 0.1 + 1e-9


class TestRegistryMerge:
    def test_counter_sum(self):
        a, b, merged = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", "X.").inc(2)
        b.counter("x_total", "X.").inc(3)
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.counter("x_total").value() == 5

    def test_gauge_last_wins(self):
        a, b, merged = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        a.gauge("ceiling").set(0.8)
        b.gauge("ceiling").set(0.3)
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.gauge("ceiling").value() == 0.3

    def test_histogram_bucket_add(self):
        a, b, merged = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for v in (0.05, 0.5):
            a.histogram("lat", buckets=(0.1, 1.0)).observe(v)
        b.histogram("lat", buckets=(0.1, 1.0)).observe(5.0)
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        snap = merged.histogram("lat", buckets=(0.1, 1.0)).snapshot_value()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)
        assert snap["buckets"] == {"0.1": 1, "1": 2}

    def test_labelled_series_merge(self):
        a, merged = MetricsRegistry(), MetricsRegistry()
        c = a.counter("req_total", labelnames=("type", "outcome"))
        c.inc(2, type="sync", outcome="ok")
        c.inc(1, type="register", outcome="error")
        merged.merge(a.snapshot())
        merged.merge(a.snapshot())
        out = merged.counter("req_total", labelnames=("type", "outcome"))
        assert out.value(type="sync", outcome="ok") == 4
        assert out.value(type="register", outcome="error") == 2

    def test_kind_conflict_rejected(self):
        a, merged = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total").inc()
        merged.gauge("x_total").set(1)
        with pytest.raises(ValidationError):
            merged.merge(a.snapshot())

    def test_bucket_mismatch_rejected(self):
        a, merged = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        merged.histogram("lat", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValidationError):
            merged.merge(a.snapshot())

    @pytest.mark.parametrize("entry", [
        "not an object",
        {"kind": "summary", "value": 1.0},
        {"kind": "counter", "value": "3"},
        {"kind": "counter", "value": True},
        {"kind": "counter", "value": -1.0},
        {"kind": "gauge", "labels": "type", "value": {"sync": 1.0}},
        {"kind": "counter", "labels": ["type"], "value": {"a,b": 1.0}},
        {"kind": "histogram", "value": "x"},
        {"kind": "histogram",
         "value": {"count": 1, "sum": 0.5, "buckets": {"1": "one"}}},
        {"kind": "histogram",
         "value": {"count": 1, "sum": 0.5, "buckets": {"inf": 1}}},
        {"kind": "histogram", "labels": ["task"], "value": {
            "a": {"count": 1, "sum": 0.5, "buckets": {"1": 1}},
            "b": {"count": 1, "sum": 0.5, "buckets": {"2": 1}},
        }},
    ])
    def test_malformed_snapshot_rejected_before_any_change(self, entry):
        # One place holds the rules: merge raises ValidationError (never
        # a TypeError or a half-merged registry), and the push gateway
        # answers 400 by the same check.
        merged = MetricsRegistry()
        with pytest.raises(ValidationError):
            merged.merge({"a_total": {"kind": "counter", "value": 1.0},
                          "z_bad": entry})
        assert len(merged) == 0

    def test_fold_refuses_other_bounds_of_the_same_length(self):
        # Same number of buckets, other bounds: add_raw alone would add
        # the counts into the wrong buckets.  The fold refuses the whole
        # set of families before changing anything.
        a, merged = MetricsRegistry(), MetricsRegistry()
        a.counter("a_total").inc(2)
        a.histogram("lat", buckets=(0.2, 2.0)).observe(0.5)
        merged.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        before = merged.snapshot()
        families = check_snapshot(a.snapshot(), lambda name: None)
        with pytest.raises(ValidationError):
            merged.fold(families)
        assert merged.snapshot() == before

    @pytest.mark.parametrize("other", ["gauge", "labels"])
    def test_fold_refuses_other_kind_or_labels(self, other):
        a, merged = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", labelnames=("type",)).inc(type="sync")
        if other == "gauge":
            merged.gauge("x_total", labelnames=("type",)).set(1, type="sync")
        else:
            merged.counter("x_total").inc()
        before = merged.snapshot()
        with pytest.raises(ValidationError):
            merged.fold(check_snapshot(a.snapshot(), lambda name: None))
        assert merged.snapshot() == before

    def test_fold_equals_merge(self):
        a = MetricsRegistry()
        a.counter("x_total", labelnames=("type",)).inc(3, type="sync")
        a.gauge("g").set(0.5)
        a.histogram("lat", buckets=(0.5, 1.0)).observe(0.7)
        a.histogram("idle", buckets=(1.0,))  # never observed: skipped
        merged, folded = MetricsRegistry(), MetricsRegistry()
        assert merged.merge(a.snapshot()) == 3
        assert folded.fold(check_snapshot(a.snapshot(), folded.shape)) == 3
        assert folded.snapshot() == merged.snapshot()

    def test_empty_histogram_skipped(self):
        a, merged = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(0.1,))
        merged.merge(a.snapshot())
        assert merged.get("lat") is None

    def test_merge_returns_metric_count(self):
        a = MetricsRegistry()
        a.counter("x_total").inc()
        a.gauge("g").set(1)
        assert MetricsRegistry().merge(a.snapshot()) == 2

    def test_merge_is_json_safe(self):
        # The snapshot survives a JSON round trip (the push wire format).
        a, merged = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", labelnames=("type",)).inc(3, type="sync")
        a.histogram("lat", buckets=(0.5, 1.0)).observe(0.7)
        wire = json.loads(json.dumps(a.snapshot()))
        merged.merge(wire)
        assert merged.counter("x_total", labelnames=("type",)).value(type="sync") == 3

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # which client observes
                # Dyadic values keep float sums exact regardless of the
                # order observations are added in, so snapshot equality
                # below is not at the mercy of FP associativity.
                st.integers(min_value=0, max_value=48).map(lambda i: i * 0.25),
            ),
            max_size=120,
        )
    )
    def test_property_merge_equals_single_observer(self, samples):
        """Merging N client snapshots == one registry seeing all samples."""
        buckets = (0.5, 1.0, 2.5, 5.0, 10.0)
        clients = [MetricsRegistry() for _ in range(4)]
        single = MetricsRegistry()
        for who, value in samples:
            for reg in (clients[who], single):
                reg.counter("runs_total", labelnames=("client",)).inc(
                    client=f"c{who}"
                )
                reg.histogram("lat", buckets=buckets).observe(value)
        merged = MetricsRegistry()
        for reg in clients:
            merged.merge(reg.snapshot())
        assert merged.snapshot() == single.snapshot()


class TestRegistrySnapshot:
    """A registry's snapshot dict, read the one way: :func:`check_snapshot`."""

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("syncs_total", "S.").inc(4)
        h = reg.histogram("lat", "L.", labelnames=("type",), buckets=(0.5, 1.0))
        h.observe(0.25, type="sync")
        h.observe(0.75, type="sync")
        return reg

    def test_accessors(self):
        reg = self._registry()
        families = check_snapshot(reg.snapshot(), reg.shape)
        assert list(families) == ["lat", "syncs_total"]
        lat, syncs = families["lat"], families["syncs_total"]
        assert (lat.kind, lat.labelnames, lat.bounds) == (
            "histogram", ("type",), (0.5, 1.0)
        )
        assert lat.description == "L." and lat.unit == ""
        assert lat.series == [(("sync",), (2, 1.0, [1, 2]))]
        assert syncs[:3] == ("counter", (), None)
        assert syncs.series == [((), 4.0)]

    def test_series_in_snapshot_key_order(self):
        # A snapshot keys series by their comma-joined label values; the
        # families keep that order ("word processor,cpu" sorts before
        # "word,cpu"), not the order of the label tuples.
        reg = MetricsRegistry()
        c = reg.counter("runs_total", labelnames=("task", "resource"))
        c.inc(task="word", resource="cpu")
        c.inc(task="word processor", resource="cpu")
        (family,) = check_snapshot(reg.snapshot(), reg.shape).values()
        assert [labels for labels, _ in family.series] == [
            ("word processor", "cpu"), ("word", "cpu"),
        ]

    def test_quantiles(self):
        reg = self._registry()
        lat = check_snapshot(reg.snapshot(), reg.shape)["lat"]
        ((_, (count, _, cumulative)),) = lat.series
        estimate = quantile_from_buckets(lat.bounds, cumulative, count, 0.5)
        assert estimate == pytest.approx(0.5, abs=0.5)
        assert estimate == reg.get("lat").quantile(0.5, type="sync")

    def test_quantiles_rejects_non_histograms(self):
        # Only a histogram family carries bounds to estimate from, and the
        # c_q reader estimates nothing from a family of another kind.
        from repro.telemetry.web import comfort_cells

        reg = self._registry()
        assert check_snapshot(reg.snapshot(), reg.shape)["syncs_total"].bounds is None
        reg.counter(
            "uucs_discomfort_level", labelnames=("task", "resource")
        ).inc(task="word", resource="cpu")
        assert comfort_cells(check_snapshot(reg.snapshot(), reg.shape)) == []

    def test_json_round_trip(self):
        # The push wire format: string bucket bounds, parsed back into
        # the same families.
        reg = self._registry()
        wire = json.loads(json.dumps(reg.snapshot(), sort_keys=True))
        assert check_snapshot(wire, lambda name: None) == check_snapshot(
            reg.snapshot(), reg.shape
        )

    def test_unordered_string_bounds_are_sorted(self):
        snapshot = {"lat": {"kind": "histogram", "value": {
            "count": 8, "sum": 6.0, "buckets": {"2.0": 8, "0.5": 2, "1.0": 4},
        }}}
        (family,) = check_snapshot(snapshot, lambda name: None).values()
        assert family.bounds == (0.5, 1.0, 2.0)
        assert family.series == [((), (8, 6.0, [2, 4, 8]))]

    def test_from_json_rejects_garbage(self):
        # (A body that is not JSON at all is fetch_snapshot's to refuse;
        # see test_dashboard.TestMalformedSnapshot.)
        for text in ("[1, 2]", '{"lat": {"kind": "histogram", "value": '
                     '{"count": "x", "sum": 0.5, "buckets": {"1": 1}}}}'):
            with pytest.raises(ValidationError):
                check_snapshot(json.loads(text), lambda name: None)


class ScriptedClock:
    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now


class TestClientRollups:
    def test_lifecycle(self):
        # Every stamp is seconds since the rollups were created, on their
        # one clock; byte accounting stamps nothing.
        clock = ScriptedClock(100.0)
        rollups = ClientRollups(clock=clock)
        clock.now = 101.0
        rollups.record_register("abc")
        clock.now = 105.0
        rollups.record_sync("abc", results=3, discomforts=1)
        clock.now = 109.0
        rollups.record_sync("abc", results=0, discomforts=0)
        clock.now = 110.0
        rollups.record_bytes("abc", read=100, written=900)
        assert rollups.get("abc").last_seen == 9.0
        clock.now = 111.0
        rollups.record_push("abc")
        row = rollups.get("abc")
        assert row == ClientRollup(
            client_id="abc",
            registered_at=1.0,
            syncs=2,
            results=3,
            discomforts=1,
            bytes_read=100,
            bytes_written=900,
            pushes=1,
            last_seen=11.0,
        )

    def test_default_clock_is_monotonic_since_creation(self):
        rollups = ClientRollups()
        rollups.record_sync("abc")
        first = rollups.get("abc").last_seen
        rollups.record_push("abc")
        assert 0.0 <= first <= rollups.get("abc").last_seen < 60.0

    def test_rows_sorted_by_guid(self):
        rollups = ClientRollups()
        rollups.record_sync("zzz")
        rollups.record_sync("aaa")
        assert [r.client_id for r in rollups.rows()] == ["aaa", "zzz"]
        assert len(rollups) == 2
        assert "aaa" in rollups and "missing" not in rollups
        assert rollups.get("missing") is None

    def test_dict_round_trip(self):
        rollups = ClientRollups()
        rollups.record_sync("abc", results=2, discomforts=1)
        (data,) = rollups.as_dicts()
        assert ClientRollup.from_dict(data) == rollups.get("abc")

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(SerializationError):
            ClientRollup.from_dict({})
        with pytest.raises(SerializationError):
            ClientRollup.from_dict({"client_id": "x", "syncs": "many"})
