"""Web fleet dashboard: headroom math, routes, SSE, staleness, headers."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.errors import ProtocolError, ValidationError
from repro.telemetry import web
from repro.telemetry.aggregate import (
    ClientRollups,
    fetch_fleet,
    fetch_history,
    push_snapshot,
)
from repro.telemetry.exporter import MetricsExporter
from repro.telemetry.metrics import (
    MetricsRegistry,
    check_snapshot,
    quantile_from_buckets,
)


def make_client_registry(
    levels=(0.5, 0.8, 1.0),
    runs=10,
    borrow=0.4,
    task="word",
    resource="cpu",
):
    registry = MetricsRegistry()
    counter = registry.counter(
        "uucs_client_runs_total", "runs", labelnames=("outcome",)
    )
    if runs > len(levels):
        counter.inc(runs - len(levels), outcome="exhausted")
    if levels:
        counter.inc(len(levels), outcome="discomfort")
    if borrow is not None:
        registry.gauge("uucs_throttle_ceiling", "borrow").set(borrow)
    histogram = registry.histogram(
        "uucs_discomfort_level",
        "levels",
        labelnames=("task", "resource"),
        buckets=DISCOMFORT_LEVEL_BUCKETS,
    )
    for level in levels:
        histogram.observe(level, task=task, resource=resource)
    return registry


def snap(registry):
    return check_snapshot(registry.snapshot(), registry.shape)


class TestComfortHeadroom:
    def test_cells_compute_cq_and_headroom(self):
        registry = make_client_registry(levels=(0.5, 0.8, 1.0), borrow=0.4)
        cells = web.comfort_cells(snap(registry))
        assert len(cells) == 1
        cell = cells[0]
        assert cell["task"] == "word" and cell["resource"] == "cpu"
        assert cell["discomforts"] == 3
        # Same estimator as the exposition tooling: c_q from the
        # cumulative buckets, read straight off the snapshot dict with
        # its string bounds, at the headroom quantile.
        wire = json.loads(json.dumps(registry.snapshot()))
        series = wire["uucs_discomfort_level"]["value"]["word,cpu"]
        pairs = sorted(
            (float(bound), count) for bound, count in series["buckets"].items()
        )
        expected = quantile_from_buckets(
            [bound for bound, _ in pairs],
            [count for _, count in pairs],
            series["count"],
            web.HEADROOM_QUANTILE,
        )
        assert cell["c_q"] == pytest.approx(expected, abs=1e-4)
        assert cell["headroom"] == pytest.approx(expected - 0.4, abs=1e-4)

    def test_no_borrow_gauge_leaves_headroom_none(self):
        snapshot = snap(make_client_registry(borrow=None))
        cells = web.comfort_cells(snapshot)
        assert cells[0]["c_q"] is not None
        assert cells[0]["headroom"] is None

    def test_row_min_over_cells(self):
        registry = make_client_registry(levels=(1.0, 1.2), borrow=0.2)
        registry.histogram(
            "uucs_discomfort_level",
            "levels",
            labelnames=("task", "resource"),
            buckets=DISCOMFORT_LEVEL_BUCKETS,
        ).observe(0.1, task="quake", resource="memory")
        row = web.client_fleet_row("c1", snap(registry))
        # The binding constraint is the sensitive quake/memory cell.
        assert row["min_c_q"] < 0.2
        assert row["min_headroom"] == pytest.approx(row["min_c_q"] - 0.2, abs=1e-4)
        assert len(row["cells"]) == 2

    def test_row_without_discomfort_cdf(self):
        registry = MetricsRegistry()
        registry.counter(
            "uucs_client_runs_total", "runs", labelnames=("outcome",)
        ).inc(5, outcome="exhausted")
        row = web.client_fleet_row("c1", snap(registry))
        assert row["runs"] == 5.0
        assert row["min_headroom"] is None and row["cells"] == []

    def test_session_counter_preferred_over_client_counter(self):
        registry = MetricsRegistry()
        registry.counter(
            "uucs_session_runs_total", "runs", labelnames=("engine", "outcome")
        ).inc(7, engine="loop", outcome="discomfort")
        registry.counter(
            "uucs_client_runs_total", "runs", labelnames=("outcome",)
        ).inc(7, outcome="discomfort")
        runs, _, discomforts = web.snapshot_sample(snap(registry))
        assert runs == 7.0  # not 14: the counters describe the same runs
        assert discomforts == 7.0


class TestFleetTotals:
    def test_stale_kept_evicted_dropped(self):
        rows = [
            web.client_fleet_row("a", snap(make_client_registry(runs=10))),
            {
                **web.client_fleet_row("b", snap(make_client_registry(runs=20))),
                "stale": True,
            },
            {
                **web.client_fleet_row("c", snap(make_client_registry(runs=40))),
                "evicted": True,
            },
        ]
        totals = web.fleet_totals(rows)
        assert totals["clients"] == 3
        assert totals["active"] == 1 and totals["stale"] == 1
        assert totals["evicted"] == 1
        # runs aggregate over non-evicted rows; evicted are gone entirely.
        assert totals["runs"] == 30.0
        # headroom/borrow means come from fresh rows only (frozen gauges
        # of a stale client must not skew the live picture).
        fresh_row = rows[0]
        assert totals["min_headroom"] == fresh_row["min_headroom"]


class TestDiscomfortEvents:
    def test_first_push_counts_everything(self):
        current = snap(make_client_registry(levels=(0.5, 0.8)))
        events = web.discomfort_events("c1", None, current, at=1.0)
        assert len(events) == 1
        assert events[0]["count"] == 2
        assert events[0]["level_le"] == 0.6  # tightest bound covering 0.5

    def test_delta_between_pushes(self):
        registry = make_client_registry(levels=(0.5,))
        previous = snap(registry)
        registry.histogram(
            "uucs_discomfort_level",
            "levels",
            labelnames=("task", "resource"),
            buckets=DISCOMFORT_LEVEL_BUCKETS,
        ).observe(0.08, task="word", resource="cpu")
        events = web.discomfort_events("c1", previous, snap(registry), at=2.0)
        assert len(events) == 1
        assert events[0]["count"] == 1
        assert events[0]["level_le"] == 0.1  # only the new, low observation

    def test_no_new_discomforts_no_events(self):
        current = snap(make_client_registry(levels=(0.5,)))
        assert web.discomfort_events("c1", current, current, at=3.0) == []


class TestStudyProgressView:
    def test_absent_without_gauges(self):
        assert web.study_progress(snap(MetricsRegistry())) is None

    def test_extracts_gauges_and_shards(self):
        registry = MetricsRegistry()
        registry.gauge("uucs_study_progress_ratio", "p").set(0.5)
        registry.gauge("uucs_study_users", "u").set(32)
        registry.gauge("uucs_study_users_done", "d").set(16)
        registry.gauge("uucs_study_runs_per_second", "r").set(120.0)
        registry.gauge("uucs_study_eta_seconds", "e").set(42.0)
        shard_gauge = registry.gauge(
            "uucs_study_shard_progress_ratio", "s", labelnames=("shard",)
        )
        shard_gauge.set(1.0, shard="0")
        shard_gauge.set(0.0, shard="1")
        progress = web.study_progress(snap(registry))
        assert progress["progress_ratio"] == 0.5
        assert progress["eta_s"] == 42.0
        assert [s["shard"] for s in progress["shards"]] == ["0", "1"]
        assert progress["shards"][0]["progress_ratio"] == 1.0


class TestStreamBroker:
    def test_fanout_and_close(self):
        broker = web.StreamBroker()
        a, b = broker.subscribe(), broker.subscribe()
        assert broker.subscribers == 2
        assert broker.publish(b"frame-1") == 2
        assert a.ready.is_set() and b.ready.is_set()
        assert a.take() == [b"frame-1"]
        assert b.take() == [b"frame-1"]
        assert not a.ready.is_set()  # drained: the reader waits again
        broker.close()
        assert a.ready.is_set()
        assert a.take() == [None]  # sentinel ends readers
        assert broker.subscribers == 0
        late = broker.subscribe()
        assert late.take() == [None]  # closed: immediate end

    def test_slow_reader_drops_oldest_never_partials(self):
        broker = web.StreamBroker(max_queue=4)
        sub = broker.subscribe()
        for i in range(10):
            broker.publish(b"frame-%d" % i)
        assert sub.take() == [b"frame-6", b"frame-7", b"frame-8", b"frame-9"]
        assert sub.dropped == 6

    def test_format_sse_single_data_line(self):
        frame = web.format_sse("push", {"a": "x\ny"}, event_id=7)
        assert frame.startswith(b"event: push\nid: 7\ndata: ")
        assert frame.endswith(b"\n\n")
        # Exactly one data line: JSON encoding keeps newlines escaped.
        assert frame.count(b"\ndata: ") == 1
        body = frame.split(b"data: ", 1)[1]
        assert json.loads(body) == {"a": "x\ny"}


def _http(address, request: bytes) -> bytes:
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestExporterRoutes:
    def test_root_serves_dashboard_page(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            raw = _http(exporter.address, b"GET / HTTP/1.0\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"Content-Type: text/html; charset=utf-8" in head
        assert body.startswith(b"<!DOCTYPE html")
        assert b"EventSource" in body  # the page is the live SSE client

    def test_metrics_route_still_plain_exposition(self):
        registry = MetricsRegistry()
        registry.counter("uucs_requests_total", "requests").inc(3)
        with MetricsExporter(registry) as exporter:
            raw = _http(exporter.address, b"GET /metrics HTTP/1.0\r\n\r\n")
        assert b"text/plain" in raw and b"uucs_requests_total 3" in raw

    def test_web_false_reverts_root_and_404s_fleet(self):
        registry = MetricsRegistry()
        registry.counter("uucs_requests_total", "requests").inc()
        with MetricsExporter(registry, web=False) as exporter:
            root = _http(exporter.address, b"GET / HTTP/1.0\r\n\r\n")
            fleet = _http(exporter.address, b"GET /fleet HTTP/1.0\r\n\r\n")
            stream = _http(exporter.address, b"GET /stream HTTP/1.0\r\n\r\n")
        assert b"uucs_requests_total" in root and b"text/plain" in root
        assert b"404" in fleet and b"404" in stream

    def test_json_content_type_and_multibyte_content_length(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            # A client id with multi-byte UTF-8: Content-Length must count
            # bytes, not characters.
            push_snapshot(host, port, "clïent-α", make_client_registry().snapshot())
            for path in (b"/snapshot", b"/clients", b"/fleet", b"/history"):
                raw = _http(
                    exporter.address, b"GET " + path + b" HTTP/1.0\r\n\r\n"
                )
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"Content-Type: application/json; charset=utf-8" in head
                declared = int(
                    head.split(b"Content-Length: ")[1].split(b"\r\n")[0]
                )
                assert declared == len(body)
                json.loads(body)  # every JSON endpoint stays parseable

    def test_head_answers_without_body_on_every_route(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            push_snapshot(host, port, "c1", make_client_registry().snapshot())
            for path in (b"/", b"/metrics", b"/snapshot", b"/clients",
                         b"/fleet", b"/history"):
                raw = _http(
                    exporter.address, b"HEAD " + path + b" HTTP/1.0\r\n\r\n"
                )
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"200 OK" in head
                declared = int(
                    head.split(b"Content-Length: ")[1].split(b"\r\n")[0]
                )
                assert declared > 0  # the GET length, advertised
                assert body == b""  # ... but no body on HEAD

    def test_fleet_view_rows_and_feed(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            push_snapshot(
                host, port, "c1",
                make_client_registry(levels=(0.5, 0.9), borrow=0.3).snapshot(),
            )
            fleet = fetch_fleet(host, port)
        assert fleet["quantile"] == web.HEADROOM_QUANTILE
        (row,) = fleet["clients"]
        assert row["client_id"] == "c1" and not row["stale"]
        assert row["borrow_level"] == 0.3
        assert row["min_headroom"] is not None
        assert fleet["totals"]["active"] == 1
        assert len(fleet["events"]) == 1 and fleet["events"][0]["count"] == 2

    def test_history_rings_capture_pushes(self):
        rollups = ClientRollups(history=8)
        with MetricsExporter(MetricsRegistry(), rollups=rollups) as exporter:
            host, port = exporter.address
            push_snapshot(host, port, "c1", make_client_registry(runs=5).snapshot())
            push_snapshot(host, port, "c1", make_client_registry(runs=9).snapshot())
            history = fetch_history(host, port)
        series = history["clients"]["c1"]
        assert history["capacity"] == 8
        assert series["runs"] == [5.0, 9.0]
        assert len(series["runs_per_s"]) == 2
        assert series["runs_per_s"][0] == 0.0  # no delta for the first point

    def test_validation_of_liveness_thresholds(self):
        with pytest.raises(ValidationError):
            MetricsExporter(MetricsRegistry(), stale_after=0.0)
        with pytest.raises(ValidationError):
            MetricsExporter(MetricsRegistry(), stale_after=30.0, evict_after=10.0)


class TestStaleAndEviction:
    def _exporter(self, clock):
        return MetricsExporter(
            MetricsRegistry(),
            stale_after=30.0,
            evict_after=120.0,
            clock=clock,
        )

    def test_stale_flag_and_eviction_drop(self):
        clock = FakeClock()
        with self._exporter(clock) as exporter:
            exporter.record_push("c1", make_client_registry().snapshot())
            fresh = exporter.fleet_view()
            assert fresh["clients"][0]["stale"] is False

            clock.now += 31.0
            stale = exporter.fleet_view()
            row = stale["clients"][0]
            assert row["stale"] is True and row["evicted"] is False
            assert row["age_s"] == pytest.approx(31.0)
            # Stale: flagged but still shown and still federated.
            assert stale["totals"]["stale"] == 1
            assert "uucs_client_runs_total" in exporter.fleet_snapshot()

            clock.now += 100.0
            evicted = exporter.fleet_view()
            assert evicted["clients"][0]["evicted"] is True
            assert evicted["totals"]["active"] == 0
            # Evicted: dropped from the federated fleet registry.
            assert "uucs_client_runs_total" not in exporter.fleet_snapshot()

    def test_new_push_revives_a_stale_client(self):
        clock = FakeClock()
        with self._exporter(clock) as exporter:
            exporter.record_push("c1", make_client_registry().snapshot())
            clock.now += 50.0
            assert exporter.fleet_view()["clients"][0]["stale"] is True
            exporter.record_push("c1", make_client_registry().snapshot())
            assert exporter.fleet_view()["clients"][0]["stale"] is False

    def test_clients_rows_annotated(self):
        clock = FakeClock()
        with self._exporter(clock) as exporter:
            exporter.record_push("c1", make_client_registry().snapshot())
            clock.now += 40.0
            (row,) = exporter.client_rows()
            assert row["stale"] is True and row["evicted"] is False
            assert row["age_s"] == pytest.approx(40.0)

    def test_evict_never_when_disabled(self):
        clock = FakeClock()
        with MetricsExporter(
            MetricsRegistry(), stale_after=30.0, evict_after=None, clock=clock
        ) as exporter:
            exporter.record_push("c1", make_client_registry().snapshot())
            clock.now += 100000.0
            row = exporter.fleet_view()["clients"][0]
            assert row["stale"] is True and row["evicted"] is False


def _parse_sse(buffer: bytes):
    """Parse complete SSE frames out of ``buffer``.

    Returns (events, remainder) where each event is the dict
    ``{"event": ..., "id": ..., "data": ...}``; keepalive comments are
    skipped.  Raises on any malformed frame — interleaved or truncated
    writes would surface here.
    """
    events = []
    while b"\n\n" in buffer:
        frame, buffer = buffer.split(b"\n\n", 1)
        if frame.startswith(b":"):
            continue  # keepalive comment
        fields = {}
        for line in frame.split(b"\n"):
            name, sep, value = line.partition(b": ")
            assert sep, f"malformed SSE line: {line!r}"
            fields[name.decode()] = value.decode()
        assert set(fields) == {"event", "id", "data"}, fields
        fields["data"] = json.loads(fields["data"])  # must be valid JSON
        fields["id"] = int(fields["id"])
        events.append(fields)
    return events, buffer


class TestConcurrentPushAndStream:
    N_THREADS = 8
    PUSHES_EACH = 10

    def test_hammered_stream_stays_frame_clean(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            reader = socket.create_connection((host, port), timeout=10)
            reader.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
            # Wait for the response header + hello frame so every push
            # below lands while the subscriber is attached.
            reader.settimeout(10)
            buffer = b""
            while b"\r\n\r\n" not in buffer or b"event: hello" not in buffer:
                buffer = buffer + reader.recv(65536)
            buffer = buffer.split(b"\r\n\r\n", 1)[1]  # drop HTTP headers

            def hammer(worker: int):
                for i in range(self.PUSHES_EACH):
                    push_snapshot(
                        host, port, f"worker-{worker}",
                        make_client_registry(runs=i + 1).snapshot(),
                    )

            threads = [
                threading.Thread(target=hammer, args=(w,))
                for w in range(self.N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # The stream pump coalesces a burst into at most one frame
            # per client per window, so read until every worker's final
            # state has arrived rather than counting frames.
            expected_clients = {f"worker-{w}" for w in range(self.N_THREADS)}
            events = []
            finals: dict[str, float] = {}
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if len(finals) == self.N_THREADS and all(
                    runs == self.PUSHES_EACH for runs in finals.values()
                ):
                    break
                try:
                    chunk = reader.recv(65536)
                except TimeoutError:
                    break
                if not chunk:
                    break
                buffer += chunk
                parsed, buffer = _parse_sse(buffer)
                for event in parsed:
                    if event["event"] == "push":
                        finals[event["data"]["client_id"]] = (
                            event["data"]["runs"]
                        )
                events.extend(parsed)
            reader.close()

        pushes = [e for e in events if e["event"] == "push"]
        assert pushes, "no push frames arrived"
        # Coalescing merges frames, never invents them.
        assert len(pushes) <= self.N_THREADS * self.PUSHES_EACH
        versions = [e["id"] for e in pushes]
        assert versions == sorted(versions), "snapshot versions not monotonic"
        assert len(set(versions)) == len(versions), "duplicate versions"
        for event in pushes:
            data = event["data"]
            assert data["version"] == event["id"]
        # A client's first frame carries its full row (readers must be
        # able to seed state); repeats are light deltas with no row.
        full = [e for e in pushes if "row" in e["data"]]
        assert {e["data"]["client_id"] for e in full} == expected_clients
        for event in full:
            assert event["data"]["row"]["client_id"] == event["data"]["client_id"]
        # Every worker's final state arrived despite coalescing.
        assert finals == {
            client_id: float(self.PUSHES_EACH)
            for client_id in expected_clients
        }

    def test_reader_disconnect_is_clean(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            reader = socket.create_connection((host, port), timeout=5)
            reader.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
            deadline = time.monotonic() + 5
            while exporter.broker.subscribers == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            reader.close()
            # Pushes after the disconnect flush the dead subscriber out.
            deadline = time.monotonic() + 5
            while exporter.broker.subscribers:
                assert time.monotonic() < deadline, "dead reader never reaped"
                push_snapshot(
                    host, port, "c1", make_client_registry().snapshot()
                )
                time.sleep(0.02)
            # The exporter remains fully serviceable afterwards.
            assert fetch_fleet(host, port)["totals"]["clients"] == 1


class TestTopFleetSection:
    def test_renders_fleet_table_from_shared_view(self):
        fleet = {
            "clients": [
                web.client_fleet_row(
                    "aaaabbbbccccdddd",
                    snap(make_client_registry(borrow=0.3)),
                    age_s=45.0,
                    stale=True,
                ),
            ],
            "totals": {},
        }
        from repro.telemetry.dashboard import TopDashboard

        table = TopDashboard._render_fleet(fleet)
        assert "Fleet" in table
        assert "aaaabbbbcccc" in table and "stale" in table

    def test_old_exporter_degrades_once(self):
        from repro.telemetry.dashboard import TopDashboard

        calls = {"fleet": 0}

        def failing_fetch_fleet(host, port):
            calls["fleet"] += 1
            raise ProtocolError("no such route")

        dash = TopDashboard(
            "127.0.0.1",
            1,
            fetch_snapshot=lambda host, port: {},
            fetch_clients=lambda host, port: [],
            fetch_fleet=failing_fetch_fleet,
        )
        assert "Fleet" not in dash.render(*dash.sample())
        dash.render_once()
        dash.render_once()
        assert calls["fleet"] == 1  # degraded after the first failure


def test_dashboard_smoke(capsys):
    """The CI smoke script must pass in-process too (same interpreter)."""
    import dashboard_smoke

    assert dashboard_smoke.main() == 0
    assert "dashboard smoke OK" in capsys.readouterr().out


class TestSchemaValidator:
    """The smoke script's mini validator must actually reject bad docs."""

    def test_rejects_missing_required_and_bad_types(self):
        import dashboard_smoke

        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {
                "a": {"type": "integer", "minimum": 0},
                "b": {"type": ["number", "null"]},
                "c": {"type": "array", "items": {"type": "string"}},
            },
        }
        assert dashboard_smoke.validate({"a": 1, "b": None, "c": ["x"]}, schema) == []
        assert dashboard_smoke.validate({}, schema)  # missing required
        assert dashboard_smoke.validate({"a": -1}, schema)  # below minimum
        assert dashboard_smoke.validate({"a": True}, schema)  # bool is not int
        assert dashboard_smoke.validate({"a": 1, "c": [2]}, schema)  # item type


class TestLoopShutdown:
    """close() on the exporter's event loop: bounded by the drain even
    with a stalled reader, prompt when idle, and no thread per reader."""

    def test_stalled_reader_cannot_hold_close(self):
        exporter = MetricsExporter(MetricsRegistry())
        big_task = "x" * (1 << 20)  # labels land in every fleet row
        for i in range(8):
            exporter.record_push(
                f"c{i}", make_client_registry(task=big_task).snapshot()
            )
        # The reader asks for the stream and never reads: the ~8 MiB
        # hello frame alone is more than the socket buffers hold.
        reader = socket.socket()
        reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            reader.connect(exporter.address)
            reader.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
            deadline = time.monotonic() + 5
            while exporter.broker.subscribers == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for i in range(8):  # and more frames queue behind it
                exporter.record_push(
                    f"c{i}",
                    make_client_registry(
                        levels=(0.5, 0.8, 1.0, 0.9), task=big_task
                    ).snapshot(),
                )
            time.sleep(0.2)
            started = time.monotonic()
            exporter.close()
            assert time.monotonic() - started < exporter._drain_timeout + 1.0
        finally:
            reader.close()

    def test_stream_readers_add_no_threads(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            serving = threading.active_count()
            readers = []
            try:
                for _ in range(64):
                    reader = socket.create_connection(
                        exporter.address, timeout=5
                    )
                    readers.append(reader)
                    reader.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
                for reader in readers:
                    buffer = b""
                    while b"event: hello" not in buffer:
                        chunk = reader.recv(65536)
                        assert chunk, "stream closed before its hello frame"
                        buffer += chunk
                assert exporter.broker.subscribers == 64
                assert threading.active_count() <= serving
            finally:
                for reader in readers:
                    reader.close()

    def test_idle_close_is_prompt(self):
        exporter = MetricsExporter(MetricsRegistry())
        started = time.monotonic()
        exporter.close()
        assert time.monotonic() - started < 0.1
