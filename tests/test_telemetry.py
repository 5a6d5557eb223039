"""Unit tests for repro.telemetry: metrics, events, spans, exporter."""

import ast
import hashlib
import json
import logging
import os
import socket
import threading
from pathlib import Path

import pytest

import repro.telemetry

from repro.errors import SerializationError, StoreError, ValidationError
from repro.telemetry import (
    Event,
    EventLog,
    JsonLinesSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    Telemetry,
    Tracer,
    get_telemetry,
    read_events,
    set_telemetry,
    use_telemetry,
)
from repro.telemetry.exporter import MetricsExporter
from repro.telemetry.traces import SpanRecord, span_name_stats


class TestCounter:
    def test_unlabelled(self):
        reg = MetricsRegistry()
        c = reg.counter("runs_total", "Runs.")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "Requests.", labelnames=("type",))
        c.inc(type="sync")
        c.inc(4, type="register")
        assert c.value(type="sync") == 1
        assert c.value(type="register") == 4
        assert c.value(type="ping") == 0

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", labelnames=("type",))
        with pytest.raises(ValidationError):
            c.inc()
        with pytest.raises(ValidationError):
            c.inc(kind="sync")

    def test_cannot_decrease(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValidationError):
            reg.gauge("a_total")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("ceiling", unit="level")
        g.set(0.8)
        g.inc(0.1)
        g.dec(0.4)
        assert g.value() == pytest.approx(0.5)

    def test_labelled(self):
        g = MetricsRegistry().gauge("level", labelnames=("resource",))
        g.set(1.5, resource="cpu")
        assert g.value(resource="cpu") == 1.5


class TestHistogram:
    def test_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.55)
        assert snap["buckets"] == {"0.1": 1, "1": 2, "10": 3}

    def test_labelled_exposition_has_le_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "lat_seconds", "Latency.", unit="seconds",
            labelnames=("type",), buckets=(0.5, 2.0),
        )
        h.observe(1.0, type="sync")
        text = reg.render()
        assert '# TYPE lat_seconds histogram' in text
        assert '# UNIT lat_seconds seconds' in text
        assert 'lat_seconds_bucket{type="sync",le="0.5"} 0' in text
        assert 'lat_seconds_bucket{type="sync",le="2"} 1' in text
        assert 'lat_seconds_bucket{type="sync",le="+Inf"} 1' in text
        assert 'lat_seconds_sum{type="sync"} 1.0' in text
        assert 'lat_seconds_count{type="sync"} 1' in text

    def test_rejects_empty_or_duplicate_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.histogram("a", buckets=())
        with pytest.raises(ValidationError):
            reg.histogram("b", buckets=(1.0, 1.0))


class TestExposition:
    def test_render_sorted_and_terminated(self):
        reg = MetricsRegistry()
        reg.counter("z_total", "Z.").inc()
        reg.gauge("a_gauge", "A.").set(2)
        text = reg.render()
        assert text.index("a_gauge") < text.index("z_total")
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("esc_total", labelnames=("path",))
        c.inc(path='a"b\\c\nd')
        assert 'path="a\\"b\\\\c\\nd"' in reg.render()

    def test_snapshot_carries_metadata(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "Xs seen.", unit="items").inc(3)
        snap = reg.snapshot()
        assert snap["x_total"] == {
            "kind": "counter",
            "description": "Xs seen.",
            "unit": "items",
            "labels": [],
            "value": 3.0,
        }

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("bad name")


class TestEvents:
    def test_round_trip(self):
        event = Event("client.run", 12.5, {"testcase": "t1", "n": 3})
        back = Event.from_json(event.to_json())
        assert back == event

    def test_json_lines_sink(self, tmp_path):
        path = tmp_path / "log" / "events.jsonl"
        log = EventLog(JsonLinesSink(path), clock=lambda: 1.0)
        log.emit("a", x=1)
        log.emit("b", y="two")
        log.close()
        events = read_events(path)
        assert [e.name for e in events] == ["a", "b"]
        assert events[0].fields == {"x": 1}
        assert events[1].ts == 1.0
        # every line is independently parseable JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_null_sink_is_silent_and_disabled(self):
        log = EventLog()
        assert not log.enabled
        log.emit("ignored", x=1)  # must not raise

    def test_memory_sink(self):
        sink = MemorySink()
        log = EventLog(sink, clock=lambda: 2.0)
        log.emit("hello")
        assert len(sink) == 1
        assert list(sink)[0].name == "hello"

    def test_bad_lines_raise_with_line_number(self):
        with pytest.raises(SerializationError, match="line 2"):
            read_events(['{"event": "ok"}', "{nope"])

    def test_missing_file_is_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            read_events(tmp_path / "absent.jsonl")

    def test_unwritable_sink_path_is_store_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.raises(StoreError, match="cannot open event log"):
            JsonLinesSink(blocker / "ev.jsonl")

    def test_unserializable_event_raises(self):
        circular: dict = {}
        circular["self"] = circular
        with pytest.raises(SerializationError):
            Event("bad", 0.0, {"x": circular}).to_json()


class TestJsonLinesSink:
    #: sha256 of the log the fixed sequence below produced when the sink
    #: wrote through ``logging``; the direct writer keeps every byte.
    PINNED = "d44a99c6944f75de10d41a0f0df643b0cb8dddf6a4f4c0c02ba700fef131d1f3"

    def test_bytes_match_pinned_log(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        ticks = iter(range(1000))
        log = EventLog(
            JsonLinesSink(path), clock=lambda: 1_086_000_000 + next(ticks) / 8
        )
        for i in range(1000):
            log.emit(
                "span" if i % 3 else "study.shard",
                shard=i,
                ratio=i / 7,
                tiny=1e-300 * i,
                big=-1.5e300,
                none=None,
                done=bool(i % 2),
                text='naïve "quoted" \\ back\nslash\ttab — ☃ 𝄞 é',
                path=Path("out") / f"s{i}.jsonl",
                levels={"cpu": i * 0.1, "disk": None},
                tasks=["word", "ie"],
            )
        log.close()
        blob = path.read_bytes()
        assert blob.count(b"\n") == 1000
        assert hashlib.sha256(blob).hexdigest() == self.PINNED

    def test_short_raw_writes_still_land_whole_lines(self, tmp_path):
        # A raw write may take only part of its buffer; the sink writes
        # the rest, so lines are never torn or interleaved.
        whole, trickled = tmp_path / "whole.jsonl", tmp_path / "trickled.jsonl"
        sink = JsonLinesSink(trickled)
        raw = sink._file

        class Trickle:
            def write(self, data):
                return raw.write(data[:7])

            def close(self):
                raw.close()

        sink._file = Trickle()
        for path_sink in (JsonLinesSink(whole), sink):
            log = EventLog(path_sink, clock=lambda: 1.0)
            for i in range(5):
                log.emit("span", i=i, text="x" * 40)
            log.close()
        assert trickled.read_bytes() == whole.read_bytes()
        assert len(read_events(trickled)) == 5

    def test_no_logger_per_hub(self):
        for _ in range(100):
            Telemetry.to_path(os.devnull).close()
        leaked = [
            name
            for name in logging.Logger.manager.loggerDict
            if name.startswith("repro.telemetry.jsonl")
        ]
        assert not leaked
        package = Path(repro.telemetry.__file__).parent
        for module in package.glob("*.py"):
            tree = ast.parse(module.read_text(encoding="utf-8"))
            imported = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
            } | {
                node.module
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
            }
            assert "logging" not in imported, module.name

    @pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="needs /dev/full"
    )
    def test_full_disk_drops_events_with_one_warning(self, capsys):
        log = EventLog(JsonLinesSink("/dev/full"))
        for i in range(20):
            log.emit("span", i=i)
        log.close()
        log.emit("after.close")  # dropped, not an error
        log.close()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: cannot write event log /dev/full")


class TestTracing:
    def _tracer(self):
        sink = MemorySink()
        ticks = iter(range(100))
        tracer = Tracer(
            EventLog(sink, clock=lambda: 0.0),
            clock=lambda: float(next(ticks)),
        )
        return tracer, sink

    def test_nesting_parent_child(self):
        tracer, sink = self._tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_ev = sink.events
        assert inner.fields["span"] == "inner"
        assert inner.fields["parent"] == outer.span_id
        assert inner.fields["depth"] == 1
        assert outer_ev.fields["parent"] is None
        assert outer_ev.fields["depth"] == 0

    def test_durations_from_clock(self):
        tracer, sink = self._tracer()
        with tracer.span("a"):
            pass
        assert sink.events[0].fields["duration_s"] == 1.0

    def test_exception_outcome_and_propagation(self):
        tracer, sink = self._tracer()
        with pytest.raises(KeyError):
            with tracer.span("bad"):
                raise KeyError("x")
        assert sink.events[0].fields["outcome"] == "error:KeyError"

    def test_annotate(self):
        tracer, sink = self._tracer()
        with tracer.span("sync") as span:
            span.annotate(downloaded=7)
        assert sink.events[0].fields["downloaded"] == 7


class TestTelemetryHub:
    def test_default_is_disabled(self):
        assert not get_telemetry().enabled

    def test_disabled_span_is_noop(self):
        tel = Telemetry.disabled()
        with tel.span("x") as span:
            span.annotate(ignored=True)
        tel.emit("nothing")

    def test_use_telemetry_installs_and_restores(self):
        tel = Telemetry.in_memory()
        before = get_telemetry()
        with use_telemetry(tel) as active:
            assert get_telemetry() is tel is active
        assert get_telemetry() is before

    def test_set_telemetry_none_restores_default(self):
        prev = set_telemetry(Telemetry.in_memory())
        try:
            assert get_telemetry().enabled
        finally:
            set_telemetry(None)
        assert not get_telemetry().enabled
        assert prev is not None

    def test_to_path_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "ev.jsonl"
        tel = Telemetry.to_path(path)
        tel.emit("x")
        tel.close()
        assert path.exists()


class TestExporter:
    def _scrape(self, address, request=b""):
        with socket.create_connection(address, timeout=5.0) as sock:
            if request:
                sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode()

    def test_http_scrape(self):
        reg = MetricsRegistry()
        reg.counter("up_total", "Ups.").inc(2)
        with MetricsExporter(reg) as exporter:
            body = self._scrape(
                exporter.address,
                b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n",
            )
        assert body.startswith("HTTP/1.0 200 OK")
        assert "up_total 2" in body

    def test_plain_tcp_scrape(self):
        reg = MetricsRegistry()
        reg.gauge("temp", "T.").set(1.5)
        with MetricsExporter(reg) as exporter:
            body = self._scrape(exporter.address)
        assert not body.startswith("HTTP/")
        assert "temp 1.5" in body

    def test_concurrent_scrapes(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        with MetricsExporter(reg) as exporter:
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(self._scrape(exporter.address))
                )
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 4
        assert all("c_total 1" in r for r in results)

    def test_concurrent_mixed_http_and_tcp_scrapes(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(3)
        with MetricsExporter(reg) as exporter:
            results = []
            lock = threading.Lock()

            def scrape(request):
                body = self._scrape(exporter.address, request)
                with lock:
                    results.append(body)

            requests = [b"", b"GET /metrics HTTP/1.0\r\n\r\n"] * 4
            threads = [
                threading.Thread(target=scrape, args=(req,)) for req in requests
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 8
        assert all("c_total 3" in r for r in results)

    def test_unknown_path_is_404(self):
        reg = MetricsRegistry()
        with MetricsExporter(reg) as exporter:
            body = self._scrape(
                exporter.address, b"GET /definitely/not/here HTTP/1.0\r\n\r\n"
            )
        assert body.startswith("HTTP/1.0 404")
        assert "unknown path" in body

    def test_head_request_suppresses_body(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        with MetricsExporter(reg) as exporter:
            reply = self._scrape(
                exporter.address, b"HEAD /metrics HTTP/1.0\r\n\r\n"
            )
        assert reply.startswith("HTTP/1.0 200 OK")
        assert "c_total" not in reply.split("\r\n\r\n", 1)[1]

    def test_connection_reset_mid_scrape_does_not_kill_exporter(self):
        import struct

        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        with MetricsExporter(reg) as exporter:
            # Open, send half a request line, then slam the door with an
            # RST (SO_LINGER 0) so the handler's read/write hits an OSError.
            for _ in range(3):
                sock = socket.create_connection(exporter.address, timeout=5.0)
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.sendall(b"GET /metr")
                sock.close()
            # The exporter must still serve clean scrapes afterwards.
            body = self._scrape(
                exporter.address, b"GET /metrics HTTP/1.0\r\n\r\n"
            )
        assert "c_total 1" in body

    def test_snapshot_endpoint_serves_json(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "C.").inc(2)
        with MetricsExporter(reg) as exporter:
            reply = self._scrape(
                exporter.address, b"GET /snapshot HTTP/1.0\r\n\r\n"
            )
        body = reply.split("\r\n\r\n", 1)[1]
        snapshot = json.loads(body)
        assert snapshot["c_total"]["value"] == 2

    def test_clients_endpoint_without_rollups_is_empty_list(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            reply = self._scrape(
                exporter.address, b"GET /clients HTTP/1.0\r\n\r\n"
            )
        assert json.loads(reply.split("\r\n\r\n", 1)[1]) == []

    def test_push_bad_payloads_are_400(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            for body in (b"{nope", b'{"snapshot": {}}', b'{"client_id": ""}'):
                request = (
                    b"POST /push HTTP/1.0\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                reply = self._scrape(exporter.address, request)
                assert reply.startswith("HTTP/1.0 400"), reply
            # no Content-Length at all
            reply = self._scrape(exporter.address, b"POST /push HTTP/1.0\r\n\r\n")
            assert reply.startswith("HTTP/1.0 400")

    def test_push_federates_into_fleet_view(self):
        from repro.telemetry import ClientRollups, push_snapshot

        server_reg = MetricsRegistry()
        server_reg.counter("uucs_server_syncs_total", "S.").inc(5)
        rollups = ClientRollups()
        with MetricsExporter(server_reg, rollups=rollups) as exporter:
            host, port = exporter.address
            for n, client in enumerate(("guid-a", "guid-b"), start=1):
                client_reg = MetricsRegistry()
                client_reg.counter("uucs_client_runs_total", "R.").inc(10 * n)
                client_reg.gauge("uucs_client_clock").set(float(n))
                reply = push_snapshot(host, port, client, client_reg.snapshot())
                assert reply["ok"] is True
            body = self._scrape(
                exporter.address, b"GET /metrics HTTP/1.0\r\n\r\n"
            )
            # counters sum across clients; the local registry is untouched
            assert "uucs_client_runs_total 30" in body
            assert "uucs_server_syncs_total 5" in body
            assert "uucs_pushed_clients 2" in body
            assert exporter.pushed_clients() == ["guid-a", "guid-b"]
            assert server_reg.get("uucs_client_runs_total") is None
            # re-pushing replaces (cumulative snapshots are idempotent)
            client_reg = MetricsRegistry()
            client_reg.counter("uucs_client_runs_total", "R.").inc(15)
            push_snapshot(host, port, "guid-a", client_reg.snapshot())
            body = self._scrape(
                exporter.address, b"GET /metrics HTTP/1.0\r\n\r\n"
            )
            assert "uucs_client_runs_total 35" in body
            # rollups saw the pushes
            assert rollups.get("guid-a").pushes == 2
            assert rollups.get("guid-b").pushes == 1


class TestSummary:
    """``uucs metrics-summary``: event counts plus the span table it shares
    with ``uucs trace``."""

    @staticmethod
    def summarize(path, capsys):
        from repro.cli import main

        assert main(["metrics-summary", str(path)]) == 0
        return capsys.readouterr().out

    def test_span_stats(self):
        events = [
            Event("span", 0.0, {"span": "s", "duration_s": 1.0, "outcome": "ok"}),
            Event("span", 0.0, {"span": "s", "duration_s": 3.0,
                                "outcome": "error:ValueError"}),
            Event("other", 0.0, {}),
        ]
        stats = span_name_stats(
            SpanRecord.from_event(e) for e in events if e.name == "span"
        )
        assert stats["s"]["count"] == 2
        assert stats["s"]["errors"] == 1
        assert stats["s"]["total_s"] == 4.0
        assert stats["s"]["mean_s"] == 2.0
        assert stats["s"]["max_s"] == 3.0
        # Exact quantiles: recorded durations, never beyond min/max.
        assert (stats["s"]["p50_s"], stats["s"]["p90_s"],
                stats["s"]["p99_s"]) == (1.0, 3.0, 3.0)

    def test_summarize_renders_tables(self, tmp_path, capsys):
        events = [
            Event("client.run", 0.0, {}),
            Event("span", 0.0, {"span": "hot_sync", "duration_s": 0.1}),
        ]
        path = tmp_path / "ev.jsonl"
        path.write_text("".join(e.to_json() + "\n" for e in events))
        text = self.summarize(path, capsys)
        assert "Event counts" in text
        assert "client.run" in text
        assert "Span durations" in text
        assert "hot_sync" in text

    def test_render_summary_from_path(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        tel = Telemetry.to_path(path)
        tel.emit("a.b")
        with tel.span("work"):
            pass
        tel.close()
        text = self.summarize(path, capsys)
        assert "a.b" in text and "work" in text
