"""Tests for the `uucs top` dashboard (repro.telemetry.dashboard)."""

import http.server
import io
import json
import threading
from contextlib import contextmanager

import pytest

from repro.errors import ProtocolError
from repro.telemetry import (
    ClientRollup,
    ClientRollups,
    MetricsRegistry,
    check_snapshot,
    fetch_snapshot,
)
from repro.telemetry.dashboard import TopDashboard, _format_bytes
from repro.telemetry.exporter import MetricsExporter


def make_snapshot(syncs=4.0, observations=()):
    reg = MetricsRegistry()
    reg.counter("uucs_server_syncs_total", "S.").inc(syncs)
    reg.gauge("uucs_server_clients", "C.").set(2)
    h = reg.histogram("uucs_server_request_seconds", buckets=(0.1, 1.0))
    for v in observations:
        h.observe(v)
    return check_snapshot(reg.snapshot(), reg.shape)


def make_clients(syncs=3):
    return [
        ClientRollup(
            client_id="aaaabbbbccccdddd",
            syncs=syncs,
            results=5,
            discomforts=1,
            bytes_read=2048,
            bytes_written=4096,
            pushes=1,
            last_seen=7.0,
        )
    ]


class FakeFeed:
    """Scripted snapshot/client feed standing in for a live exporter."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.calls = 0

    def snapshot(self, host, port):
        return self.frames[min(self.calls, len(self.frames) - 1)][0]

    def clients(self, host, port):
        frame = self.frames[min(self.calls, len(self.frames) - 1)]
        self.calls += 1
        return frame[1]


class TestRendering:
    def _dashboard(self, frames, ticks=None):
        feed = FakeFeed(frames)
        clock = iter(ticks or [0.0, 10.0, 20.0, 30.0])
        return TopDashboard(
            "127.0.0.1",
            1234,
            interval=0.0,
            fetch_snapshot=feed.snapshot,
            fetch_clients=feed.clients,
            clock=lambda: next(clock),
        )

    def test_first_frame_has_no_rates(self):
        dash = self._dashboard([(make_snapshot(observations=[0.05]), make_clients())])
        frame = dash.render_once()
        assert "uucs top — 127.0.0.1:1234 — tick 1" in frame
        assert "Counters" in frame and "Gauges" in frame
        assert "Histograms" in frame and "Clients" in frame
        assert "aaaabbbbcccc" in frame  # GUID truncated to 12 chars
        # no previous sample -> deltas and rates are the * placeholder
        assert "*" in frame

    def test_second_frame_computes_deltas_and_rates(self):
        dash = self._dashboard(
            [
                (make_snapshot(syncs=4.0), make_clients(syncs=3)),
                (make_snapshot(syncs=24.0), make_clients(syncs=9)),
            ]
        )
        dash.render_once()
        frame = dash.render_once()
        # counter went 4 -> 24 over dt=10s: delta 20, rate 2/s
        row = next(
            line for line in frame.splitlines()
            if line.startswith("uucs_server_syncs_total")
        )
        assert "20" in row and "2.00" in row
        # client sync delta 9 - 3 = 6
        client_row = next(
            line for line in frame.splitlines()
            if line.startswith("aaaabbbbcccc")
        )
        assert "6" in client_row.split()

    def test_histogram_quantile_columns(self):
        snapshot = make_snapshot(observations=[0.05] * 50 + [0.5] * 50)
        dash = self._dashboard([(snapshot, [])])
        frame = dash.render_once()
        row = next(
            line for line in frame.splitlines()
            if line.startswith("uucs_server_request_seconds")
        )
        # p50 lands in the first bucket, p99 in the second
        cells = row.split()
        assert cells[1] == "100"  # count
        assert float(cells[3]) <= 0.1  # p50
        assert 0.1 < float(cells[5]) <= 1.0  # p99

    def test_unobserved_unlabelled_histogram_keeps_its_row(self):
        reg = MetricsRegistry()
        reg.histogram("uucs_server_idle_seconds", buckets=(1.0,))
        snapshot = check_snapshot(reg.snapshot(), reg.shape)
        frame = self._dashboard([(snapshot, [])]).render_once()
        row = next(
            line for line in frame.splitlines()
            if line.startswith("uucs_server_idle_seconds")
        )
        assert row.split() == ["uucs_server_idle_seconds", "0"] + ["*"] * 4

    def test_series_rows_in_snapshot_key_order(self):
        reg = MetricsRegistry()
        runs = reg.counter("runs_total", labelnames=("task", "resource"))
        runs.inc(task="word", resource="cpu")
        runs.inc(task="word processor", resource="cpu")
        snapshot = check_snapshot(reg.snapshot(), reg.shape)
        frame = self._dashboard([(snapshot, [])]).render_once()
        keys = [line.split("  ")[1].strip() for line in frame.splitlines()
                if line.startswith("runs_total")]
        assert keys == ["word processor,cpu", "word,cpu"]

    def test_empty_snapshot_renders_header_only(self):
        dash = self._dashboard([({}, [])])
        frame = dash.render_once()
        assert "0 metrics, 0 clients" in frame
        assert "Counters" not in frame

    def test_run_writes_frames_and_honours_iterations(self):
        dash = self._dashboard(
            [(make_snapshot(), make_clients())], ticks=[0.0, 1.0, 2.0, 3.0]
        )
        out = io.StringIO()
        slept = []
        drawn = dash.run(iterations=3, out=out, sleep=slept.append, clear=False)
        assert drawn == 3
        assert out.getvalue().count("uucs top —") == 3
        assert slept == [0.0, 0.0]  # no sleep after the final frame
        assert "\x1b[2J" not in out.getvalue()

    def test_run_clear_screen_prefix(self):
        dash = self._dashboard([(make_snapshot(), [])])
        out = io.StringIO()
        dash.run(iterations=1, out=out, sleep=lambda _s: None, clear=True)
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_run_stops_on_keyboard_interrupt(self):
        dash = self._dashboard(
            [(make_snapshot(), [])], ticks=[0.0, 1.0, 2.0, 3.0, 4.0]
        )

        def interrupt(_s):
            raise KeyboardInterrupt

        out = io.StringIO()
        drawn = dash.run(iterations=0, out=out, sleep=interrupt, clear=False)
        assert drawn == 1


class TestAgainstLiveExporter:
    def test_polls_live_exporter(self):
        reg = MetricsRegistry()
        reg.counter("uucs_server_syncs_total", "S.").inc(2)
        reg.histogram("uucs_server_request_seconds", buckets=(0.1, 1.0)).observe(0.05)
        rollups = ClientRollups()
        rollups.record_sync("guid-1", results=4, discomforts=2)
        with MetricsExporter(reg, rollups=rollups) as exporter:
            host, port = exporter.address
            dash = TopDashboard(host, port, interval=0.0)
            first = dash.render_once()
            reg.counter("uucs_server_syncs_total").inc(6)
            second = dash.render_once()
        assert "uucs_server_syncs_total" in first
        assert "guid-1" in first
        row = next(
            line for line in second.splitlines()
            if line.startswith("uucs_server_syncs_total")
        )
        assert "8" in row.split()  # new value visible on the next poll
        assert "6" in row.split()  # and the delta since the last frame


def test_format_bytes():
    assert _format_bytes(512) == "512B"
    assert _format_bytes(2048) == "2.0KiB"
    assert _format_bytes(5 * 1024 * 1024) == "5.0MiB"
    assert _format_bytes(3 * 1024**3) == "3.0GiB"


def test_cli_top_and_clients_against_live_exporter(capsys):
    from repro.cli import main

    reg = MetricsRegistry()
    reg.counter("uucs_server_syncs_total", "S.").inc(1)
    rollups = ClientRollups()
    rollups.record_sync("guid-42", results=1)
    with MetricsExporter(reg, rollups=rollups) as exporter:
        _, port = exporter.address
        assert main(["clients", "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "guid-42" in out
        assert main(
            ["top", "--port", str(port), "--iterations", "1",
             "--interval", "0", "--no-clear"]
        ) == 0
        out = capsys.readouterr().out
        assert "uucs top —" in out
        assert "guid-42" in out


def test_cli_top_unreachable_endpoint_exits_protocol_error():
    from repro.cli import main

    assert main(["top", "--port", "1", "--iterations", "1"]) == 6
    assert main(["clients", "--port", "1"]) == 6


@contextmanager
def serving(body: bytes):
    """An HTTP endpoint that answers every GET with ``body``."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            payload = body if self.path == "/snapshot" else b"[]"
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


#: A /snapshot body whose histogram count is not a number.
BAD_COUNT = json.dumps({"uucs_server_request_seconds": {
    "kind": "histogram", "labels": [], "value": {
        "count": "x", "sum": 0.5, "buckets": {"1": 1},
    },
}}).encode()


class TestMalformedSnapshot:
    @pytest.mark.parametrize(
        "body", [b"{nope", b"\x80abc", b"[1, 2]", BAD_COUNT],
        ids=["not-json", "not-utf8", "not-an-object", "bad-count"],
    )
    def test_fetch_snapshot_rejects_garbage(self, body):
        with serving(body) as (host, port):
            with pytest.raises(ProtocolError):
                fetch_snapshot(host, port)

    def test_cli_top_exits_protocol_error(self, capsys):
        from repro.cli import main

        with serving(BAD_COUNT) as (host, port):
            assert main(["top", "--port", str(port), "--iterations", "1",
                         "--no-clear"]) == 6
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert len(err.splitlines()) == 1
