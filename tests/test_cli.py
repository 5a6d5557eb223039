"""Tests for the uucs CLI toolchain."""

import re
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.stores import ResultStore


def run_cli(*args):
    return main(list(args))


def span_table(out):
    """``{span: {column: cell}}`` from the span-statistics table in ``out``."""
    lines = out.splitlines()
    at = next(
        i for i, line in enumerate(lines)
        if line.startswith("span ") and " p50 s " in line
    )
    headers = re.split(r"\s{2,}", lines[at])
    rows = {}
    for line in lines[at + 2:]:
        if line.startswith("---"):
            break
        cells = re.split(r"\s{2,}", line)
        rows[cells[0]] = dict(zip(headers, cells))
    return rows


class TestTestcaseTools:
    def test_gen_and_view(self, tmp_path, capsys):
        store = str(tmp_path / "tcs")
        assert run_cli("testcase-gen", "--store", store, "--shape", "ramp",
                       "--resource", "cpu", "--level", "2.0") == 0
        out = capsys.readouterr().out
        assert "ramp-cpu-2" in out
        assert run_cli("testcase-view", "ramp-cpu-2", "--store", store) == 0
        out = capsys.readouterr().out
        assert "shape=ramp" in out
        assert "max=2" in out

    def test_gen_all_shapes(self, tmp_path):
        store = str(tmp_path / "tcs")
        for shape in ("step", "ramp", "sine", "sawtooth", "constant", "blank"):
            assert run_cli("testcase-gen", "--store", store, "--shape", shape,
                           "--id", f"tc-{shape}") == 0

    def test_gen_library(self, tmp_path, capsys):
        store = str(tmp_path / "tcs")
        assert run_cli("testcase-gen", "--store", store, "--library", "12",
                       "--seed", "1") == 0
        assert "12" in capsys.readouterr().out

    def test_view_missing_errors(self, tmp_path, capsys):
        # StoreError family exits 5 (see cli._EXIT_CODES).
        assert run_cli("testcase-view", "nope",
                       "--store", str(tmp_path)) == 5
        assert "error" in capsys.readouterr().err

    def test_bad_level_reports_error(self, tmp_path, capsys):
        # ValidationError family exits 3.
        assert run_cli("testcase-gen", "--store", str(tmp_path),
                       "--shape", "constant", "--resource", "memory",
                       "--level", "5.0") == 3


class TestStudyPipeline:
    def test_study_analyze_import(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", results) == 0
        assert "128 runs" in capsys.readouterr().out
        assert run_cli("analyze", "--results", results) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Figure 14" in out
        assert "Figure 16" in out
        assert "Figure 17" in out
        db = str(tmp_path / "r.sqlite")
        assert run_cli("import-db", "--results", results,
                       "--database", db) == 0
        assert "imported 128" in capsys.readouterr().out

    def test_analyze_empty(self, tmp_path, capsys):
        assert run_cli("analyze", "--results", str(tmp_path / "empty")) == 1

    def test_study_sharded_byte_identical_store(self, tmp_path, capsys):
        single = str(tmp_path / "single")
        sharded = str(tmp_path / "sharded")
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", single) == 0
        assert "1 shard(s)" in capsys.readouterr().out
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", sharded, "--shards", "2") == 0
        out = capsys.readouterr().out
        assert "128 runs" in out
        assert "2 shard(s)" in out
        a = (tmp_path / "single" / "results.jsonl").read_bytes()
        b = (tmp_path / "sharded" / "results.jsonl").read_bytes()
        assert a == b

    def test_study_wall_time_includes_store_write(self, tmp_path, capsys,
                                                  monkeypatch):
        # The one-shard path's printed wall time covers its store write,
        # as the checkpointed path's covers its shard commits.
        from repro.stores import ResultStore

        write = ResultStore.extend_batches

        def slow_write(self, batches, dedupe=False):
            time.sleep(0.2)
            return write(self, batches, dedupe)

        monkeypatch.setattr(ResultStore, "extend_batches", slow_write)
        assert run_cli("study", "--users", "2", "--seed", "9",
                       "--results", str(tmp_path / "r")) == 0
        out = capsys.readouterr().out
        assert "1 shard(s)" in out
        assert float(re.search(r"([\d.]+)s wall", out).group(1)) >= 0.2

    def test_study_bad_shards_errors(self, tmp_path, capsys):
        # StudyError family exits 9.
        assert run_cli("study", "--users", "2", "--shards", "0",
                       "--results", str(tmp_path / "r")) == 9
        assert run_cli("study", "--users", "2", "--shards", "soon",
                       "--results", str(tmp_path / "r2")) == 9

    def test_study_shards_auto(self, tmp_path, capsys, monkeypatch):
        """`--shards auto` sizes the pool from os.cpu_count(), clamped to
        the user count (2 users here, so 2 shards regardless of cores)."""
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert run_cli("study", "--users", "2", "--seed", "9",
                       "--shards", "auto",
                       "--results", str(tmp_path / "r")) == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_study_interrupt_then_resume_byte_identical(self, tmp_path,
                                                        capsys):
        """sigint chaos interrupts after the first shard (exit 130 with a
        resume hint); --resume finishes the study byte-identically to an
        uninterrupted run."""
        plain = str(tmp_path / "plain")
        resumed = str(tmp_path / "resumed")
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", plain) == 0
        capsys.readouterr()
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", resumed, "--shards", "2",
                       "--chaos", "sigint=1.0") == 130
        assert "--resume" in capsys.readouterr().err
        # Restarting WITHOUT --resume over the unfinished manifest is a
        # refusal (StudyError family exits 9), not silent corruption.
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", resumed, "--shards", "2") == 9
        assert "resume" in capsys.readouterr().err
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", resumed, "--shards", "2",
                       "--resume") == 0
        assert "128 runs" in capsys.readouterr().out
        a = (tmp_path / "plain" / "results.jsonl").read_bytes()
        b = (tmp_path / "resumed" / "results.jsonl").read_bytes()
        assert a == b

    def test_resume_keeps_results_appended_after_completion(self, tmp_path,
                                                             capsys):
        """--resume over a completed manifest must not cut the runs a
        later study appended to the same store."""
        results = str(tmp_path / "r")
        store = tmp_path / "r" / "results.jsonl"
        assert run_cli("study", "--users", "2", "--seed", "5",
                       "--results", results, "--shards", "2") == 0
        assert run_cli("study", "--users", "2", "--seed", "6",
                       "--results", results) == 0
        appended = store.read_bytes()
        assert run_cli("study", "--users", "2", "--seed", "5",
                       "--results", results, "--shards", "2",
                       "--resume") == 0
        assert store.read_bytes() == appended

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs /dev/full")
    def test_study_survives_a_full_event_log(self, tmp_path, capsys):
        # Telemetry that cannot write drops its events with one warning;
        # the study and its store carry on.
        results = tmp_path / "r"
        assert run_cli("study", "--users", "1", "--seed", "3",
                       "--results", str(results),
                       "--telemetry", "/dev/full") == 0
        assert len(ResultStore(results)) == 32
        assert capsys.readouterr().err.count("warning:") == 1

    def test_study_kill_chaos_retried_byte_identical(self, tmp_path,
                                                     capsys, monkeypatch):
        """Seeded worker-kill chaos (the CI chaos-shards scenario): the
        supervisor retries the killed shard and the store still matches
        the clean run byte for byte."""
        monkeypatch.setenv("UUCS_CHAOS_SEED", "42")
        plain = str(tmp_path / "plain")
        chaotic = str(tmp_path / "chaos")
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", plain) == 0
        assert run_cli("study", "--users", "4", "--seed", "9",
                       "--results", chaotic, "--shards", "2",
                       "--chaos", "kill=0.5,kill_after_runs=2",
                       "--shard-retries", "6") == 0
        assert "128 runs" in capsys.readouterr().out
        a = (tmp_path / "plain" / "results.jsonl").read_bytes()
        b = (tmp_path / "chaos" / "results.jsonl").read_bytes()
        assert a == b

    def test_study_bad_chaos_spec_errors(self, tmp_path, capsys):
        # ValidationError family exits 3.
        assert run_cli("study", "--users", "2",
                       "--results", str(tmp_path / "r"),
                       "--chaos", "explode=1.0") == 3
        assert "error" in capsys.readouterr().err


class TestTestcaseEdit:
    def test_scale_and_rename(self, tmp_path, capsys):
        store = str(tmp_path / "tcs")
        run_cli("testcase-gen", "--store", store, "--shape", "ramp",
                "--resource", "cpu", "--level", "4.0", "--id", "base")
        assert run_cli("testcase-edit", "base", "--store", store,
                       "--scale", "0.5", "--new-id", "half") == 0
        capsys.readouterr()
        run_cli("testcase-view", "half", "--store", store)
        assert "max=2" in capsys.readouterr().out

    def test_merge(self, tmp_path, capsys):
        store = str(tmp_path / "tcs")
        run_cli("testcase-gen", "--store", store, "--shape", "ramp",
                "--resource", "cpu", "--level", "1.0", "--id", "a")
        run_cli("testcase-gen", "--store", store, "--shape", "ramp",
                "--resource", "disk", "--level", "2.0", "--id", "b")
        assert run_cli("testcase-edit", "a", "--store", store,
                       "--merge", "b", "--new-id", "ab") == 0
        capsys.readouterr()
        run_cli("testcase-view", "ab", "--store", store)
        out = capsys.readouterr().out
        assert "cpu" in out and "disk" in out

    def test_crop_and_speed(self, tmp_path, capsys):
        store = str(tmp_path / "tcs")
        run_cli("testcase-gen", "--store", store, "--shape", "ramp",
                "--resource", "cpu", "--level", "2.0", "--duration", "100",
                "--id", "base")
        assert run_cli("testcase-edit", "base", "--store", store,
                       "--crop-start", "20", "--crop-end", "80",
                       "--speed", "2.0", "--new-id", "mod") == 0
        assert "30s" in capsys.readouterr().out

    def test_invalid_edit_errors(self, tmp_path, capsys):
        store = str(tmp_path / "tcs")
        run_cli("testcase-gen", "--store", store, "--shape", "ramp",
                "--resource", "cpu", "--level", "4.0", "--id", "base")
        assert run_cli("testcase-edit", "base", "--store", store,
                       "--scale", "100.0") == 3


class TestServeAndClient:
    def test_serve_briefly(self, tmp_path, capsys):
        assert run_cli("serve", "--root", str(tmp_path / "srv"),
                       "--library", "3", "--timeout", "0.2") == 0
        out = capsys.readouterr().out
        assert "UUCS server on 127.0.0.1" in out
        assert "3 testcases" in out

    def test_serve_asyncio_backend(self, tmp_path, capsys):
        # The asyncio transport is the only server; a connection cap is
        # accepted and the server still comes up.
        assert run_cli("serve", "--root", str(tmp_path / "srv"),
                       "--max-connections", "64",
                       "--library", "3", "--timeout", "0.2") == 0
        out = capsys.readouterr().out
        assert "UUCS server on 127.0.0.1" in out
        assert "3 testcases" in out

    def test_serve_rejects_zero_max_connections(self, tmp_path, capsys):
        # Omitting the flag means no limit; 0 is a validation error.
        assert run_cli("serve", "--root", str(tmp_path / "srv"),
                       "--max-connections", "0", "--timeout", "0.2") == 3
        assert "max_connections must be >= 1" in capsys.readouterr().err

    def test_serve_asyncio_with_chaos_proxy(self, tmp_path, capsys):
        assert run_cli("serve", "--root", str(tmp_path / "srv"),
                       "--library", "2",
                       "--chaos", "drop=0.1", "--timeout", "0.2") == 0
        out = capsys.readouterr().out
        assert "UUCS server on 127.0.0.1" in out
        assert "chaos proxy on" in out

    def test_client_against_tcp_server(self, tmp_path, capsys):
        from repro.net import AsyncioServerTransport
        from repro.server import UUCSServer
        from repro.study import generate_library

        server = UUCSServer(tmp_path / "srv", seed=1)
        server.add_testcases(generate_library(10, seed=1))
        with AsyncioServerTransport(server) as listener:
            _, port = listener.address
            assert run_cli(
                "client", "--port", str(port),
                "--root", str(tmp_path / "c"),
                "--duration", "2500", "--interval", "400", "--seed", "4",
            ) == 0
        out = capsys.readouterr().out
        assert "registered" in out
        assert "uploaded" in out
        assert len(server.registry) == 1

    def test_client_refused_connection(self, tmp_path, capsys):
        # ProtocolError family exits 6.
        assert run_cli("client", "--port", "1",
                       "--root", str(tmp_path / "c")) == 6


class TestExitCodes:
    def test_distinct_codes_per_error_family(self):
        from repro import errors
        from repro.cli import _EXIT_CODES, _exit_code

        codes = list(_EXIT_CODES.values())
        assert len(codes) == len(set(codes)), "exit codes must be distinct"
        assert all(c >= 2 for c in codes)
        # Subclasses not in the map fall back to their nearest ancestor.
        assert _exit_code(errors.RegistrationError("x")) == \
            _EXIT_CODES[errors.ProtocolError]
        assert _exit_code(errors.CalibrationError("x")) == \
            _EXIT_CODES[errors.ExerciserError]
        assert _exit_code(errors.InsufficientDataError("x")) == \
            _EXIT_CODES[errors.AnalysisError]
        assert _exit_code(errors.ReproError("x")) == 2


class TestTelemetryCommands:
    def test_study_writes_event_log_and_summary_renders(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        log = str(tmp_path / "events.jsonl")
        assert run_cli("study", "--users", "2", "--seed", "7",
                       "--results", results, "--telemetry", log) == 0
        out = capsys.readouterr().out
        assert "telemetry event log" in out
        assert run_cli("metrics-summary", log) == 0
        out = capsys.readouterr().out
        assert "Event counts" in out
        assert "session.run" in out
        assert "study.controlled" in out

    def test_metrics_summary_missing_file_warns_and_exits_zero(
        self, tmp_path, capsys
    ):
        assert run_cli("metrics-summary", str(tmp_path / "nope.jsonl")) == 0
        captured = capsys.readouterr()
        assert "warning: cannot read event log" in captured.err
        assert "Event counts" in captured.out

    def test_metrics_summary_empty_log(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert run_cli("metrics-summary", str(log)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Event counts" in captured.out

    def test_metrics_summary_truncated_log_skips_bad_lines(
        self, tmp_path, capsys
    ):
        log = tmp_path / "truncated.jsonl"
        log.write_text(
            '{"event": "client.run", "ts": 1.0, "fields": {}}\n'
            '{"event": "span", "ts": 2.0, "fields": {"span": "hot_sync", '
            '"duration_s": 0.5}}\n'
            '{"event": "client.ru'  # crashed writer: truncated tail
        )
        assert run_cli("metrics-summary", str(log)) == 0
        captured = capsys.readouterr()
        assert "warning: line 3: skipped" in captured.err
        assert "client.run" in captured.out
        assert "hot_sync" in captured.out

    def test_metrics_summary_and_trace_agree_on_span_stats(
        self, tmp_path, capsys
    ):
        """Both readers render one span table from the recorded durations,
        so every quantile is a duration the span really took."""
        log = tmp_path / "events.jsonl"
        assert run_cli("study", "--users", "8", "--seed", "9",
                       "--shards", "2", "--results", str(tmp_path / "res"),
                       "--telemetry", str(log)) == 0
        # One log holding the driver's and both shard workers' spans.
        combined = tmp_path / "all.jsonl"
        combined.write_text("".join(
            path.read_text()
            for path in [log, *sorted(tmp_path.glob("events.shard*.jsonl"))]
        ))
        capsys.readouterr()
        assert run_cli("metrics-summary", str(combined)) == 0
        summary = span_table(capsys.readouterr().out)
        assert {"study.sharded", "study.shard_worker"} <= set(summary)
        for name, row in summary.items():
            ordered = [float(row[c]) for c in
                       ("p50 s", "p90 s", "p99 s", "max s")]
            assert ordered == sorted(ordered), (name, row)
            assert float(row["min s"]) <= ordered[0], (name, row)
        assert run_cli("trace", str(combined)) == 0
        traced = span_table(capsys.readouterr().out)
        assert traced.keys() == summary.keys()
        for name, row in summary.items():
            for column in ("count", "total s", "min s", "max s",
                           "p50 s", "p90 s", "p99 s"):
                assert row[column] == traced[name][column], (name, column)

    def test_serve_with_metrics_port(self, tmp_path, capsys):
        assert run_cli("serve", "--root", str(tmp_path / "srv"),
                       "--library", "2", "--timeout", "0.2",
                       "--metrics-port", "0") == 0
        out = capsys.readouterr().out
        assert "metrics endpoint on 127.0.0.1" in out

    def test_serve_address_is_scrapable_through_a_pipe(self, tmp_path):
        """A script piping `uucs serve` must see the bound address while
        the server is still running (stdout is flushed, not block-buffered)
        and be able to scrape the ephemeral metrics port it names."""
        import os
        import subprocess
        import sys

        from repro.telemetry.aggregate import fetch_snapshot

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(tmp_path / "srv"), "--library", "1",
             "--timeout", "10", "--metrics-port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            serve_addr = metrics_addr = None
            for line in proc.stdout:
                if line.startswith("UUCS server on "):
                    serve_addr = line.split()[3]
                elif line.startswith("metrics endpoint on "):
                    metrics_addr = line.split()[-1]
                    break
            assert serve_addr and metrics_addr, \
                "server never printed its endpoints"
            mhost, _, mport = metrics_addr.partition(":")
            assert int(mport) != 0  # the actual bound port, not the request
            # Drive a client at the served port, then scrape the fleet view.
            _, _, sport = serve_addr.partition(":")
            assert run_cli("client", "--port", sport,
                           "--root", str(tmp_path / "c"),
                           "--duration", "900", "--interval", "400") == 0
            snapshot = fetch_snapshot(mhost, int(mport))
            assert "uucs_server_clients" in snapshot.names()
            assert snapshot.series("uucs_server_clients") == {"": 1.0}
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestDashboardCLI:
    @staticmethod
    def _exporter():
        from repro.telemetry.exporter import MetricsExporter
        from repro.telemetry.metrics import MetricsRegistry

        return MetricsExporter(MetricsRegistry())

    def test_prints_summary_and_url(self, capsys):
        from repro.telemetry.aggregate import push_snapshot
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "uucs_client_runs_total", "runs", labelnames=("outcome",)
        ).inc(4, outcome="exhausted")
        with self._exporter() as exporter:
            host, port = exporter.address
            push_snapshot(host, port, "probe", registry.snapshot())
            assert run_cli("dashboard", "--port", str(port)) == 0
        out = capsys.readouterr().out
        assert f"dashboard -> http://127.0.0.1:{port}/?refresh=30" in out
        assert "fleet: 1 active" in out
        assert "Fleet" in out and "probe" in out

    def test_refresh_zero_omits_query(self, capsys):
        with self._exporter() as exporter:
            _, port = exporter.address
            assert run_cli("dashboard", "--port", str(port),
                           "--refresh", "0") == 0
        out = capsys.readouterr().out
        assert f"dashboard -> http://127.0.0.1:{port}/\n" in out

    def test_unreachable_exporter_exits_protocol(self, capsys):
        # ProtocolError family exits 6; grab a port nothing listens on.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert run_cli("dashboard", "--port", str(port)) == 6
        assert "error" in capsys.readouterr().err


class TestStudyPushGateway:
    def test_study_pushes_progress_to_gateway(self, tmp_path, capsys):
        from repro.telemetry.exporter import MetricsExporter
        from repro.telemetry.metrics import MetricsRegistry

        with MetricsExporter(MetricsRegistry()) as exporter:
            host, port = exporter.address
            assert run_cli(
                "study", "--users", "2", "--seed", "7", "--shards", "2",
                "--results", str(tmp_path / "results"),
                "--push-gateway", f"{host}:{port}",
            ) == 0
            out = capsys.readouterr().out
            assert f"pushed study metrics to {host}:{port}" in out
            fleet = exporter.fleet_view()
        (row,) = fleet["clients"]
        assert row["client_id"] == "study-seed7"
        study = fleet["study"]
        assert study is not None and study["progress_ratio"] == 1.0
        assert len(study["shards"]) == 2

    def test_unreachable_gateway_warns_but_succeeds(self, tmp_path, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert run_cli(
            "study", "--users", "2", "--seed", "7",
            "--results", str(tmp_path / "results"),
            "--push-gateway", f"127.0.0.1:{port}",
        ) == 0
        captured = capsys.readouterr()
        assert "warning: metrics push" in captured.err
        assert "controlled study: " in captured.out

    def test_bad_hostport_is_validation_error(self, tmp_path, capsys):
        assert run_cli(
            "study", "--users", "2",
            "--results", str(tmp_path / "results"),
            "--push-gateway", "no-port-here",
        ) == 3
        assert "error" in capsys.readouterr().err
