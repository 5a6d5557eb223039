#!/usr/bin/env python
"""Headless smoke test for the fleet web dashboard (CI gate).

Boots a real :class:`MetricsExporter`, pushes two synthetic client
snapshots through the push gateway, then exercises the public surface
exactly as a browser would:

* ``GET /`` must serve the self-contained HTML page;
* ``GET /fleet`` must validate against the checked-in wire contract
  ``tests/schemas/fleet.schema.json``;
* ``GET /history`` must return the ring-buffer series for both clients;
* ``GET /stream`` must deliver the ``hello`` frame and one live ``push``
  frame (triggered by a third snapshot) over SSE;
* ``uucs top --iterations 1 --no-clear`` and ``uucs clients`` must exit
  0 against the exporter, top's Fleet table must list every pushed
  client, and every ``/clients`` row must carry a ``last_seen`` stamp.

Stdlib only — the schema check is a deliberately small validator
covering the subset the schema file uses (type, required, properties,
items, minimum, enum), not a jsonschema dependency.

Run directly (``python tests/dashboard_smoke.py``) or via pytest
(``tests/test_web_dashboard.py::test_dashboard_smoke``). Exit 0 on
success, 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import io
import json
import socket
import sys
import urllib.request
from contextlib import redirect_stdout
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

SCHEMA_PATH = Path(__file__).resolve().parent / "schemas" / "fleet.schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def validate(instance, schema, path="$"):
    """Check ``instance`` against the mini JSON-schema subset; returns a
    list of error strings (empty = valid)."""
    errors = []
    allowed = schema.get("type")
    if allowed is not None:
        names = [allowed] if isinstance(allowed, str) else list(allowed)
        ok = False
        for name in names:
            python_type = _TYPES[name]
            if isinstance(instance, python_type) and not (
                name in ("integer", "number") and isinstance(instance, bool)
            ):
                ok = True
                break
        if not ok:
            return [f"{path}: expected {'|'.join(names)}, "
                    f"got {type(instance).__name__}"]
        if instance is None:
            return []  # a nullable slot that is null needs no more checks
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        minimum = schema.get("minimum")
        if minimum is not None and instance < minimum:
            errors.append(f"{path}: {instance} < minimum {minimum}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(validate(instance[key], subschema, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


def synthetic_registry(runs, levels, borrow, sched=None):
    """A client-shaped registry: run counter, borrow gauge, discomfort CDF.

    ``sched=(harvested_s, denials, ceiling)`` additionally populates the
    harvesting-scheduler metric families a ``uucs harvest`` run pushes.
    """
    from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter(
        "uucs_client_runs_total", "runs", labelnames=("outcome",)
    )
    counter.inc(runs - len(levels), outcome="exhausted")
    if levels:
        counter.inc(len(levels), outcome="discomfort")
    registry.gauge("uucs_throttle_ceiling", "borrow").set(borrow)
    histogram = registry.histogram(
        "uucs_discomfort_level",
        "levels",
        labelnames=("task", "resource"),
        buckets=DISCOMFORT_LEVEL_BUCKETS,
    )
    for level in levels:
        histogram.observe(level, task="word", resource="cpu")
    if sched is not None:
        harvested_s, denials, ceiling = sched
        registry.counter(
            "uucs_sched_harvested_resource_seconds_total",
            "harvested",
            labelnames=("task", "resource"),
        ).inc(harvested_s, task="word", resource="cpu")
        registry.counter(
            "uucs_sched_admission_denials_total",
            "denials",
            labelnames=("task", "resource"),
        ).inc(denials, task="word", resource="cpu")
        registry.gauge(
            "uucs_sched_ceiling",
            "ceiling",
            labelnames=("task", "resource"),
        ).set(ceiling, task="word", resource="cpu")
    return registry


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def run_cli(*args):
    """``uucs ARGS`` in this process; returns (exit code, stdout)."""
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def table_rows(text, title):
    """The first cells of the rows of the table titled ``title``."""
    lines = text.splitlines()
    check(title in lines, f"no {title!r} table in:\n{text}")
    rows = []
    for line in lines[lines.index(title) + 4:]:
        if line.startswith("---"):
            break
        rows.append(line.split()[0])
    return rows


def read_sse_frame(sock, buffer, want_event):
    """Read from ``sock`` until a non-comment frame of ``want_event``
    arrives; returns (fields, remaining_buffer)."""
    sock.settimeout(10)
    while True:
        while b"\n\n" in buffer:
            frame, buffer = buffer.split(b"\n\n", 1)
            if frame.startswith(b":"):
                continue
            fields = {}
            for line in frame.split(b"\n"):
                name, _, value = line.partition(b": ")
                fields[name.decode()] = value.decode()
            if fields.get("event") == want_event:
                fields["data"] = json.loads(fields["data"])
                return fields, buffer
        chunk = sock.recv(65536)
        check(chunk, f"stream closed before a {want_event!r} frame")
        buffer += chunk


def main():
    from repro.telemetry.aggregate import push_snapshot
    from repro.telemetry.exporter import MetricsExporter
    from repro.telemetry.metrics import MetricsRegistry

    schema = json.loads(SCHEMA_PATH.read_text())
    with MetricsExporter(MetricsRegistry()) as exporter:
        host, port = exporter.address
        base = f"http://{host}:{port}"

        # Two synthetic clients: a harvesting scheduler and a plain client.
        push_snapshot(host, port, "smoke-a",
                      synthetic_registry(20, [0.5, 0.9], 0.30,
                                         sched=(432.5, 3, 1.25)).snapshot())
        push_snapshot(host, port, "smoke-b",
                      synthetic_registry(12, [0.15], 0.10).snapshot())

        status, headers, body = fetch(base + "/")
        check(status == 200, f"GET / -> {status}")
        check(headers.get("Content-Type") == "text/html; charset=utf-8",
              f"GET / content-type {headers.get('Content-Type')!r}")
        check(body.startswith(b"<!DOCTYPE html"), "GET / is not the HTML page")
        check(b"EventSource" in body, "page lost its SSE client")
        print(f"ok GET /        {len(body)} bytes of HTML")

        status, headers, body = fetch(base + "/fleet")
        check(status == 200, f"GET /fleet -> {status}")
        check(headers.get("Content-Type") == "application/json; charset=utf-8",
              f"GET /fleet content-type {headers.get('Content-Type')!r}")
        fleet = json.loads(body)
        schema_errors = validate(fleet, schema)
        check(not schema_errors,
              "fleet schema violations:\n  " + "\n  ".join(schema_errors))
        check(len(fleet["clients"]) == 2, "expected 2 fleet rows")
        check(fleet["totals"]["active"] == 2, "both clients should be fresh")
        check(all(row["min_headroom"] is not None for row in fleet["clients"]),
              "comfort headroom missing from a pushed client")
        rows = {row["client_id"]: row for row in fleet["clients"]}
        check(rows["smoke-a"]["sched_harvested_s"] == 432.5,
              f"sched_harvested_s {rows['smoke-a']['sched_harvested_s']!r}")
        check(rows["smoke-a"]["sched_denials"] == 3.0,
              f"sched_denials {rows['smoke-a']['sched_denials']!r}")
        check(rows["smoke-a"]["sched_ceiling"] == 1.25,
              f"sched_ceiling {rows['smoke-a']['sched_ceiling']!r}")
        check(rows["smoke-b"]["sched_harvested_s"] is None,
              "non-scheduler client grew scheduler columns")
        check(len(fleet["events"]) == 2, "expected one feed event per client")
        print(f"ok GET /fleet   schema valid, {len(fleet['clients'])} rows")

        status, headers, body = fetch(base + "/history")
        check(status == 200, f"GET /history -> {status}")
        history = json.loads(body)
        check(set(history["clients"]) == {"smoke-a", "smoke-b"},
              f"history clients {sorted(history['clients'])}")
        for client_id, series in history["clients"].items():
            check(len(series["runs"]) == 1,
                  f"{client_id}: expected 1 history point")
        print(f"ok GET /history capacity {history['capacity']}")

        code, out = run_cli("top", "--port", str(port), "--iterations", "1",
                            "--interval", "0", "--no-clear")
        check(code == 0, f"uucs top exited {code}")
        fleet_rows = table_rows(out, "Fleet")
        check(sorted(fleet_rows) == ["smoke-a", "smoke-b"],
              f"top's Fleet table lists {fleet_rows}")
        code, out = run_cli("clients", "--port", str(port))
        check(code == 0, f"uucs clients exited {code}")
        check("smoke-a" in out and "smoke-b" in out,
              f"uucs clients missed a client:\n{out}")
        status, _, body = fetch(base + "/clients")
        check(status == 200, f"GET /clients -> {status}")
        rows = json.loads(body)
        check(sorted(row["client_id"] for row in rows) == ["smoke-a", "smoke-b"],
              f"/clients rows {rows}")
        check(all(row["last_seen"] > 0 for row in rows),
              f"/clients row never stamped: {rows}")
        print("ok uucs top    Fleet table lists every pushed client")
        print(f"ok uucs clients {len(rows)} rows, every one stamped")

        with socket.create_connection((host, port), timeout=10) as stream:
            stream.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                buffer += stream.recv(65536)
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            check(b"text/event-stream" in head, "stream content-type wrong")
            hello, buffer = read_sse_frame(stream, buffer, "hello")
            check(len(hello["data"]["clients"]) == 2, "hello missed a client")
            # A third push must arrive as a live SSE frame, no polling.
            push_snapshot(host, port, "smoke-a",
                          synthetic_registry(25, [0.5, 0.9, 1.2], 0.35).snapshot())
            push, buffer = read_sse_frame(stream, buffer, "push")
            check(push["data"]["client_id"] == "smoke-a", "push wrong client")
            check(push["data"]["row"]["runs"] == 25.0, "push row stale")
            check(int(push["id"]) == push["data"]["version"],
                  "SSE id and payload version diverged")
            # A scheduler push grows no discomfort histogram, but must
            # still carry a full row so the sched columns update live.
            push_snapshot(host, port, "smoke-a",
                          synthetic_registry(25, [0.5, 0.9, 1.2], 0.35,
                                             sched=(500.0, 4, 1.5)).snapshot())
            sched_push, _ = read_sse_frame(stream, buffer, "push")
            check(sched_push["data"]["client_id"] == "smoke-a",
                  "scheduler push wrong client")
            row = sched_push["data"].get("row")
            check(row is not None, "scheduler push sent a light delta")
            check(row["sched_harvested_s"] == 500.0,
                  f"scheduler row stale: {row.get('sched_harvested_s')!r}")
        print("ok GET /stream  hello + live push + scheduler row frames")

    print("dashboard smoke OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"dashboard smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
