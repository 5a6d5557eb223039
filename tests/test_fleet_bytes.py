"""Byte pins on everything the push gateway serves from pushed snapshots.

One fixed push sequence under a scripted exporter clock: study clients
whose registries look like ``benchmarks/bench_dashboard.py``'s, one
harvesting-scheduler registry (``uucs_sched_*``) and one study-progress
registry (``uucs_study_*``).  The test pins, by sha256, the ``/fleet``,
``/history``, ``/snapshot`` and ``/metrics`` bodies, every SSE frame a
``/stream`` reader receives, and the ``uucs top`` frames drawn from the
same endpoint.  Any change to how a snapshot is read, folded or rendered
that moves a byte of these shows up here.

Label values include both ``word`` and ``word processor``: sorted as
label tuples they come out in one order, sorted as the comma-joined
series keys a snapshot carries, in the other.
"""

from __future__ import annotations

import hashlib
import json
import socket

from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.telemetry.aggregate import ClientRollup, push_snapshot
from repro.telemetry.dashboard import TopDashboard
from repro.telemetry.exporter import MetricsExporter
from repro.telemetry.metrics import MetricsRegistry

TASKS = ("word", "word processor")


class ScriptedClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def client_snapshots(worker: int, count: int) -> list[dict]:
    """A study client's push sequence: counters grow, the CDF gains mass."""
    registry = MetricsRegistry()
    runs = registry.counter(
        "uucs_client_runs_total", "runs", labelnames=("outcome",)
    )
    syncs = registry.counter("uucs_client_syncs_total", "syncs")
    uploaded = registry.counter("uucs_client_uploaded_total", "bytes up")
    budget = registry.counter("uucs_throttle_budget_spent_total", "budget")
    borrow = registry.gauge("uucs_throttle_ceiling", "borrow")
    calibration = registry.gauge(
        "uucs_calibration_iterations_per_ms", "calibration"
    )
    duration = registry.histogram(
        "uucs_session_duration_seconds",
        "session seconds",
        labelnames=("task",),
        buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 30.0),
    )
    discomfort = registry.histogram(
        "uucs_discomfort_level",
        "levels",
        labelnames=("task", "resource"),
        buckets=DISCOMFORT_LEVEL_BUCKETS,
    )
    calibration.set(412.0 + worker)
    snapshots = []
    for i in range(count):
        runs.inc(outcome="exhausted" if (i + worker) % 3 else "discomfort")
        syncs.inc()
        uploaded.inc(1024 + 16 * (i % 32))
        budget.inc(0.05)
        borrow.set(0.1 + 0.05 * ((i + worker) % 8))
        duration.observe(0.4 + 0.7 * (i % 12), task=TASKS[i % 2])
        if (i + worker) % 2 == 0:
            discomfort.observe(
                0.13 + 0.37 * ((i + worker) % 7),
                task=TASKS[(i // 2) % 2],
                resource="cpu" if i % 3 else "memory",
            )
        snapshots.append(registry.snapshot())
    return snapshots


def scheduler_snapshots(count: int) -> list[dict]:
    """A ``uucs harvest --push-gateway`` driver: only ``uucs_sched_*``."""
    registry = MetricsRegistry()
    harvested = registry.counter(
        "uucs_sched_harvested_resource_seconds_total",
        "harvested",
        unit="seconds",
        labelnames=("task", "resource"),
    )
    denials = registry.counter(
        "uucs_sched_admission_denials_total",
        "denials",
        labelnames=("task", "resource"),
    )
    ceiling = registry.gauge(
        "uucs_sched_ceiling",
        "ceiling",
        unit="level",
        labelnames=("task", "resource"),
    )
    snapshots = []
    for i in range(count):
        for j, task in enumerate(TASKS):
            for resource in ("cpu", "disk"):
                harvested.inc(0.1 * (i + 1) + 0.01 * j, task=task,
                              resource=resource)
                if (i + j) % 2:
                    denials.inc(task=task, resource=resource)
                ceiling.set(round(0.3 + 0.07 * i + 0.11 * j, 4), task=task,
                            resource=resource)
        snapshots.append(registry.snapshot())
    return snapshots


def study_snapshots(count: int) -> list[dict]:
    """A ``uucs study --push-gateway`` driver's progress gauges."""
    registry = MetricsRegistry()
    shard_ratio = registry.gauge(
        "uucs_study_shard_progress_ratio", "per shard", unit="ratio",
        labelnames=("shard",),
    )
    shard_runs = registry.counter(
        "uucs_study_shard_runs_total", "runs per shard", labelnames=("shard",)
    )
    retries = registry.counter(
        "uucs_study_shard_retries_total", "retries",
        labelnames=("shard", "reason"),
    )
    registry.gauge("uucs_study_users", "users").set(40)
    snapshots = []
    for i in range(count):
        done = min(12, 4 * (i + 1))
        for shard in range(12):
            shard_ratio.set(1.0 if shard < done else 0.0, shard=str(shard))
            if shard < done:
                shard_runs.inc(32 if shard == done - 1 else 0,
                               shard=str(shard))
        retries.inc(shard=str(i), reason="killed")
        registry.gauge("uucs_study_users_done", "done").set(done * 40 / 12)
        registry.gauge("uucs_study_progress_ratio", "p").set(done / 12)
        registry.gauge("uucs_study_runs_per_second", "r").set(120.5 + i)
        registry.gauge("uucs_study_eta_seconds", "e").set(3.25 * (12 - done))
        registry.gauge("uucs_study_shards_quarantined", "q").set(0)
        registry.gauge("uucs_study_shards_checkpointed", "c").set(done)
        snapshots.append(registry.snapshot())
    return snapshots


def push_sequence() -> list[tuple[float, str, dict]]:
    """``(seconds since the last push, client id, snapshot)`` in order."""
    clients = [client_snapshots(w, 6) for w in range(3)]
    sched = scheduler_snapshots(2)
    study = study_snapshots(3)
    steps = [(0.5, "client-old", client_snapshots(7, 1)[0])]
    gap = 400.0  # client-old is evicted (evict_after 300) from here on
    for i in range(6):
        for w in range(3):
            steps.append((gap, f"client-{w}", clients[w][i]))
            gap = 1.25 + 0.5 * w
        if i % 3 == 1:
            steps.append((0.75, "harvest-1", sched[i // 3]))
        if i % 2 == 0:
            steps.append((2.0, "study-seed9", study[i // 2]))
    return steps


#: Pushes that land before the ``/stream`` reader attaches, so its
#: ``hello`` frame already holds rows.
BEFORE_STREAM = 5


def local_registry() -> MetricsRegistry:
    """The gateway's own families, one histogram never observed."""
    registry = MetricsRegistry()
    registry.counter("uucs_server_syncs_total", "syncs").inc(5)
    requests = registry.counter(
        "uucs_server_requests_total", "requests", labelnames=("type",)
    )
    requests.inc(3, type="sync")
    requests.inc(2, type="register")
    registry.gauge("uucs_server_clients", "clients").set(3)
    latency = registry.histogram(
        "uucs_server_request_seconds", "latency", labelnames=("type",),
        buckets=(0.001, 0.01, 0.1),
    )
    for value in (0.0004, 0.002, 0.05, 0.3):
        latency.observe(value, type="sync")
    registry.histogram(
        "uucs_server_idle_seconds", "never observed", buckets=(1.0, 10.0)
    )
    return registry


def _get(address, path: str) -> bytes:
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200"), head
    return body


class _Stream:
    """A ``/stream`` reader that hands out one whole frame at a time."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
        self.buffer = b""
        while b"\r\n\r\n" not in self.buffer:
            self.buffer += self._recv()
        self.buffer = self.buffer.split(b"\r\n\r\n", 1)[1]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        assert chunk, "stream closed"
        return chunk

    def frame(self) -> bytes:
        while True:
            while b"\n\n" in self.buffer:
                frame, self.buffer = self.buffer.split(b"\n\n", 1)
                if not frame.startswith(b":"):  # keepalive comment
                    return frame + b"\n\n"
            self.buffer += self._recv()

    def close(self) -> None:
        self.sock.close()


#: The one ``/clients`` row ``uucs top`` is handed, so the frames do not
#: depend on when the gateway stamped its rollups.
TOP_CLIENTS = [ClientRollup("c0ffee00c0ffee00", registered_at=1.5, syncs=4,
                            results=9, discomforts=2, bytes_read=4096,
                            bytes_written=70000, pushes=3, last_seen=42.0)]


def test_fleet_bodies_frames_and_top_are_byte_identical():
    clock = ScriptedClock()
    top_clock = ScriptedClock(0.0)
    digests: dict[str, str] = {}
    with MetricsExporter(local_registry(), clock=clock) as exporter:
        host, port = exporter.address
        top = TopDashboard(host, port, interval=0.0,
                           fetch_clients=lambda host, port: TOP_CLIENTS,
                           clock=top_clock)

        def top_frame() -> str:  # the header names the ephemeral port
            return sha(top.render_once().replace(f"{host}:{port}", "HOST"))

        digests["top-0"] = top_frame()
        digests["snapshot-0"] = sha(_get(exporter.address, "/snapshot"))
        sequence = push_sequence()
        for step, client_id, snapshot in sequence[:BEFORE_STREAM]:
            clock.now += step
            push_snapshot(host, port, client_id, snapshot)
        stream = _Stream(exporter.address)
        try:
            frames = [stream.frame()]  # hello
            for step, client_id, snapshot in sequence[BEFORE_STREAM:]:
                clock.now += step
                push_snapshot(host, port, client_id, snapshot)
                frames.append(stream.frame())
        finally:
            stream.close()
        clock.now += 12.5  # client-old is evicted, nobody else stale yet
        for path in ("/fleet", "/history", "/snapshot", "/metrics"):
            digests[path] = sha(_get(exporter.address, path))
        fleet = json.loads(_get(exporter.address, "/fleet"))
        top_clock.now += 2.0
        digests["top-1"] = top_frame()
        clock.now += 31.0  # now everyone is stale
        top_clock.now += 3.0
        digests["top-2"] = top_frame()
        digests["fleet-stale"] = sha(_get(exporter.address, "/fleet"))
    digests["frames"] = sha(b"".join(frames))
    # The pins are only worth something if the sequence exercises what
    # they claim to: every kind of client row, eviction and events.
    rows = {row["client_id"]: row for row in fleet["clients"]}
    assert rows["client-old"]["evicted"] is True
    assert rows["harvest-1"]["sched_ceiling"] is not None
    assert fleet["study"]["shards"] and fleet["events"]
    assert len(frames) == 1 + len(sequence) - BEFORE_STREAM
    assert digests == EXPECTED


#: Recorded from the implementation that kept each push as a raw dict and
#: re-read it for every view.
EXPECTED = {
    "top-0": "ac42f6b1a20450c5cd76af0e40fbdbfb3f83c10a89d63fea5f40d56688550450",
    "snapshot-0": "687fbec0826d2b93844ee7687110bf37503c5f75f227afbff3d6fcb0b74027ab",
    "/fleet": "71cc1c6ac3960047d9cd0b966c7b73f88313904765ca83ff3f93a154764ea6ff",
    "/history": "a1e2ed98a6619542ac8097e3695bf1ffc29d0caead7c66e8f3b280cb0a1b8438",
    "/snapshot": "6ff657695df2a4d96645c64655654bf793a69be3d068073023770186e4082a16",
    "/metrics": "85cdf41fb99717915f7c2cef7f820c6ecf4fbb7c5681f73f7dbdebded5b7bae7",
    "top-1": "369b83c06f6e03c8407c31f91098f9c98ba4f28c54747c5d71407f5b2323d6e6",
    "top-2": "4132e3057da8b47b1560eeb3381dfa8d9a6dcae62dcecd8ac7aee9ec9674e9bf",
    "fleet-stale": "7f4214ec02270797c7b847d1bc95eaecbf6ede402027b10519e93b58e5273325",
    "frames": "22ac9a92a4e30c3bd2cf160685e23645ce1ecc409be4b658b738e2089b6bba19",
}
