"""Push-gateway throughput with the fleet dashboard on and off.

The web dashboard must be effectively free for the fleet being
observed: the ``/push`` hot path gained per-client liveness stamps,
history ring-buffer samples, discomfort-feed deltas, and (only while a
reader is attached) SSE frame fan-out.  This benchmark measures
aggregate pushes/second through a live exporter in three modes and
fails if either dashboard mode costs more than ``--max-overhead-pct``
(default 5%) against the ``web-off`` baseline of the same run:

* ``web-off``       — ``MetricsExporter(web=False)``: the pre-dashboard
  push path (store the snapshot, bump rollups);
* ``web-on-idle``   — dashboard routes enabled, no SSE subscriber: the
  common case, since the extra work is skipped without readers;
* ``web-on-stream`` — an SSE reader attached and draining, so every
  push also builds its fleet row and broadcast frame.

A fourth cell, ``burst-256``, is the fleet arriving at once: 256
clients released together, 8 pushes each, dashboard on, no reader.  It
reports client-side ``p50_ms``/``p99_ms`` per push and ``failed``
pushes, and any failed push fails the benchmark: a gateway that resets
connections under a burst loses the fleet's metrics.

Each mode runs ``--rounds`` interleaved rounds.  Throughput cells keep
the fastest round (``failed`` counts every round's failures); overhead is judged per round against that same
round's ``web-off`` cell, keeping the minimum across rounds — a load
spike during either cell of a pair can only inflate its ratio, so the
minimum is the least noise-contaminated estimate of the true cost.
Results go to ``BENCH_dashboard.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_dashboard.py
    PYTHONPATH=src python benchmarks/bench_dashboard.py --pushes 300 --out fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

if __package__ in (None, ""):  # standalone: make `repro` importable
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro._version import __version__
from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.errors import ProtocolError
from repro.telemetry.aggregate import push_snapshot
from repro.telemetry.exporter import MetricsExporter
from repro.telemetry.metrics import MetricsRegistry

MODES = ("web-off", "web-on-idle", "web-on-stream")
BURST_MODE = "burst-256"
BURST_PUSHERS = 256
BURST_PUSHES_EACH = 8


def client_snapshots(worker: int, count: int) -> list[dict]:
    """A worker's push sequence: counters grow, the CDF gains mass.

    The registry mirrors what a real study client's process hub pushes
    — run/sync/retry/byte counters, session-duration histogram,
    calibration and borrow gauges, discomfort CDF — so the baseline
    per-push parse/store cost is representative rather than a toy
    three-family body that makes the dashboard bookkeeping look
    artificially large.  Pre-built outside the timed region so every
    mode pays identical serialization cost and the measurement isolates
    the exporter side.
    """
    registry = MetricsRegistry()
    runs = registry.counter(
        "uucs_client_runs_total", "runs", labelnames=("outcome",)
    )
    syncs = registry.counter("uucs_client_syncs_total", "syncs")
    retries = registry.counter("uucs_client_retries_total", "retries")
    reconnects = registry.counter("uucs_client_reconnects_total", "reconnects")
    uploaded = registry.counter("uucs_client_uploaded_total", "bytes up")
    downloaded = registry.counter("uucs_client_downloaded_total", "bytes down")
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
        runs.inc(outcome="exhausted" if i % 4 else "discomfort")
        syncs.inc()
        uploaded.inc(1024 + 16 * (i % 32))
        downloaded.inc(256)
        budget.inc(0.05)
        if i % 16 == 0:
            retries.inc()
        if i % 64 == 0:
            reconnects.inc()
        borrow.set(0.1 + 0.05 * (i % 8))
        duration.observe(0.4 + 0.2 * (i % 12), task="word")
        if i % 4 == 0:
            discomfort.observe(
                0.1 + 0.1 * (i % 10), task="word", resource="cpu"
            )
        snapshots.append(registry.snapshot())
    return snapshots


def _drain_stream(host: str, port: int, ready: threading.Event):
    """Attach as an SSE subscriber and discard frames until closed."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"GET /stream HTTP/1.0\r\n\r\n")
        buffer = b""
        while b"event: hello" not in buffer:
            buffer += sock.recv(65536)
        ready.set()
        sock.settimeout(10)
        try:
            while sock.recv(65536):
                pass
        except (TimeoutError, OSError):
            pass


def run_mode(mode: str, pushes: int, workers: int) -> dict:
    per_worker = pushes // workers
    sequences = [client_snapshots(w, per_worker) for w in range(workers)]
    with MetricsExporter(MetricsRegistry(), web=mode != "web-off") as exporter:
        host, port = exporter.address
        reader = None
        if mode == "web-on-stream":
            ready = threading.Event()
            reader = threading.Thread(
                target=_drain_stream, args=(host, port, ready), daemon=True
            )
            reader.start()
            if not ready.wait(timeout=10):
                raise RuntimeError("SSE reader never attached")

        def hammer(worker: int):
            for snapshot in sequences[worker]:
                push_snapshot(host, port, f"bench-{worker}", snapshot)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(hammer, range(workers)):
                pass
        wall = time.perf_counter() - started
        if mode == "web-on-stream":
            assert exporter.broker.subscribers == 1, "reader fell off mid-run"
    total = per_worker * workers
    return {
        "mode": mode,
        "pushes": total,
        "clients": workers,
        "wall_seconds": round(wall, 4),
        "pushes_per_second": round(total / wall, 1),
    }


def run_burst(pushers: int, pushes_each: int) -> dict:
    """``pushers`` clients released at once, each pushing in turn."""
    sequences = [client_snapshots(w, pushes_each) for w in range(pushers)]
    clock: dict[str, float] = {}
    gate = threading.Barrier(
        pushers, action=lambda: clock.setdefault("start", time.perf_counter())
    )
    with MetricsExporter(MetricsRegistry()) as exporter:
        host, port = exporter.address

        def pusher(worker: int) -> tuple[list[float], int]:
            latencies, failed = [], 0
            gate.wait()
            for snapshot in sequences[worker]:
                began = time.perf_counter()
                try:
                    push_snapshot(host, port, f"burst-{worker}", snapshot)
                except ProtocolError:
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - began)
            return latencies, failed

        with ThreadPoolExecutor(max_workers=pushers) as pool:
            outcomes = list(pool.map(pusher, range(pushers)))
        wall = time.perf_counter() - clock["start"]
    latencies = sorted(t for times, _ in outcomes for t in times)
    failed = sum(count for _, count in outcomes)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "mode": BURST_MODE,
        "pushes": pushers * pushes_each,
        "clients": pushers,
        "wall_seconds": round(wall, 4),
        "pushes_per_second": round(len(latencies) / wall, 1),
        "p50_ms": round(cuts[49] * 1000, 3),
        "p99_ms": round(cuts[98] * 1000, 3),
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pushes", type=int, default=600,
                        help="pushes per cell (default 600)")
    parser.add_argument("--workers", type=int, default=4,
                        help="concurrent pushing clients (default 4)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds per mode; fastest kept (default 3)")
    parser.add_argument("--max-overhead-pct", type=float, default=5.0,
                        help="fail if a dashboard mode is this much slower "
                             "than web-off (default 5%%)")
    parser.add_argument("--out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_dashboard.json"))
    args = parser.parse_args(argv)

    # A warm-up round primes import caches, thread pools, and the TCP
    # stack; rounds are interleaved across modes so machine-load drift
    # during the run biases every mode equally.  Overhead is paired
    # within each round (mode vs. that round's web-off) and the minimum
    # across rounds is kept: a scheduler hiccup during either cell of a
    # pair only ever inflates the ratio, so comparing each mode's
    # luckiest round against web-off's luckiest round would report
    # noise as overhead.
    run_mode("web-off", min(args.pushes, 200), args.workers)
    rounds: list[dict[str, dict]] = []
    bursts: list[dict] = []
    for round_no in range(args.rounds):
        cells: dict[str, dict] = {}
        for mode in MODES:
            cell = run_mode(mode, args.pushes, args.workers)
            rate = cell["pushes_per_second"]
            print(f"{mode:>14} round {round_no + 1}: {rate:>8.1f} pushes/s")
            cells[mode] = cell
        rounds.append(cells)
        burst = run_burst(BURST_PUSHERS, BURST_PUSHES_EACH)
        print(f"{BURST_MODE:>14} round {round_no + 1}: "
              f"{burst['pushes_per_second']:>8.1f} pushes/s, "
              f"p99 {burst['p99_ms']:.1f} ms, {burst['failed']} failed")
        bursts.append(burst)

    best = {
        mode: max(
            (cells[mode] for cells in rounds),
            key=lambda cell: cell["pushes_per_second"],
        )
        for mode in MODES
    }
    best_burst = dict(max(bursts, key=lambda cell: cell["pushes_per_second"]))
    best_burst["failed"] = sum(cell["failed"] for cell in bursts)
    failures = []
    if best_burst["failed"]:
        failures.append(
            f"{BURST_MODE}: {best_burst['failed']} of "
            f"{best_burst['pushes'] * len(bursts)} pushes failed"
        )
    for mode in MODES:
        overhead = min(
            (1.0 - cells[mode]["pushes_per_second"]
             / cells["web-off"]["pushes_per_second"]) * 100.0
            for cells in rounds
        )
        best[mode]["overhead_pct"] = round(max(0.0, overhead), 2)
        if mode != "web-off" and overhead > args.max_overhead_pct:
            failures.append(
                f"{mode}: {overhead:.1f}% slower than web-off "
                f"(limit {args.max_overhead_pct:g}%)"
            )

    report = {
        "benchmark": "UUCS fleet dashboard push path (repro.telemetry)",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "version": __version__,
        "pushes_per_cell": args.pushes,
        "max_overhead_pct": args.max_overhead_pct,
        "results": [best[mode] for mode in MODES] + [best_burst],
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                              encoding="utf-8")
    print(f"report -> {args.out}")
    for mode in MODES:
        cell = best[mode]
        print(f"{mode:>14}: {cell['pushes_per_second']:>8.1f} pushes/s "
              f"(+{cell['overhead_pct']:.1f}% overhead)")
    print(f"{BURST_MODE:>14}: {best_burst['pushes_per_second']:>8.1f} pushes/s "
          f"(p50 {best_burst['p50_ms']:.1f} ms, p99 {best_burst['p99_ms']:.1f} ms, "
          f"{best_burst['failed']} failed)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: dashboard overhead within {args.max_overhead_pct:g}% of web-off")
    return 0


if __name__ == "__main__":
    sys.exit(main())
