"""Throughput and tail latency of the UUCS TCP server.

Benchmarks the asyncio server (``repro.net.AsyncioServerTransport``) at
several concurrent-client counts.  Each client holds one persistent
connection, registers once, then issues sync requests back-to-back
until its share of the request budget is spent.  Per-cell results go to
``BENCH_server.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_server.py
    PYTHONPATH=src python benchmarks/bench_server.py --clients 1 32 --requests 2000

Throughput is aggregate requests/second across all clients; p99 comes
from the server's own ``uucs_server_request_seconds`` histogram (a
fresh in-memory telemetry hub per cell), so it measures server-side
handling time, not client-side queueing.  The report keeps the
``"benchmark"`` name and the per-cell ``"backend": "asyncio"`` key it had
when a threading server was measured beside it, so ``bench_check.py``
still matches new cells to older baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

if __package__ in (None, ""):  # standalone: make `repro` importable
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro._version import __version__
from repro.core.exercise import constant
from repro.core.feedback import RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun
from repro.core.testcase import Testcase
from repro.net import AsyncioServerTransport
from repro.server import PROTOCOL_VERSION, Message, UUCSServer
from repro.telemetry import Telemetry


def _sync_message(client_id: str, run_id: str, seq: int) -> Message:
    record = TestcaseRun(
        run_id=run_id,
        testcase_id="a",
        context=RunContext(user_id="u"),
        outcome=RunOutcome.EXHAUSTED,
        end_offset=10.0,
        testcase_duration=10.0,
        shapes={Resource.CPU: "constant"},
    )
    return Message(
        "sync",
        {
            "client_id": client_id,
            "have": [],
            "results": [record.to_dict()],
            "want": 0,
            "protocol": PROTOCOL_VERSION,
            "sync_seq": seq,
        },
    )


def _client_worker(listener, index: int, n_requests: int) -> int:
    with listener.connect() as transport:
        client_id = transport.request(
            Message("register", {"snapshot": {"bench": index}})
        ).expect("registered").payload["client_id"]
        for seq in range(1, n_requests + 1):
            transport.request(
                _sync_message(client_id, f"b{index:03d}-{seq:05d}", seq)
            ).expect("sync_ok")
    return n_requests


def bench_cell(tmp_root: Path, n_clients: int, total_requests: int) -> dict:
    per_client = max(1, total_requests // n_clients)
    telemetry = Telemetry()
    server = UUCSServer(tmp_root / f"clients-{n_clients}", seed=1,
                        telemetry=telemetry)
    server.add_testcases(
        [Testcase.single("a", constant(Resource.CPU, 1.0, 10.0))]
    )
    with AsyncioServerTransport(server) as listener:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            futures = [
                pool.submit(_client_worker, listener, index, per_client)
                for index in range(n_clients)
            ]
            done = sum(f.result() for f in futures)
        elapsed = time.perf_counter() - started
    histogram = telemetry.metrics.get("uucs_server_request_seconds")
    return {
        "backend": "asyncio",
        "clients": n_clients,
        "requests": done,
        "wall_seconds": round(elapsed, 4),
        "requests_per_second": round(done / elapsed, 1),
        "p50_ms": round(histogram.quantile(0.5, type="sync") * 1000, 3),
        "p99_ms": round(histogram.quantile(0.99, type="sync") * 1000, 3),
    }


def bench(tmp_root: Path, client_counts, total_requests) -> dict:
    cells = []
    for n_clients in client_counts:
        cell = bench_cell(tmp_root, n_clients, total_requests)
        cells.append(cell)
        print(
            f"{n_clients:>4} clients: "
            f"{cell['requests_per_second']:>9.1f} req/s, "
            f"p99 {cell['p99_ms']:.2f} ms"
        )
    return {
        "benchmark": "UUCS server backends (repro.net)",
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "version": __version__,
        "total_requests_per_cell": total_requests,
        "results": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, nargs="+", default=[1, 32, 256]
    )
    parser.add_argument("--requests", type=int, default=4096,
                        help="request budget per cell, split across clients")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_server.json"),
    )
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-server-") as tmp:
        report = bench(Path(tmp), args.clients, args.requests)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
