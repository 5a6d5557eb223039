"""Wall-clock scaling of the study engines: shards and session engines.

Times the canonical seed-2004 controlled study at several shard counts,
verifies every run produced byte-identical records, and writes the
measurements to ``BENCH_study.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_study_shards.py
    PYTHONPATH=src python benchmarks/bench_study_shards.py --shards 1 2 4 8 --repeat 3

Speedup is reported against the 1-shard (in-process) run.  The engine's
compute is embarrassingly parallel, so on an N-core host the expected
ceiling is ~N x minus pool startup and result-pickling IPC; a 1-core
host will show a slowdown for every shard count > 1, which the JSON
records honestly (see ``host.cpus``).

The report also carries **engine cells** (``--engines``): each session
engine timed on the canonical 33-user study, plus a fleet-scale cell
(``--scale-users``, default 20000) for engines with a batched user-range
path, where per-cell template caches amortize.  Engines are measured *as
shipped* — the batch engine pauses the cyclic GC internally as part of
its design; the harness adds no GC games of its own.  Each batch cell's
``speedup_vs_analytic`` divides its runs/s by the analytic cell's;
the analytic engine's per-run cost is pure Python and scale-independent
(its 33-user and 2000-user throughputs agree within noise), so the
canonical cell is a fair denominator for the fleet-scale cells too.
Every 33-user engine cell must reproduce the analytic cell's digest
byte-for-byte (``byte_identical_to_analytic``), which on the canonical
config is also the golden pin.  Those cells also report
``pickle_bytes_per_record``: the size of the study's records pickled
as one shard's result batch, the bytes a shard worker sends back to
the coordinating process, divided by the record count.  It is an exact, deterministic count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

if __package__ in (None, ""):  # standalone: make `repro` importable
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro._version import __version__
from repro.study import (
    ControlledStudyConfig,
    run_controlled_study,
    run_sharded_study,
)
from repro.telemetry import Telemetry, use_telemetry


def _digest(result) -> str:
    h = hashlib.sha256()
    for run in result.runs:
        h.update((run.to_json() + "\n").encode())
    return h.hexdigest()


def bench(
    config: ControlledStudyConfig,
    shard_counts,
    repeat: int,
    telemetry_prefix: str | None = None,
) -> dict:
    entries = []
    baseline_s = None
    baseline_digest = None
    for shards in shard_counts:
        times = []
        digest = None
        runs = 0
        for _ in range(repeat):
            # With --telemetry, each timed run also records distributed
            # traces (driver span + per-shard worker spans), so a CI
            # failure can ship the spans that explain the numbers.  The
            # digest check below proves the instrumentation didn't
            # perturb the seeded study.
            if telemetry_prefix:
                stem = f"{telemetry_prefix}.shards{shards}"
                hub = Telemetry.to_path(f"{stem}.jsonl")
                with use_telemetry(hub):
                    started = time.perf_counter()
                    result = run_sharded_study(
                        config,
                        shards=shards,
                        worker_telemetry=stem if shards > 1 else None,
                    )
                    times.append(time.perf_counter() - started)
            else:
                started = time.perf_counter()
                result = run_sharded_study(config, shards=shards)
                times.append(time.perf_counter() - started)
            digest = _digest(result)
            runs = len(result.runs)
        best = min(times)
        if shards == 1:
            baseline_s, baseline_digest = best, digest
        entries.append(
            {
                "shards": shards,
                "wall_seconds_best": round(best, 4),
                "wall_seconds_all": [round(t, 4) for t in times],
                "runs": runs,
                "runs_per_second": round(runs / best, 1),
                "sha256": digest,
            }
        )
    for entry in entries:
        entry["speedup_vs_1_shard"] = (
            round(baseline_s / entry["wall_seconds_best"], 2)
            if baseline_s
            else None
        )
        entry["byte_identical_to_1_shard"] = entry["sha256"] == baseline_digest
    return {
        "benchmark": "sharded controlled study (repro.study.sharded)",
        "config": {
            "n_users": config.n_users,
            "seed": config.seed,
            "engine": config.engine,
        },
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "version": __version__,
        "repeat": repeat,
        "results": entries,
    }


def bench_engines(
    users: int,
    seed: int,
    engines,
    scale_users: int,
    repeat: int,
) -> list[dict]:
    """Engine-comparison cells: every engine at the canonical user count,
    batched-range engines additionally at fleet scale."""
    cells = []
    analytic_rps = None
    analytic_digest = None

    def one_cell(engine: str, n_users: int) -> dict:
        config = ControlledStudyConfig(
            n_users=n_users, seed=seed, engine=engine
        )
        times = []
        digest = None
        runs = 0
        pickled = None
        for rep in range(repeat):
            started = time.perf_counter()
            result = run_controlled_study(config)
            times.append(time.perf_counter() - started)
            runs = len(result.runs)
            if rep == repeat - 1:
                # Digest once, after the timed reps: the digest is a
                # property of the (deterministic) output, not of the
                # engine's speed, and serializing millions of records
                # per rep would dwarf the thing being measured.
                digest = _digest(result)
                if n_users == users:
                    # What a shard worker's pipe carries for this batch.
                    pickled = len(ForkingPickler.dumps(list(result.runs)))
            del result
        best = min(times)
        cell = {
            "engine": engine,
            "users": n_users,
            "wall_seconds_best": round(best, 4),
            "wall_seconds_all": [round(t, 4) for t in times],
            "runs": runs,
            "runs_per_second": round(runs / best, 1),
            "sha256": digest,
        }
        if pickled is not None:
            cell["pickle_bytes_per_record"] = pickled / runs
        return cell

    for engine in engines:
        cell = one_cell(engine, users)
        if engine == "analytic":
            analytic_rps = cell["runs_per_second"]
            analytic_digest = cell["sha256"]
        cells.append(cell)
    for engine in engines:
        if engine == "batch" and scale_users > users:
            cells.append(one_cell(engine, scale_users))

    for cell in cells:
        if cell["users"] == users and analytic_digest is not None:
            cell["byte_identical_to_analytic"] = (
                cell["sha256"] == analytic_digest
            )
        if cell["engine"] != "analytic" and analytic_rps:
            cell["speedup_vs_analytic"] = round(
                cell["runs_per_second"] / analytic_rps, 1
            )
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=33)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--engines", nargs="+",
                        default=["analytic", "batch"],
                        help="session engines to time head-to-head at "
                             "--users (plus --scale-users for batched-"
                             "range engines); pass --engines none to "
                             "skip engine cells")
    parser.add_argument("--scale-users", type=int, default=20000,
                        help="fleet-scale population for batched-range "
                             "engine cells (default: 20000)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_study.json"),
    )
    parser.add_argument(
        "--telemetry", default="", metavar="PREFIX",
        help="also record distributed traces: driver logs to "
             "PREFIX.shardsN.jsonl, workers to PREFIX.shardsN.shardM.jsonl "
             "(assemble with `uucs trace PREFIX*`)",
    )
    args = parser.parse_args(argv)
    config = ControlledStudyConfig(n_users=args.users, seed=args.seed)
    report = bench(
        config, args.shards, args.repeat,
        telemetry_prefix=args.telemetry or None,
    )
    engines = [e for e in args.engines if e != "none"]
    if engines:
        report["results"].extend(
            bench_engines(
                args.users, args.seed, engines, args.scale_users,
                args.repeat,
            )
        )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for entry in report["results"]:
        if "shards" in entry:
            print(
                f"shards={entry['shards']}: "
                f"{entry['wall_seconds_best']:.3f}s "
                f"({entry['speedup_vs_1_shard']}x, "
                f"identical={entry['byte_identical_to_1_shard']})"
            )
        else:
            extras = []
            if "pickle_bytes_per_record" in entry:
                extras.append(
                    f"{entry['pickle_bytes_per_record']:,.0f} pickled B/run"
                )
            if "speedup_vs_analytic" in entry:
                extras.append(f"{entry['speedup_vs_analytic']}x analytic")
            if "byte_identical_to_analytic" in entry:
                extras.append(
                    f"identical={entry['byte_identical_to_analytic']}"
                )
            print(
                f"engine={entry['engine']} users={entry['users']}: "
                f"{entry['wall_seconds_best']:.3f}s "
                f"({entry['runs_per_second']:,} runs/s"
                + (", " + ", ".join(extras) if extras else "")
                + ")"
            )
    print(f"wrote {args.out}")
    diverged = [
        e for e in report["results"]
        if not e.get("byte_identical_to_1_shard", True)
        or not e.get("byte_identical_to_analytic", True)
    ]
    if diverged:
        print("FAIL: outputs diverged across shards or engines",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
