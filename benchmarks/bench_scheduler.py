"""Harvesting-scheduler policy Pareto benchmark + shard-identity check.

Two questions, one report (``BENCH_scheduler.json`` at the repo root):

1. **Does measuring comfort pay?**  Every registered policy runs the
   same seeded fleet at a matched discomfort budget; each cell records
   harvested resource-hours, the realized discomfort-event rate, and
   decision throughput.  The paper's claim (§5) — a CDF-driven policy
   harvests more at the same or lower discomfort rate than a fixed
   ceiling — becomes an absolute gate in ``bench_check.py``: ``cdf``
   must strictly beat ``static`` on harvest without exceeding its
   discomfort rate, and decide at least half as fast.  (``aimd`` is the
   third frontier point: it harvests aggressively but pays in
   discomfort; it is reported, not gated.)

2. **Is sharding still invisible?**  The ``cdf`` fleet re-runs at
   several shard counts; each cell carries the scoreboard sha256 and a
   ``byte_identical_to_1_shard`` flag, gated with zero tolerance like
   the sharded-study digests.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py
    PYTHONPATH=src python benchmarks/bench_scheduler.py --clients 100 --out fresh.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make `repro` importable
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro._version import __version__
from repro.scheduler import SCHEDULER_POLICIES, FleetConfig, run_fleet

#: Matched discomfort budget for the policy Pareto cells.  0.10 keeps
#: the per-cell decision horizon (~10-30 decisions) meaningfully wider
#: than the budget's granularity; at 0.05 a single event in a short
#: cell pins the realized rate far above budget and admission control
#: degenerates into a near-permanent deny.
BUDGET = 0.10
SHARD_COUNTS = (1, 2, 4)


def policy_cell(policy: str, args: argparse.Namespace) -> dict:
    config = FleetConfig(
        policy=policy,
        clients=args.clients,
        epochs=args.epochs,
        budget=BUDGET,
        seed=args.seed,
    )
    board = run_fleet(config)
    digest = hashlib.sha256(board.to_json().encode()).hexdigest()
    rate = board.decisions / board.elapsed_s if board.elapsed_s > 0 else 0.0
    return {
        "policy": policy,
        "budget": BUDGET,
        "clients": config.clients,
        "epochs": config.epochs,
        "seed": config.seed,
        "harvested_resource_hours": round(board.harvested_resource_hours, 3),
        "discomfort_rate": round(board.discomfort_rate, 6),
        "discomforts": board.discomforts,
        "denials": board.denials,
        "decisions": board.decisions,
        "decisions_per_second": round(rate, 1),
        "wall_seconds": round(board.elapsed_s, 4),
        "sha256": digest,
    }


def shard_cell(shards: int, args: argparse.Namespace, baseline: str | None) -> dict:
    config = FleetConfig(
        policy="cdf",
        clients=args.clients,
        epochs=args.shard_epochs,
        budget=BUDGET,
        seed=args.seed,
    )
    board = run_fleet(config, shards=shards)
    digest = hashlib.sha256(board.to_json().encode()).hexdigest()
    return {
        "policy": "cdf",
        "budget": BUDGET,
        "shards": shards,
        "clients": config.clients,
        "epochs": config.epochs,
        "seed": config.seed,
        "wall_seconds": round(board.elapsed_s, 4),
        "sha256": digest,
        "byte_identical_to_1_shard": baseline is None or digest == baseline,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=200,
                        help="fleet size per cell (default 200)")
    parser.add_argument("--epochs", type=int, default=96,
                        help="epochs for the policy Pareto cells")
    parser.add_argument("--shard-epochs", type=int, default=32,
                        help="epochs for the shard-identity cells")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_scheduler.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    results = []
    for policy in sorted(SCHEDULER_POLICIES):
        started = time.perf_counter()
        cell = policy_cell(policy, args)
        results.append(cell)
        print(
            f"policy={policy:<7} harvested {cell['harvested_resource_hours']:8.1f} rh  "
            f"rate {cell['discomfort_rate']:.4f}  "
            f"denied {cell['denials']:>5}  "
            f"{cell['decisions_per_second']:>8.0f} decisions/s  "
            f"({time.perf_counter() - started:.1f}s)"
        )

    baseline_digest = None
    for shards in SHARD_COUNTS:
        cell = shard_cell(shards, args, baseline_digest)
        if shards == 1:
            baseline_digest = cell["sha256"]
        results.append(cell)
        print(
            f"cdf shards={shards}  sha256={cell['sha256'][:12]}...  "
            f"identical={cell['byte_identical_to_1_shard']}  "
            f"({cell['wall_seconds']:.1f}s)"
        )

    report = {
        "benchmark": "harvesting scheduler fleet (repro.scheduler)",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "version": __version__,
        "budget": BUDGET,
        "results": results,
    }
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"
    )
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
