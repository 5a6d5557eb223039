"""Smoke run of the repository benchmark (``perfbench/run.py``).

Runs every workload briefly with no instrumentation, then one traced
pass, which wraps every workload's layer entry points by name.  Fails
(exit 1) unless each run exits 0 and its last output line reports
``"correct": true`` and ``"failed": 0``, and unless every ``*_us``
layer of the traced pass is above 0::

    python benchmarks/perfbench_smoke.py

Each workload checks its own output against an independent path (store
bytes across engines, a 2-shard scoreboard, the sync server's store),
so this catches a change that breaks those checks or renames an entry
point the traced pass patches, without a full benchmark run.  A layer
reading 0 means its patched entry point is no longer called — say,
because a caller captured the function before the patch — and its
time silently lands in its caller's layer instead.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "fleet", "sync", "harvest")
SEED = 1
#: Seconds of timed ops per run.  A run needs two ops to report, and a
#: harvest op takes up to ~2 s on a slow host, so 2 s can leave one.
SECONDS = 4


def run_once(workload: str, trace: int) -> str | None:
    """One benchmark run; the reason it failed, or None."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        return f"exit status {proc.returncode}\n{tail}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not JSON: {lines[-1][:200]}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (
            f"correct={result.get('correct')} failed={result.get('failed')} "
            f"attempted={result.get('attempted')}"
        )
    idle = sorted(
        name for name, metric in result.get("metrics", {}).items()
        if name.endswith("_us") and metric["value"] == 0
    )
    if trace and idle:
        return f"layers never entered (0 us): {', '.join(idle)}"
    return None


def main() -> int:
    passes = [(w, 0) for w in WORKLOADS] + [("study", 1)]
    failures = 0
    for workload, trace in passes:
        error = run_once(workload, trace)
        status = "ok" if error is None else f"FAIL: {error}"
        print(f"{workload} --trace {trace}: {status}", flush=True)
        failures += error is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
