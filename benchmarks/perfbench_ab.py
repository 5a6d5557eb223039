"""Alternating A/B runs of the repository benchmark between two revisions.

::

    python benchmarks/perfbench_ab.py --base 9d643d7 --workload study --pairs 10
    make perfbench-ab BASE=9d643d7 [HEAD=<rev>] WORKLOAD=study PAIRS=10 [SEED=1]

Each revision is exported with ``git archive`` into its own fresh
temporary directory, so neither side starts with bytecode left by an
earlier build: with ``PYTHONDONTWRITEBYTECODE`` set, a tree that still
holds ``__pycache__`` reads ~0.07 s less ``setup_s`` than a fresh
checkout, which is how the benchmark itself is run.  ``--head``
defaults to the working tree as ``git stash create`` records it:
tracked files as they are now, and new files once staged.

Pair ``i`` runs ``perfbench/run.py`` on both trees with seed
``--seed + i``, at the benchmark's own ``--seconds``
(``run_seconds`` in BENCHMARK.json), the base first in even pairs and
the head first in odd ones.  Every run's end-to-end metrics are
printed as it ends; then, for each metric BENCHMARK.json lists, each
side's median and quartiles, how many pairs the head won (a tie counts
for neither side), and the gap between the medians beside the base's
interquartile range.  Exits 1 if any run fails, reports
``"correct": false`` or has failed operations.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into the empty directory ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def parse_run(returncode: int, stdout: str) -> tuple[dict, str | None]:
    """A benchmark run's ``{metric: value}`` and why it failed, or None."""
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        return {}, f"exit status {returncode}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {}, f"last line is not JSON: {lines[-1][:200]}"
    metrics = {
        name: metric["value"]
        for name, metric in result.get("metrics", {}).items()
    }
    if result.get("correct") is not True or result.get("failed") != 0:
        return metrics, (
            f"correct={result.get('correct')} failed={result.get('failed')}"
        )
    return metrics, None


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    metrics, error = parse_run(proc.returncode, proc.stdout)
    if error is not None:
        error += "\n" + "\n".join(proc.stderr.strip().splitlines()[-20:])
    return metrics, error


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(rows: list[dict], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric, each side's quartiles and the head's wins.

    ``rows`` hold one run each: ``{"pair", "side", "metrics"}``.  Only
    pairs where both sides reported the metric count.  The head wins a
    pair when its value is better in the metric's direction; a tie
    counts for neither side.
    """
    pairs: dict[int, dict[str, dict]] = {}
    for row in rows:
        pairs.setdefault(row["pair"], {})[row["side"]] = row["metrics"]
    out = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [
            (sides["base"][name], sides["head"][name])
            for _, sides in sorted(pairs.items())
            if all(name in sides.get(side, {}) for side in SIDES)
        ]
        if not both:
            continue
        base = [b for b, _ in both]
        head = [h for _, h in both]
        wins = sum((h < b) if lower else (h > b) for b, h in both)
        losses = sum((h > b) if lower else (h < b) for b, h in both)
        b1, bm, b3 = quartiles(base)
        h1, hm, h3 = quartiles(head)
        out.append({
            "name": name, "pairs": len(both), "head_wins": wins,
            "base_wins": losses, "base": (b1, bm, b3), "head": (h1, hm, h3),
            "gap": hm - bm, "base_iqr": b3 - b1,
        })
    return out


def format_summary(summary: list[dict]) -> list[str]:
    lines = []
    for s in summary:
        b1, bm, b3 = s["base"]
        h1, hm, h3 = s["head"]
        lines.append(
            f"{s['name']}: base {bm:.4g} [{b1:.4g}, {b3:.4g}]  "
            f"head {hm:.4g} [{h1:.4g}, {h3:.4g}]  "
            f"head wins {s['head_wins']}/{s['pairs']} "
            f"(base {s['base_wins']})  gap {s['gap']:+.4g} "
            f"vs base IQR {s['base_iqr']:.4g}"
        )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--head", default=None,
                        help="revision to measure (default: the working tree)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    head = args.head or git("stash", "create") or "HEAD"
    revs = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
            "head": git("rev-parse", "--verify", head + "^{commit}")}
    print(f"base {revs['base'][:12]} ({args.base}), head {revs['head'][:12]} "
          f"({args.head or 'working tree'}); {args.workload}, "
          f"{args.pairs} pairs, {seconds:g} s runs", flush=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    rows, failures = [], 0
    try:
        trees = {}
        for side in SIDES:
            trees[side] = work / side
            trees[side].mkdir()
            export(revs[side], trees[side])
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                metrics, error = run_once(
                    trees[side], args.workload, seed, seconds
                )
                shown = " ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items()))
                print(f"pair {pair} seed {seed} {side}: {shown}", flush=True)
                if error is not None:
                    failures += 1
                    print(f"  FAILED: {error}", flush=True)
                    metrics = {}
                rows.append({"pair": pair, "side": side, "metrics": metrics})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in format_summary(summarize(rows, spec["end_to_end"])):
        print(line)
    if failures:
        print(f"{failures} run(s) failed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
