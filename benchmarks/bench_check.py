"""Perf-regression gate over the committed benchmark reports.

Compares a freshly generated ``BENCH_study.json`` or ``BENCH_server.json``
against the committed baseline and fails (exit 1) when any matched cell
regressed beyond the tolerance::

    PYTHONPATH=src python benchmarks/bench_check.py BENCH_study.json fresh-study.json
    PYTHONPATH=src python benchmarks/bench_check.py BENCH_server.json fresh-server.json --tolerance 0.5

What counts as a regression, per cell matched by its identity key
(``shards`` for the study report; ``backend x clients`` for the server
report; ``mode`` for the dashboard report; ``policy x budget`` — plus
``shards`` for identity cells — for the scheduler report):

* a throughput metric (``runs_per_second``, ``requests_per_second``,
  ``pushes_per_second``) dropping more than ``tolerance`` below
  baseline;
* a latency metric (``p50_ms``, ``p99_ms``) rising more than
  ``tolerance`` above baseline — unless the current value is still
  under the absolute floor (``--latency-floor-ms``, default 1 ms),
  where scheduler noise swamps any real signal;
* a baseline cell missing from the current report;
* a dashboard cell's ``overhead_pct`` exceeding the current report's
  own ``max_overhead_pct`` — an absolute contract (the dashboard must
  stay effectively free for the fleet it observes), enforced on the
  current report regardless of baseline numbers;
* the study report's ``sha256`` digests disagreeing between runs or
  against the 1-shard baseline — that is a *correctness* break
  (byte-identical sharding is the engine's contract), and no tolerance
  applies;
* an engine cell whose ``byte_identical_to_analytic`` is false — the
  same correctness contract, across session engines instead of shards;
* a scheduler report where, at any matched budget, the ``cdf`` policy
  fails to harvest strictly more resource-hours than ``static`` at an
  equal-or-lower discomfort rate — the paper's §5 claim, enforced as an
  absolute contract on the current report (same fleet, same host, no
  tolerance);
* a scheduler report where, at any matched budget, the ``cdf`` cell's
  ``decisions_per_second`` is under :data:`MIN_CDF_VS_STATIC_THROUGHPUT`
  (0.5) times the ``static`` cell's — an absolute contract on the
  current report, host-independent because both policies run the same
  fleet on the same host, so the cdf policy's per-decision bookkeeping
  cannot grow back to dominate the fleet's cost;
* the study report's best batch-engine ``speedup_vs_analytic`` falling
  under ``--min-batch-speedup`` (default 10x) — an absolute contract on
  the current report, so the batch engine's win cannot silently rot
  even when both engines slow down together;
* an engine cell's ``pickle_bytes_per_record`` (the shard-IPC size of
  its records) growing at all, or going missing, against the baseline
  cell — it is an exact count, not a timing, so no tolerance applies.

Cells present only in the current report are noted, never failed: the
gate guards against losing ground on what was measured before, not
against measuring more.  CI hosts differ from the hosts that produced
the committed baselines, which is why the default tolerance is a wide
30% — the gate exists to catch "this change halved throughput", not
±5% jitter.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["MIN_CDF_VS_STATIC_THROUGHPUT", "compare_reports", "load_report"]

#: Least ``decisions_per_second`` a scheduler report's ``cdf`` cell may
#: have, as a fraction of the same report's ``static`` cell.
MIN_CDF_VS_STATIC_THROUGHPUT = 0.5

#: Per-cell metrics: name -> direction ("up" = bigger is better).
_THROUGHPUT = {
    "runs_per_second": "up",
    "requests_per_second": "up",
    "pushes_per_second": "up",
    "decisions_per_second": "up",
}
_LATENCY = {"p50_ms": "down", "p99_ms": "down"}


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict) or "results" not in report:
        raise ValueError(f"{path}: not a benchmark report (no 'results')")
    return report


def _cell_key(report: dict, cell: dict) -> str:
    """The cell's identity within its report family."""
    if "policy" in cell:  # scheduler report: Pareto or shard-identity cell
        key = f"policy={cell['policy']} budget={cell.get('budget', '?')}"
        if "shards" in cell:
            key += f" shards={cell['shards']}"
        return key
    if "engine" in cell:  # study report: session-engine comparison cell
        return f"engine={cell['engine']} users={cell['users']}"
    if "shards" in cell:
        return f"shards={cell['shards']}"
    if "mode" in cell:  # dashboard report: one cell per exporter mode
        return f"mode={cell['mode']}"
    return f"{cell.get('backend', '?')} x {cell.get('clients', '?')} clients"


def compare_reports(
    baseline: dict,
    current: dict,
    tolerance: float = 0.30,
    latency_floor_ms: float = 1.0,
    min_batch_speedup: float = 10.0,
) -> tuple[list[str], list[str]]:
    """Compare two benchmark reports cell by cell.

    Returns ``(regressions, notes)``: the gate fails iff ``regressions``
    is non-empty, while ``notes`` records benign observations (new
    cells, improvements) for the log.
    """
    regressions: list[str] = []
    notes: list[str] = []
    if baseline.get("benchmark") != current.get("benchmark"):
        regressions.append(
            f"report mismatch: baseline is {baseline.get('benchmark')!r}, "
            f"current is {current.get('benchmark')!r}"
        )
        return regressions, notes

    base_cells = {_cell_key(baseline, c): c for c in baseline["results"]}
    curr_cells = {_cell_key(current, c): c for c in current["results"]}

    for key in curr_cells:
        if key not in base_cells:
            notes.append(f"{key}: new cell (no baseline); skipped")

    # Byte-identical sharding is a correctness contract: any digest in
    # either report diverging from that report's own 1-shard digest, or
    # the two reports' digests diverging from each other, is a failure.
    # The same contract binds session engines to the analytic digest.
    for label, report in (("baseline", baseline), ("current", current)):
        for cell in report["results"]:
            if "byte_identical_to_1_shard" in cell and not cell[
                "byte_identical_to_1_shard"
            ]:
                regressions.append(
                    f"{label} {_cell_key(report, cell)}: shard output "
                    "diverged from the 1-shard run (sha256 mismatch)"
                )
            if "byte_identical_to_analytic" in cell and not cell[
                "byte_identical_to_analytic"
            ]:
                regressions.append(
                    f"{label} {_cell_key(report, cell)}: engine output "
                    "diverged from the analytic engine (sha256 mismatch)"
                )

    # The dashboard report carries its own absolute contract: no mode
    # may cost more than the report's ``max_overhead_pct`` against the
    # same run's web-off baseline.  That limit is not host-relative, so
    # it is enforced on the current report directly, independent of the
    # committed baseline's numbers.
    limit = current.get("max_overhead_pct")
    if isinstance(limit, (int, float)):
        for cell in current["results"]:
            overhead = cell.get("overhead_pct")
            if isinstance(overhead, (int, float)) and overhead > limit:
                regressions.append(
                    f"{_cell_key(current, cell)}: overhead "
                    f"{overhead:.1f}% exceeds the report's "
                    f"{limit:g}% limit"
                )

    # The scheduler report carries the paper's §5 claim as an absolute
    # contract on the current report: at every matched budget, the
    # comfort-measuring ``cdf`` policy must harvest strictly more than
    # the fixed-ceiling ``static`` strawman at an equal-or-lower
    # discomfort-event rate, and decide at least
    # MIN_CDF_VS_STATIC_THROUGHPUT as fast.  Both cells run the same
    # seeded fleet on the same host, so the comparison is
    # host-independent and gets no tolerance.
    pareto: dict[object, dict[str, dict]] = {}
    for cell in current["results"]:
        if "harvested_resource_hours" in cell and "shards" not in cell:
            pareto.setdefault(cell.get("budget"), {})[cell["policy"]] = cell
    for budget, by_policy in sorted(
        pareto.items(), key=lambda item: str(item[0])
    ):
        cdf, static = by_policy.get("cdf"), by_policy.get("static")
        if cdf is None or static is None:
            continue
        if cdf["harvested_resource_hours"] <= static["harvested_resource_hours"]:
            regressions.append(
                f"budget={budget}: cdf harvested "
                f"{cdf['harvested_resource_hours']:.1f} resource-hours, not "
                f"strictly more than static's "
                f"{static['harvested_resource_hours']:.1f}"
            )
        if cdf["discomfort_rate"] > static["discomfort_rate"]:
            regressions.append(
                f"budget={budget}: cdf discomfort rate "
                f"{cdf['discomfort_rate']:.4f} exceeds static's "
                f"{static['discomfort_rate']:.4f}"
            )
        cdf_rate = cdf.get("decisions_per_second")
        static_rate = static.get("decisions_per_second")
        if (
            cdf_rate is not None
            and static_rate is not None
            and cdf_rate < MIN_CDF_VS_STATIC_THROUGHPUT * static_rate
        ):
            regressions.append(
                f"budget={budget}: cdf decisions_per_second {cdf_rate:.1f} "
                f"is {cdf_rate / static_rate:.2f}x static's "
                f"{static_rate:.1f}, under the required "
                f"{MIN_CDF_VS_STATIC_THROUGHPUT:g}x"
            )
        if (
            cdf["harvested_resource_hours"] > static["harvested_resource_hours"]
            and cdf["discomfort_rate"] <= static["discomfort_rate"]
        ):
            gain = (
                cdf["harvested_resource_hours"]
                / static["harvested_resource_hours"]
                - 1.0
            )
            notes.append(
                f"budget={budget}: cdf Pareto-dominates static "
                f"(+{100 * gain:.1f}% harvest at "
                f"{cdf['discomfort_rate']:.4f} vs "
                f"{static['discomfort_rate']:.4f} discomfort rate)"
            )

    # The batch engine's reason to exist is its speedup; gate the best
    # batched-engine cell of the *current* report against an absolute
    # floor (host-independent: both engines run on the same host, so
    # the ratio survives hardware changes that absolute runs/s do not).
    batch_speedups = [
        cell["speedup_vs_analytic"]
        for cell in current["results"]
        if "speedup_vs_analytic" in cell
    ]
    if batch_speedups and min_batch_speedup > 0:
        best_speedup = max(batch_speedups)
        if best_speedup < min_batch_speedup:
            regressions.append(
                f"batch-engine speedup {best_speedup:.1f}x is under the "
                f"required {min_batch_speedup:g}x vs the analytic engine"
            )
        else:
            notes.append(
                f"batch-engine speedup: {best_speedup:.1f}x vs analytic "
                f"(floor {min_batch_speedup:g}x)"
            )

    for key, base in base_cells.items():
        curr = curr_cells.get(key)
        if curr is None:
            regressions.append(f"{key}: cell missing from current report")
            continue
        if "pickle_bytes_per_record" in base:
            size = curr.get("pickle_bytes_per_record")
            if size is None:
                regressions.append(
                    f"{key}: pickle_bytes_per_record missing from current "
                    "report"
                )
            elif size > base["pickle_bytes_per_record"]:
                regressions.append(
                    f"{key}: pickle_bytes_per_record grew "
                    f"{base['pickle_bytes_per_record']:.1f} -> {size:.1f} "
                    "(an exact count; no tolerance)"
                )
        if "sha256" in base and "sha256" in curr and base["sha256"] != curr["sha256"]:
            regressions.append(
                f"{key}: output sha256 changed "
                f"({base['sha256'][:12]}... -> {curr['sha256'][:12]}...)"
            )
        for metric in _THROUGHPUT:
            if metric not in base or metric not in curr:
                continue
            floor = base[metric] * (1.0 - tolerance)
            if curr[metric] < floor:
                regressions.append(
                    f"{key}: {metric} {curr[metric]:.1f} is "
                    f"{100 * (1 - curr[metric] / base[metric]):.1f}% below "
                    f"baseline {base[metric]:.1f} (tolerance {tolerance:.0%})"
                )
            elif curr[metric] > base[metric]:
                notes.append(
                    f"{key}: {metric} improved "
                    f"{base[metric]:.1f} -> {curr[metric]:.1f}"
                )
        for metric in _LATENCY:
            if metric not in base or metric not in curr:
                continue
            if curr[metric] <= latency_floor_ms:
                continue
            ceiling = base[metric] * (1.0 + tolerance)
            if curr[metric] > ceiling:
                regressions.append(
                    f"{key}: {metric} {curr[metric]:.3f}ms is "
                    f"{100 * (curr[metric] / base[metric] - 1):.1f}% above "
                    f"baseline {base[metric]:.3f}ms (tolerance {tolerance:.0%})"
                )
    return regressions, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark JSON")
    parser.add_argument("current", help="freshly generated benchmark JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--latency-floor-ms", type=float, default=1.0,
                        help="latencies at or under this are never failed "
                             "(sub-floor values are scheduler noise)")
    parser.add_argument("--min-batch-speedup", type=float, default=10.0,
                        help="required batch-vs-analytic speedup in the "
                             "current study report (0 disables)")
    args = parser.parse_args(argv)
    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    regressions, notes = compare_reports(
        baseline, current,
        tolerance=args.tolerance,
        latency_floor_ms=args.latency_floor_ms,
        min_batch_speedup=args.min_batch_speedup,
    )
    for note in notes:
        print(f"note: {note}")
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        print(
            f"{len(regressions)} regression(s) vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {len(current['results'])} cell(s) within "
        f"{args.tolerance:.0%} of {args.baseline}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
