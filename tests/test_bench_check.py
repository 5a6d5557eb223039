"""The perf-regression gate (benchmarks/bench_check.py).

The gate's contract: matched cells may not lose more than the
tolerance on throughput, nor gain more than it on latency above the
noise floor; correctness digests get no tolerance at all; disappearing
cells fail and new cells don't.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_check",
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_check.py",
)
bench_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_check)


def study_report():
    return {
        "benchmark": "sharded controlled study (repro.study.sharded)",
        "results": [
            {"shards": 1, "runs_per_second": 1000.0, "sha256": "aa",
             "byte_identical_to_1_shard": True},
            {"shards": 4, "runs_per_second": 2000.0, "sha256": "aa",
             "byte_identical_to_1_shard": True},
        ],
    }


def server_report():
    return {
        "benchmark": "UUCS server backends (repro.net)",
        "results": [
            {"backend": "threading", "clients": 32,
             "requests_per_second": 2500.0, "p50_ms": 0.3, "p99_ms": 20.0},
            {"backend": "asyncio", "clients": 32,
             "requests_per_second": 2600.0, "p50_ms": 0.25, "p99_ms": 0.5},
        ],
    }


def scheduler_report():
    return {
        "benchmark": "harvesting scheduler fleet (repro.scheduler)",
        "results": [
            {"policy": "static", "budget": 0.1, "decisions_per_second": 90000.0,
             "harvested_resource_hours": 500.0, "discomfort_rate": 0.28,
             "sha256": "cc"},
            {"policy": "cdf", "budget": 0.1, "decisions_per_second": 80000.0,
             "harvested_resource_hours": 650.0, "discomfort_rate": 0.10,
             "sha256": "dd"},
            {"policy": "cdf", "budget": 0.1, "shards": 2, "sha256": "dd",
             "byte_identical_to_1_shard": True},
        ],
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        regressions, _ = bench_check.compare_reports(
            study_report(), study_report()
        )
        assert regressions == []

    def test_small_wobble_within_tolerance_passes(self):
        current = study_report()
        current["results"][1]["runs_per_second"] = 1500.0  # -25%
        regressions, _ = bench_check.compare_reports(
            study_report(), current, tolerance=0.30
        )
        assert regressions == []

    def test_throughput_drop_beyond_tolerance_fails(self):
        current = study_report()
        current["results"][1]["runs_per_second"] = 1300.0  # -35%
        regressions, _ = bench_check.compare_reports(
            study_report(), current, tolerance=0.30
        )
        (regression,) = regressions
        assert "shards=4" in regression
        assert "runs_per_second" in regression
        assert "35.0% below" in regression

    def test_latency_rise_above_floor_fails(self):
        current = server_report()
        current["results"][0]["p99_ms"] = 40.0  # +100% on a 20ms baseline
        regressions, _ = bench_check.compare_reports(
            server_report(), current
        )
        (regression,) = regressions
        assert "threading x 32 clients" in regression
        assert "p99_ms" in regression

    def test_sub_floor_latency_noise_is_ignored(self):
        """0.25ms -> 0.9ms is a 260% 'regression' of pure scheduler
        noise; the absolute floor keeps it out of the gate."""
        current = server_report()
        current["results"][1]["p50_ms"] = 0.9
        current["results"][1]["p99_ms"] = 0.99
        regressions, _ = bench_check.compare_reports(
            server_report(), current, latency_floor_ms=1.0
        )
        assert regressions == []

    def test_missing_cell_fails(self):
        current = study_report()
        current["results"] = current["results"][:1]
        regressions, _ = bench_check.compare_reports(study_report(), current)
        assert any("shards=4" in r and "missing" in r for r in regressions)

    def test_new_cell_is_a_note_not_a_failure(self):
        current = study_report()
        current["results"].append(
            {"shards": 8, "runs_per_second": 100.0, "sha256": "aa",
             "byte_identical_to_1_shard": True}
        )
        regressions, notes = bench_check.compare_reports(
            study_report(), current
        )
        assert regressions == []
        assert any("shards=8" in n and "new cell" in n for n in notes)

    def test_improvement_is_noted(self):
        current = study_report()
        current["results"][1]["runs_per_second"] = 3000.0
        regressions, notes = bench_check.compare_reports(
            study_report(), current
        )
        assert regressions == []
        assert any("improved" in n for n in notes)

    def test_digest_change_fails_with_no_tolerance(self):
        current = study_report()
        current["results"][1]["sha256"] = "bb"
        regressions, _ = bench_check.compare_reports(
            study_report(), current, tolerance=10.0
        )
        assert any("shards=4: output sha256 changed" in r
                   for r in regressions)

    def test_shard_divergence_fails_in_either_report(self):
        bad = study_report()
        bad["results"][1]["byte_identical_to_1_shard"] = False
        for baseline, current in ((bad, study_report()), (study_report(), bad)):
            regressions, _ = bench_check.compare_reports(baseline, current)
            assert any("diverged" in r for r in regressions)

    def test_pickle_bytes_growth_fails_with_no_tolerance(self):
        base = study_report()
        base["results"].append(
            {"engine": "batch", "users": 33, "runs_per_second": 9000.0,
             "sha256": "aa", "byte_identical_to_analytic": True,
             "pickle_bytes_per_record": 990.25}
        )
        same = copy.deepcopy(base)
        assert bench_check.compare_reports(
            base, same, min_batch_speedup=0
        )[0] == []
        smaller = copy.deepcopy(base)
        smaller["results"][-1]["pickle_bytes_per_record"] = 900.0
        assert bench_check.compare_reports(
            base, smaller, min_batch_speedup=0
        )[0] == []
        grown = copy.deepcopy(base)
        grown["results"][-1]["pickle_bytes_per_record"] = 990.5
        (regression,) = bench_check.compare_reports(
            base, grown, tolerance=10.0, min_batch_speedup=0
        )[0]
        assert "engine=batch users=33" in regression
        assert "pickle_bytes_per_record grew" in regression
        dropped = copy.deepcopy(base)
        del dropped["results"][-1]["pickle_bytes_per_record"]
        (regression,) = bench_check.compare_reports(
            base, dropped, min_batch_speedup=0
        )[0]
        assert "pickle_bytes_per_record missing" in regression

    def test_scheduler_pareto_dominance_is_noted(self):
        regressions, notes = bench_check.compare_reports(
            scheduler_report(), scheduler_report()
        )
        assert regressions == []
        assert any("Pareto-dominates" in n for n in notes)

    def test_scheduler_cdf_losing_harvest_fails(self):
        current = scheduler_report()
        current["results"][1]["harvested_resource_hours"] = 500.0  # tie
        regressions, _ = bench_check.compare_reports(
            scheduler_report(), current, tolerance=10.0
        )
        assert any("not\nstrictly more" in r or "strictly more" in r
                   for r in regressions)

    def test_scheduler_cdf_higher_discomfort_fails(self):
        current = scheduler_report()
        current["results"][1]["discomfort_rate"] = 0.30
        regressions, _ = bench_check.compare_reports(
            scheduler_report(), current, tolerance=10.0
        )
        assert any("discomfort rate" in r for r in regressions)

    def test_scheduler_pareto_is_absolute_not_baseline_relative(self):
        """The contract binds the current report even when the committed
        baseline already violated it."""
        bad = scheduler_report()
        bad["results"][1]["harvested_resource_hours"] = 100.0
        regressions, _ = bench_check.compare_reports(bad, bad)
        assert any("strictly more" in r for r in regressions)

    def test_scheduler_cdf_throughput_floor_vs_static(self):
        """cdf must decide at least half as fast as static in the same
        report: 0.35x (42.6k vs 120.6k decisions/s) fails and 0.91x
        (159.3k vs 174.6k) passes, whatever the baseline says."""
        for cdf_rate, static_rate, passes in (
            (42645.5, 120612.3, False),
            (159300.0, 174600.0, True),
        ):
            report = scheduler_report()
            report["results"][0]["decisions_per_second"] = static_rate
            report["results"][1]["decisions_per_second"] = cdf_rate
            regressions, _ = bench_check.compare_reports(report, report)
            if passes:
                assert regressions == []
            else:
                (regression,) = regressions
                assert "0.35x static's" in regression
                assert "under the required 0.5x" in regression

    def test_scheduler_policy_cells_keyed_distinctly(self):
        keys = {
            bench_check._cell_key(scheduler_report(), cell)
            for cell in scheduler_report()["results"]
        }
        assert len(keys) == 3

    def test_scheduler_throughput_drop_fails(self):
        current = scheduler_report()
        current["results"][1]["decisions_per_second"] = 10000.0  # -75%
        regressions, _ = bench_check.compare_reports(
            scheduler_report(), current
        )
        assert any("decisions_per_second" in r for r in regressions)

    def test_mismatched_report_families_fail(self):
        regressions, _ = bench_check.compare_reports(
            study_report(), server_report()
        )
        assert any("report mismatch" in r for r in regressions)


class TestCli:
    def write(self, path, report):
        path.write_text(json.dumps(report))
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", study_report())
        assert bench_check.main([base, base]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", study_report())
        bad = copy.deepcopy(study_report())
        bad["results"][1]["runs_per_second"] = 100.0
        curr = self.write(tmp_path / "curr.json", bad)
        assert bench_check.main([base, curr]) == 1
        assert "REGRESSION:" in capsys.readouterr().err

    def test_unreadable_report_exit_two(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", study_report())
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert bench_check.main([base, str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tolerance_flag(self, tmp_path):
        base = self.write(tmp_path / "base.json", study_report())
        wobble = copy.deepcopy(study_report())
        wobble["results"][1]["runs_per_second"] = 1500.0  # -25%
        curr = self.write(tmp_path / "curr.json", wobble)
        assert bench_check.main([base, curr, "--tolerance", "0.2"]) == 1
        assert bench_check.main([base, curr, "--tolerance", "0.3"]) == 0


def test_committed_baselines_load():
    """The baselines the CI gate compares against must stay parseable."""
    root = Path(__file__).resolve().parent.parent
    for name in ("BENCH_study.json", "BENCH_server.json",
                 "BENCH_dashboard.json", "BENCH_scheduler.json"):
        report = bench_check.load_report(root / name)
        assert report["results"], name
