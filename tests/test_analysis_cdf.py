"""Tests for building CDFs from study runs."""

import pytest

from repro.analysis.cdf import (
    aggregate_cdf,
    observations_from_runs,
    per_cell_cdf,
    split_blank_runs,
)
from repro.core.resources import Resource
from repro.errors import InsufficientDataError


class TestSplitting:
    def test_split_blank(self, study_runs):
        non_blank, blank = split_blank_runs(study_runs)
        assert len(non_blank) + len(blank) == len(study_runs)
        assert not any(r.exercised for r in blank)
        assert all(r.exercised for r in non_blank)
        # 2 of 8 testcases per task are blank.
        assert len(blank) == len(study_runs) // 4


class TestObservations:
    def test_default_ramps_only(self, study_runs):
        obs = observations_from_runs(study_runs, resource=Resource.CPU)
        assert all(o.shape == "ramp" for o in obs)
        assert all(o.resource is Resource.CPU for o in obs)
        # One CPU ramp per (user, task): 33 users x 4 tasks.
        assert len(obs) == 33 * 4

    def test_all_shapes(self, study_runs):
        obs = observations_from_runs(
            study_runs, resource=Resource.CPU, shapes=None
        )
        assert {o.shape for o in obs} == {"ramp", "step"}
        assert len(obs) == 33 * 4 * 2

    def test_task_filter(self, study_runs):
        obs = observations_from_runs(
            study_runs, resource=Resource.DISK, task="ie"
        )
        assert all(o.task == "ie" for o in obs)
        assert len(obs) == 33

    def test_blank_runs_excluded(self, study_runs):
        obs = observations_from_runs(study_runs, shapes=None)
        assert len(obs) == 33 * 4 * 6  # 6 non-blank testcases per task

    def test_censoring_levels(self, study_runs):
        obs = observations_from_runs(study_runs, resource=Resource.CPU)
        for o in obs:
            assert o.level >= 0
            if o.censored:
                # Exhausted ramps are censored at (near) the ramp max.
                assert o.level > 0


class TestCdfBuilders:
    def test_aggregate(self, study_runs):
        cdf = aggregate_cdf(study_runs, Resource.CPU)
        assert cdf.n == 33 * 4
        assert 0 < cdf.f_d() < 1

    def test_per_cell(self, study_runs):
        cdf = per_cell_cdf(study_runs, "quake", Resource.CPU)
        assert cdf.n == 33

    def test_empty_cell_raises(self, study_runs):
        with pytest.raises(InsufficientDataError):
            per_cell_cdf(study_runs, "emacs", Resource.CPU)
        with pytest.raises(InsufficientDataError):
            aggregate_cdf(study_runs, Resource.NETWORK)
