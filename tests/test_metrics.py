"""Tests for the comfort metrics (DiscomfortCDF, f_d, c_p, c_a)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import DiscomfortCDF, DiscomfortObservation
from repro.core.resources import Resource
from repro.errors import InsufficientDataError, ValidationError


def obs(level, censored=False, task="word", shape="ramp", user="u"):
    return DiscomfortObservation(
        level=level, censored=censored, resource=Resource.CPU,
        task=task, user_id=user, shape=shape,
    )


class TestCounts:
    def test_df_ex_counts(self):
        cdf = DiscomfortCDF([obs(1.0), obs(2.0), obs(5.0, censored=True)])
        assert cdf.df_count == 2
        assert cdf.ex_count == 1
        assert cdf.n == 3
        assert cdf.f_d() == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            DiscomfortCDF([])

    def test_repr(self):
        cdf = DiscomfortCDF([obs(1.0)])
        assert "DfCount=1" in repr(cdf)


class TestEvaluate:
    def test_cdf_normalized_by_all_runs(self):
        # 2 reactions at 1.0, 2.0; 2 censored: CDF plateaus at f_d = 0.5.
        cdf = DiscomfortCDF(
            [obs(1.0), obs(2.0), obs(3.0, censored=True), obs(3.0, censored=True)]
        )
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(1.0) == 0.25
        assert cdf.evaluate(2.5) == 0.5
        assert cdf.evaluate(100.0) == 0.5

    def test_curve_plateaus_at_fd(self):
        cdf = DiscomfortCDF([obs(1.0), obs(2.0), obs(9.0, censored=True)])
        x, f = cdf.curve()
        assert f[-1] == pytest.approx(cdf.f_d())
        assert np.all(np.diff(x) >= 0)

    def test_curve_empty_when_no_reactions(self):
        cdf = DiscomfortCDF([obs(5.0, censored=True)])
        x, f = cdf.curve()
        assert x.size == 0 and f.size == 0


class TestPercentile:
    def test_c05_from_known_distribution(self):
        levels = np.linspace(0.1, 10.0, 100)
        cdf = DiscomfortCDF([obs(l) for l in levels])
        assert cdf.c_percentile(0.05) == pytest.approx(levels[4])

    def test_censoring_raises_when_unreachable(self):
        # Only 10% ever react: c_0.5 is undefined (the '*' case).
        observations = [obs(1.0)] + [obs(5.0, censored=True)] * 9
        cdf = DiscomfortCDF(observations)
        assert cdf.c_percentile(0.05) == 1.0
        with pytest.raises(InsufficientDataError):
            cdf.c_percentile(0.5)

    def test_bad_percentile(self):
        cdf = DiscomfortCDF([obs(1.0)])
        with pytest.raises(ValidationError):
            cdf.c_percentile(0.0)


class TestMean:
    def test_c_a_and_ci(self):
        cdf = DiscomfortCDF([obs(1.0), obs(2.0), obs(3.0)])
        ci = cdf.c_mean_ci()
        assert ci.mean == pytest.approx(2.0)
        assert ci.low < 2.0 < ci.high
        assert cdf.c_a() == pytest.approx(2.0)

    @pytest.mark.parametrize("confidence", [1.5, -0.2, 0.0])
    def test_bad_confidence(self, confidence):
        cdf = DiscomfortCDF([obs(1.0), obs(2.0), obs(3.0)])
        with pytest.raises(ValidationError):
            cdf.c_mean_ci(confidence)

    def test_censored_excluded_from_mean(self):
        cdf = DiscomfortCDF([obs(1.0), obs(3.0), obs(100.0, censored=True)])
        assert cdf.c_a() == pytest.approx(2.0)

    def test_star_when_no_reactions(self):
        cdf = DiscomfortCDF([obs(5.0, censored=True)])
        with pytest.raises(InsufficientDataError):
            cdf.c_mean_ci()


class TestCombination:
    def test_merged(self):
        a = DiscomfortCDF([obs(1.0)])
        b = DiscomfortCDF([obs(2.0, censored=True)])
        merged = a.merged(b)
        assert merged.n == 2

    def test_filtered(self):
        cdf = DiscomfortCDF(
            [obs(1.0, task="word"), obs(2.0, task="quake"),
             obs(3.0, task="word", shape="step")]
        )
        assert cdf.filtered(task="word").n == 2
        assert cdf.filtered(task="word", shape="ramp").n == 1
        assert cdf.filtered(resource=Resource.CPU).n == 3

    def test_filtered_to_nothing_raises(self):
        cdf = DiscomfortCDF([obs(1.0, task="word")])
        with pytest.raises(InsufficientDataError):
            cdf.filtered(task="ie")


class TestFromRun:
    def test_from_run_discomfort(self, small_study):
        run = next(r for r in small_study.runs if r.discomforted
                   and any(s != "blank" for s in r.shapes.values()))
        o = DiscomfortObservation.from_run(run)
        assert not o.censored
        assert o.level > 0
        assert o.task == run.context.task

    def test_from_run_exhausted_is_censored(self, small_study):
        run = next(r for r in small_study.runs if r.exhausted
                   and any(s != "blank" for s in r.shapes.values()))
        o = DiscomfortObservation.from_run(run)
        assert o.censored
        assert o.level == run.max_level(o.resource)


@settings(max_examples=40)
@given(
    levels=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                    max_size=150),
    censored=st.lists(st.floats(min_value=0.01, max_value=10.0), max_size=150),
)
def test_property_cdf_invariants(levels, censored):
    observations = [obs(l) for l in levels] + [
        obs(l, censored=True) for l in censored
    ]
    cdf = DiscomfortCDF(observations)
    assert cdf.n == len(observations)
    assert 0.0 < cdf.f_d() <= 1.0
    x, f = cdf.curve()
    # Monotone, capped at f_d, evaluate() consistent with curve.
    assert np.all(np.diff(f) > 0)
    assert f[-1] == pytest.approx(cdf.f_d())
    # evaluate() is the upper envelope of the step curve (ties included).
    for xi in x[:: max(1, len(x) // 10)]:
        expected = sum(1 for l in levels if l <= xi) / cdf.n
        assert cdf.evaluate(xi) == pytest.approx(expected)
    # c_a is within the observed reaction range (ulp slack: np.mean of
    # identical values can differ from max by one rounding step).
    eps = 1e-9 * max(abs(max(levels)), 1.0)
    assert min(levels) - eps <= cdf.c_a() <= max(levels) + eps
