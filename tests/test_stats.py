"""Unit and property tests for repro.util.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientDataError, ValidationError
from repro.util.stats import (
    ecdf,
    mean_confidence_interval,
    paired_t_test,
    quantile_from_ecdf,
    unpaired_t_test,
    welch_t_test,
)

#: Confidence levels of the intervals the analysis reports (Figure 16
#: uses 95 %), with neighbours on both sides.
CONFIDENCES = (0.8, 0.9, 0.95, 0.975, 0.99)


class TestEcdf:
    def test_simple(self):
        x, f = ecdf(np.array([3.0, 1.0, 2.0]))
        assert list(x) == [1.0, 2.0, 3.0]
        assert np.allclose(f, [1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        x, f = ecdf(np.array([]))
        assert x.size == 0 and f.size == 0

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ecdf(np.array([1.0, np.nan]))

    def test_duplicates(self):
        x, f = ecdf(np.array([2.0, 2.0, 2.0]))
        assert f[-1] == 1.0 and x[0] == 2.0


class TestQuantile:
    def test_basic(self):
        x, f = ecdf(np.arange(1.0, 101.0))
        assert quantile_from_ecdf(x, f, 0.05) == 5.0
        assert quantile_from_ecdf(x, f, 1.0) == 100.0

    def test_censored_plateau_raises(self):
        x = np.array([1.0, 2.0])
        f = np.array([0.1, 0.2])  # CDF caps at 0.2 (exhausted region)
        assert quantile_from_ecdf(x, f, 0.15) == 2.0
        with pytest.raises(InsufficientDataError):
            quantile_from_ecdf(x, f, 0.5)

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            quantile_from_ecdf(np.array([]), np.array([]), 0.5)

    def test_bad_q(self):
        x, f = ecdf(np.array([1.0]))
        with pytest.raises(ValidationError):
            quantile_from_ecdf(x, f, 0.0)
        with pytest.raises(ValidationError):
            quantile_from_ecdf(x, f, 1.5)


class TestMeanCI:
    def test_interval_contains_mean(self):
        ci = mean_confidence_interval(np.array([1.0, 2.0, 3.0, 4.0]))
        assert ci.low < ci.mean < ci.high
        assert ci.mean == 2.5
        assert 2.5 in ci
        assert ci.n == 4

    def test_single_sample_degenerate(self):
        ci = mean_confidence_interval(np.array([5.0]))
        assert ci.low == ci.mean == ci.high == 5.0

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            mean_confidence_interval(np.array([]))

    def test_tighter_with_more_data(self):
        rng = np.random.default_rng(0)
        small = mean_confidence_interval(rng.normal(0, 1, 10))
        large = mean_confidence_interval(rng.normal(0, 1, 1000))
        assert large.half_width < small.half_width

    def test_confidence_level_widens(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ci95 = mean_confidence_interval(data, 0.95)
        ci99 = mean_confidence_interval(data, 0.99)
        assert ci99.half_width > ci95.half_width

    @pytest.mark.parametrize("confidence", [1.5, -0.2, 0.0, 1.0, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        # Unchecked, 1.5 gives NaN bounds, -0.2 gives low > high and 0 a
        # zero-width interval.
        with pytest.raises(ValidationError):
            mean_confidence_interval(np.array([1.0, 2.0, 3.0]), confidence)
        with pytest.raises(ValidationError):
            mean_confidence_interval(np.array([5.0]), confidence)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    @pytest.mark.parametrize("n", [2, 3, 5, 33, 400])
    def test_bounds_match_t_ppf_bit_for_bit(self, confidence, n):
        from scipy.stats import t

        samples = np.random.default_rng(n).normal(1.0, 0.3, n)
        ci = mean_confidence_interval(samples, confidence)
        sem = float(np.std(samples, ddof=1)) / np.sqrt(n)
        half = float(t.ppf(0.5 + confidence / 2.0, df=n - 1)) * sem
        assert ci.low.hex() == (ci.mean - half).hex()
        assert ci.high.hex() == (ci.mean + half).hex()


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_stdtrit_is_t_ppf_bit_for_bit(confidence):
    """``mean_confidence_interval`` calls ``stdtrit``, the kernel behind
    ``scipy.stats.t.ppf``; a scipy release where the two part would move
    every c_a interval.  Covers df 1-399 at the quantiles the interval
    uses, plus deep tails.  Not q = 0: there ``stdtrit`` returns +inf
    where the wrapper returns -inf, and the (0, 1) confidence check
    keeps q in (0.5, 1)."""
    from scipy.special import stdtrit
    from scipy.stats import t

    for q in (0.5 + confidence / 2.0, 1.0 - (1.0 - confidence) * 1e-9, 1.0):
        for df in range(1, 400):
            got = float(stdtrit(df, q))
            want = float(t.ppf(q, df=df))
            assert got.hex() == want.hex(), (q, df)


class TestTTests:
    def test_detects_difference(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 50)
        b = rng.normal(2.0, 1.0, 50)
        result = unpaired_t_test(a, b)
        assert result.p_value < 1e-6
        assert result.diff == pytest.approx(np.mean(b) - np.mean(a))
        assert result.significant()

    def test_no_difference(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, 200)
        b = rng.normal(0.0, 1.0, 200)
        assert unpaired_t_test(a, b).p_value > 0.01

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            unpaired_t_test(np.array([1.0]), np.array([1.0, 2.0]))

    def test_welch_matches_direction(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 0.5, 40)
        b = rng.normal(1.0, 3.0, 40)
        w = welch_t_test(a, b)
        assert w.diff > 0

    def test_paired_detects_shift(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 1.0, 30)
        b = a + 0.5 + rng.normal(0.0, 0.05, 30)  # near-constant shift
        result = paired_t_test(a, b)
        assert result.p_value < 1e-10
        assert result.diff == pytest.approx(0.5, abs=0.05)

    def test_paired_shape_mismatch(self):
        with pytest.raises(ValidationError):
            paired_t_test(np.array([1.0, 2.0]), np.array([1.0]))

    def test_paired_insufficient(self):
        with pytest.raises(InsufficientDataError):
            paired_t_test(np.array([1.0]), np.array([2.0]))


@settings(max_examples=50)
@given(
    samples=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=300,
    )
)
def test_property_ecdf_monotone_and_normalized(samples):
    x, f = ecdf(np.array(samples))
    assert np.all(np.diff(x) >= 0)
    assert np.all(np.diff(f) > 0)
    assert f[-1] == pytest.approx(1.0)
    assert f[0] == pytest.approx(1.0 / len(samples))


@settings(max_examples=50)
@given(
    samples=st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=200,
    ),
    q=st.floats(min_value=0.01, max_value=1.0),
)
def test_property_quantile_is_attained(samples, q):
    x, f = ecdf(np.array(samples))
    value = quantile_from_ecdf(x, f, q)
    # At least fraction q of samples are <= the returned value.
    assert np.mean(np.array(samples) <= value) >= q - 1e-12
    assert value in samples


@settings(max_examples=50)
@given(
    samples=st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=2,
        max_size=100,
    )
)
def test_property_ci_brackets_sample_mean(samples):
    ci = mean_confidence_interval(np.array(samples))
    assert ci.low <= ci.mean <= ci.high
    assert ci.mean == pytest.approx(np.mean(samples))
